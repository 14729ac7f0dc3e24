//! Helper binary of the dps-scope benchmark; `perfbench/run.py` drives it.
//!
//! - `digest --archive PATH` prints one line per data page and the
//!   archive's row and quality totals, so archives compare page by page.
//! - `trace-sweep`, `trace-analyze` and `trace-wire` copy what `dpscope
//!   measure --stream`, `dpscope analyze all` and `dpscope measure --chaos`
//!   do, calling the crates' public functions with a span around each
//!   call. Spans are kept in memory and written to `--spans FILE` at the end.
//! - `trace-serve` times the serve layers in process over the load
//!   generator's query mix.
//! - `fat-zone --zones DIR` writes the zone with large RRsets the serve
//!   workload adds to the simulated zones.
//! - `loadgen` is the open-loop client for a running `dpscope serve`.

mod loadgen;
mod mix;
mod spans;
mod traced;

use dps_scope::measure::{decode_qualities, QUALITY_SOURCE, SOURCES};
use dps_scope::store::StoreReader;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `--key value` pairs after the subcommand.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {key}"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    /// The raw value of `--key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// The value of `--key`, parsed.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("bad value for --{key}"))
    }
}

/// Converts an I/O error into the binary's error type.
pub fn io<T>(result: std::io::Result<T>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// FNV-1a, 64 bit: a page fingerprint for equality checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Prints `page DAY SOURCE ROWS FINGERPRINT` for every data page, then
/// `total rows N quality_attempted A quality_failed F`.
fn digest(path: &Path) -> Result<(), String> {
    let reader = io(StoreReader::open_auto(path))?;
    let (mut rows, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    for (&(day, source), meta) in &reader.catalog().pages {
        let is_data = usize::from(source) < SOURCES.len();
        if !is_data && source != QUALITY_SOURCE {
            continue;
        }
        let table = io(reader.table(day, source))?
            .ok_or_else(|| format!("catalog lists page ({day}, {source}) but it is missing"))?;
        if is_data {
            rows += meta.rows;
            println!(
                "page {day} {source} {} {:016x}",
                meta.rows,
                fnv1a(&table.to_bytes())
            );
        } else {
            for q in decode_qualities(&table).ok_or("undecodable quality page")? {
                attempted += u64::from(q.attempted);
                failed += u64::from(q.failed);
            }
        }
    }
    println!("total rows {rows} quality_attempted {attempted} quality_failed {failed}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: perfbench <digest|trace-sweep|trace-analyze|trace-wire|trace-serve|fat-zone|loadgen> [--key value]..."
        );
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "digest" => digest(Path::new(args.str("archive")?)),
        "trace-sweep" => traced::sweep(&args),
        "trace-analyze" => traced::analyze(&args),
        "trace-wire" => traced::wire(&args),
        "trace-serve" => traced::serve(&args),
        "fat-zone" => mix::write_fat_zone(Path::new(args.str("zones")?)),
        "loadgen" => loadgen::run(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
