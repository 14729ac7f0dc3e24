//! `dpscope` — the command-line face of the reproduction.
//!
//! ```sh
//! # Export the simulated Internet's artifacts for a day:
//! dpscope simulate --scale 0.01 --day 7 --out target/world
//!
//! # Run the measurement study and archive it:
//! dpscope measure --scale 0.05 --days 120 --archive target/archive
//!
//! # Regenerate every table/figure from an archive (or fresh):
//! dpscope analyze --scale 0.05 --days 120 --archive target/archive --out target/figs all
//!
//! # Resolve a name through the simulated Internet, dig-style:
//! dpscope dig d42.com A --day 7
//!
//! # Inspect / checksum-verify / dump a single-file archive:
//! dpscope store info target/archive
//! dpscope store verify target/archive
//! dpscope store cat target/archive --day 3 --source 0 --cols entry,asn1
//! ```

use dps_bench::experiments::{experiment_ids, run, Context, ExperimentConfig};
use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::measure::{DayObserver, ANALYSIS_SOURCE, QUALITY_SOURCE, TELEMETRY_SOURCE};
use dps_scope::prelude::*;
use dps_scope::recursor::CacheConfig;
use dps_scope::stream::{activation_days, analysis_json, correlate, DEFAULT_TOLERANCE};
use dps_scope::telemetry::Registry;
use std::path::PathBuf;
use std::sync::Arc;

/// Writes to stdout; every command prints through here (`out!`,
/// `outln!`). A reader that has gone away — `dpscope store info … | head
/// -1` — ends the command quietly with exit 0, as SIGPIPE ends a C tool;
/// any other write error exits 1. A sweep stopped this way keeps every
/// day it committed and resumes from there.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

struct CommonArgs {
    seed: u64,
    scale: f64,
    days: u32,
    cc_start: u32,
    stride: u32,
    day: u32,
    out: PathBuf,
    archive: Option<PathBuf>,
    source: Option<u8>,
    cols: Option<Vec<String>>,
    chaos: Option<String>,
    stream: bool,
    shards: u32,
    workers: u32,
    min_workers: u32,
    bind: Option<String>,
    connect: Option<String>,
    name: Option<String>,
    zones: Option<PathBuf>,
    udp: Option<String>,
    tcp: Option<String>,
    iters: u64,
    server: Option<String>,
    rest: Vec<String>,
}

/// The help text `usage` prints before the `analyze ids:` list. Lines
/// keep their leading spaces: nothing here is a `\`-continued line.
const HELP: &str = "\
usage: dpscope <command> [options]

commands:
  simulate   export zone files, pfx2as and AS registry for --day
  measure    run the full study, save the archive to --archive
             (resumes from the last committed day if interrupted;
             with --chaos, sweeps over the wire under supervision)
  analyze    regenerate tables/figures (ids or 'all') from --archive
  dig        resolve <name> <type> through the simulated Internet
             (+tries=N and +timeout=MS tune the wire resolver);
             with --server udp://A or tcp://A, query a real DNS
             server over the network instead (+bufsize=N sets the
             EDNS0 size, +noedns sends a classic query; truncated
             UDP answers retry over TCP)
  serve      authoritative DNS over real sockets for the *.zone
             files in --zones (hot-reloaded on change); UDP with
             EDNS0/TC plus TCP fallback, hardened against
             malformed input, floods and slowloris; runs until
             stdin closes
  fuzz       run the deterministic mutation fuzzer against one
             decoder target (or 'all'): fuzz <target> --iters N
             --seed S; corpus under crates/fuzz/corpus/<target>
  store      inspect a single-file archive: store <info|verify|cat> <path>
             (info includes the per-day data-quality summary)
  metrics    dump archived sweep telemetry: metrics <path> [--json]
             (all days merged; --day N selects one day's page;
             --by-worker appends per-worker provenance counters)
  cluster    multi-process sweep roles:
               cluster serve --bind ADDR --archive DIR  (manager)
               cluster agent --connect ADDR [--name S]  (worker)
             ADDRs containing '/' are Unix sockets, else TCP
  stream     incremental analysis over an archive measured with
             --stream (replays the persisted checkpoint pages):
               stream status <path> [--json]  days, per-provider
                              distinct estimates, attack flags
               stream check <path>   verify the streamed state
                              equals a full dps-core rescan
               stream correlate <path>  score attack flags against
                              scenario ground truth (pass the same
                              --seed/--scale/--days/--cc-start
                              the archive was measured with)

options:
  --seed N       world seed           (default 2016)
  --scale X      population scale     (default 1.0 = 1/1000 real)
  --days N       study length         (default 550)
  --cc-start N   .nl/Alexa start day  (default 366)
  --stride N     measure every Nth day (default 1)
  --day N        day for simulate/dig (default 0)
  --out DIR      output directory     (default target/dpscope)
  --archive DIR  measurement archive directory
  --source N     store cat: source id (0=com 1=net 2=org 3=nl 4=alexa)
  --cols A,B     store cat: project these columns only
  --chaos SPEC   measure: sweep over the simulated wire under a
                 scripted fault schedule, e.g.
                 'degrade@0..inf@loss=0.15; blackout@5s..20s@10.0.0.1'
                 (commits and resumes per day like the bulk sweep;
                 works with --stream and --shards, not --workers)
  --stream       measure: maintain incremental analysis at each
                 day's commit and checkpoint it in the archive
                 (works with --workers and with --chaos)
  --shards N     measure: write a sharded archive (manifest + N
                 shard files; scans parallelise per shard) when
                 creating a fresh one; resume keeps the existing
                 layout (default 1 = single-file archive.dps)
  --workers N    measure: sweep with N local worker-agent processes
                 over a Unix socket (archive stays byte-identical)
  --bind ADDR    cluster serve: listen address
  --min-workers N  cluster serve: hold leases until N agents have
                 joined (late fleets all participate; default 0)
  --connect ADDR cluster agent: manager address
  --name S       cluster agent: display name for provenance
  --zones DIR    serve: directory of *.zone files (stem = origin)
  --udp ADDR     serve: UDP listen address (default 127.0.0.1:0)
  --tcp ADDR     serve: TCP listen address (default 127.0.0.1:0)
  --iters N      fuzz: iterations per target (default 100000)
  --server URL   dig: real server, udp://host:port or tcp://host:port

";

fn usage() -> ! {
    eprintln!("{HELP}analyze ids: {}", experiment_ids().join(", "));
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> CommonArgs {
    let mut common = CommonArgs {
        seed: 2016,
        scale: 1.0,
        days: 550,
        cc_start: 366,
        stride: 1,
        day: 0,
        out: PathBuf::from("target/dpscope"),
        archive: None,
        source: None,
        cols: None,
        chaos: None,
        stream: false,
        shards: 1,
        workers: 0,
        min_workers: 0,
        bind: None,
        connect: None,
        name: None,
        zones: None,
        udp: None,
        tcp: None,
        iters: 100_000,
        server: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => common.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--scale" => common.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--days" => common.days = value("--days").parse().unwrap_or_else(|_| usage()),
            "--cc-start" => {
                common.cc_start = value("--cc-start").parse().unwrap_or_else(|_| usage())
            }
            "--stride" => common.stride = value("--stride").parse().unwrap_or_else(|_| usage()),
            "--day" => common.day = value("--day").parse().unwrap_or_else(|_| usage()),
            "--out" => common.out = value("--out").into(),
            "--archive" => common.archive = Some(value("--archive").into()),
            "--source" => {
                common.source = Some(value("--source").parse().unwrap_or_else(|_| usage()))
            }
            "--cols" => {
                common.cols = Some(
                    value("--cols")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--chaos" => common.chaos = Some(value("--chaos").to_string()),
            "--stream" => common.stream = true,
            "--shards" => common.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--workers" => common.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--min-workers" => {
                common.min_workers = value("--min-workers").parse().unwrap_or_else(|_| usage())
            }
            "--bind" => common.bind = Some(value("--bind").to_string()),
            "--connect" => common.connect = Some(value("--connect").to_string()),
            "--name" => common.name = Some(value("--name").to_string()),
            "--zones" => common.zones = Some(value("--zones").into()),
            "--udp" => common.udp = Some(value("--udp").to_string()),
            "--tcp" => common.tcp = Some(value("--tcp").to_string()),
            "--iters" => common.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--server" => common.server = Some(value("--server").to_string()),
            "-h" | "--help" => usage(),
            other => common.rest.push(other.to_string()),
        }
    }
    if common.cc_start >= common.days {
        common.cc_start = common.days.saturating_mul(2) / 3;
    }
    common
}

/// The scenario the command line names.
fn scenario(args: &CommonArgs) -> ScenarioParams {
    ScenarioParams {
        seed: args.seed,
        scale: args.scale,
        gtld_days: args.days,
        cc_start_day: args.cc_start,
    }
}

fn world_for(args: &CommonArgs) -> World {
    let mut world = World::imc2016(scenario(args));
    world.advance_to(Day(args.day));
    world
}

fn cmd_simulate(args: CommonArgs) {
    let world = world_for(&args);
    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| fail(args.out.display(), e));
    let write = |path: &std::path::Path, text: String| {
        std::fs::write(path, text).unwrap_or_else(|e| fail(path.display(), e));
    };
    for tld in dps_scope::ecosystem::MEASURED_TLDS {
        let path = args.out.join(format!("{}.zone", tld.label()));
        write(&path, world.zone_file_text(tld));
        outln!("wrote {} ({} SLDs)", path.display(), world.zone_size(tld));
    }
    let pfx2as = world.pfx2as();
    let path = args.out.join(format!("pfx2as-day{:04}.txt", args.day));
    write(&path, pfx2as.to_routeviews_text());
    outln!("wrote {} ({} prefixes)", path.display(), pfx2as.len());

    let mut asns = String::new();
    for (asn, name) in world.as_registry().iter() {
        asns.push_str(&format!("{asn}\t{name}\n"));
    }
    let path = args.out.join("as-names.tsv");
    write(&path, asns);
    outln!("wrote {}", path.display());
    outln!(
        "\nworld: {} domains, day {} ({})",
        world.domains().len(),
        args.day,
        Day(args.day)
    );
}

fn cmd_measure(args: CommonArgs) {
    let Some(archive) = args.archive.clone() else {
        eprintln!("measure requires --archive DIR");
        usage();
    };
    let mut world = World::imc2016(scenario(&args));
    outln!(
        "world: {} domains; sweeping {} days…",
        world.domains().len(),
        args.days
    );
    std::fs::create_dir_all(&archive).unwrap_or_else(|e| fail(archive.display(), e));
    let path = archive.join(dps_scope::measure::ARCHIVE_FILE);
    if args.workers > 0 {
        if args.chaos.is_some() {
            eprintln!("--workers and --chaos are mutually exclusive");
            usage();
        }
        cmd_measure_cluster(&args, &mut world, &archive);
        return;
    }
    // Streams each finished day into the archive with a durable footer
    // per day: a killed sweep resumes where it left off. With --chaos,
    // every due source is swept over the simulated wire under the fault
    // schedule and the sweep supervisor. With --stream, a StreamEngine
    // observes every commit and its checkpoint rides in the same durable
    // footer.
    let mut study = study_for(&args);
    if let Some(spec) = &args.chaos {
        let schedule = ChaosSchedule::parse(spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });
        study = study.with_chaos(schedule);
    }
    let mut engine = args.stream.then(dps_scope::stream::StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    study
        .run_archived(&mut world, &path, observer)
        .unwrap_or_else(|e| fail(path.display(), e));
    outln!(
        "archived {} to {}",
        dps_scope::core::report::human_bytes(archived_bytes(&path)),
        path.display()
    );
    if let Some(engine) = &engine {
        print_stream_summary(engine);
    }
}

/// The sweep the command line names: its calendar, the shard count of a
/// fresh archive, and a quality line per (day, source) as each day
/// commits.
fn study_for(args: &CommonArgs) -> Study<'static> {
    Study::new(StudyConfig {
        days: args.days,
        cc_start_day: args.cc_start,
        stride: args.stride,
    })
    .with_shards(args.shards)
    .on_commit(print_day_quality)
}

/// Prints `what: error` and exits 1: a failed archive operation ends the
/// command cleanly instead of panicking.
fn fail(what: impl std::fmt::Display, e: std::io::Error) -> ! {
    eprintln!("{what}: {e}");
    std::process::exit(1);
}

/// Encoded bytes of the archive's data pages, from its catalog.
fn archived_bytes(path: &std::path::Path) -> u64 {
    let archive =
        StoreReader::open_auto_with_cache(path, 0).unwrap_or_else(|e| fail(path.display(), e));
    archive
        .catalog()
        .pages
        .values()
        .filter(|page| usize::from(page.source) < dps_scope::measure::SOURCES.len())
        .map(|page| page.len)
        .sum()
}

/// The progress line of each (day, source) sweep, printed as its day
/// commits.
fn print_day_quality(day: u32, qualities: &[DayQuality]) {
    for q in qualities {
        outln!(
            "day {day:>4} {:<8} coverage {:>6.2}%  attempted {:>6}  unresolved {:>4}  \
             recovered {:>4}  trips {:>3}  hedges {:>4}",
            q.source.label(),
            100.0 * q.coverage(),
            q.attempted,
            q.failed,
            q.recovered,
            q.breaker_trips,
            q.hedges,
        );
    }
}

/// One-line streaming-analysis summary after a `--stream` sweep.
fn print_stream_summary(engine: &dps_scope::stream::StreamEngine) {
    let flags = engine.attack_flags();
    outln!(
        "stream: {} days analysed, {} providers, {} attack-onset flags",
        engine.days().len(),
        engine.n_providers(),
        flags.len()
    );
}

/// Manager-side read timeout: comfortably above the agents' 100 ms
/// heartbeat interval, so a healthy worker never shows a quiet tick.
const CLUSTER_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);

/// Binds `addr` ('/' ⇒ Unix socket path, else TCP host:port) and pumps
/// accepted connections into `conns` until `stop` is raised.
fn spawn_accept_loop(
    addr: &str,
    conns: std::sync::mpsc::Sender<dps_scope::cluster::Conn>,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<std::io::Result<()>> {
    use dps_scope::cluster::transport::{tcp_accept_loop, uds_accept_loop};
    if addr.contains('/') {
        std::fs::remove_file(addr).ok();
        let listener =
            std::os::unix::net::UnixListener::bind(addr).unwrap_or_else(|e| fail(addr, e));
        std::thread::spawn(move || uds_accept_loop(listener, CLUSTER_READ_TIMEOUT, &conns, &stop))
    } else {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| fail(addr, e));
        std::thread::spawn(move || tcp_accept_loop(listener, CLUSTER_READ_TIMEOUT, &conns, &stop))
    }
}

/// Runs the manager: binds `bind`, starts the agents `spawn_agents`
/// returns (none for `cluster serve`), and sweeps `world` with the
/// agents as the day collector. Writes the provenance sidecar and
/// prints the run summary.
fn run_manager(
    args: &CommonArgs,
    world: &mut World,
    archive: &std::path::Path,
    bind: &str,
    spawn_agents: impl FnOnce() -> Vec<std::process::Child>,
) {
    let path = archive.join(dps_scope::measure::ARCHIVE_FILE);
    let (conn_tx, conn_rx) = std::sync::mpsc::channel();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let accept = spawn_accept_loop(bind, conn_tx, stop.clone());
    let agents = spawn_agents();
    let mut config = dps_scope::cluster::ClusterConfig::default();
    config.scheduler.min_workers = args.min_workers;
    let mut engine = args.stream.then(dps_scope::stream::StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    let report =
        dps_scope::cluster::serve(conn_rx, config, study_for(args), world, &path, observer);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    match accept.join() {
        Ok(accepted) => accepted.unwrap_or_else(|e| fail(bind, e)),
        Err(_) => fail(bind, std::io::Error::other("accept loop panicked")),
    }
    for mut agent in agents {
        agent.wait().ok();
    }
    if bind.contains('/') {
        std::fs::remove_file(bind).ok();
    }
    let report = report.unwrap_or_else(|e| fail(path.display(), e));
    let sidecar = archive.join(dps_scope::cluster::PROVENANCE_FILE);
    dps_scope::cluster::write_provenance(&sidecar, &report)
        .unwrap_or_else(|e| fail(sidecar.display(), e));
    outln!(
        "archived {} to {} ({} workers, {} leases, {} dead-letters, {} stale)",
        dps_scope::core::report::human_bytes(archived_bytes(&path)),
        path.display(),
        report.workers_admitted,
        report.accepted.len(),
        report.dead_letters,
        report.stale_rejected,
    );
    outln!("provenance sidecar: {}", sidecar.display());
    if let Some(engine) = &engine {
        print_stream_summary(engine);
    }
}

/// `dpscope cluster serve --bind ADDR --archive DIR`: the manager role.
/// Owns the archive; leases (day, shard) units to connecting agents and
/// commits merged days. The archive is byte-identical to a single-process
/// `dpscope measure` of the same parameters.
fn cluster_serve(args: &CommonArgs) {
    let Some(bind) = args.bind.clone() else {
        eprintln!("cluster serve requires --bind ADDR");
        usage();
    };
    let Some(archive) = args.archive.clone() else {
        eprintln!("cluster serve requires --archive DIR");
        usage();
    };
    std::fs::create_dir_all(&archive).unwrap_or_else(|e| fail(archive.display(), e));
    let mut world = World::imc2016(scenario(args));
    run_manager(args, &mut world, &archive, &bind, || {
        outln!("cluster manager on {bind}; waiting for agents…");
        Vec::new()
    });
}

/// `dpscope cluster agent --connect ADDR [--name S]`: the worker role.
/// Rebuilds the world the manager's Welcome describes and sweeps leases
/// until drained.
fn cluster_agent(args: &CommonArgs) {
    let Some(addr) = args.connect.clone() else {
        eprintln!("cluster agent requires --connect ADDR");
        usage();
    };
    // The manager may still be binding its socket — or starting slowly on
    // a loaded machine; retry for up to a minute.
    let mut conn = None;
    for _ in 0..600 {
        let attempt = if addr.contains('/') {
            std::os::unix::net::UnixStream::connect(&addr)
                .and_then(|s| dps_scope::cluster::uds_conn(s, CLUSTER_READ_TIMEOUT))
        } else {
            std::net::TcpStream::connect(&addr)
                .and_then(|s| dps_scope::cluster::tcp_conn(s, CLUSTER_READ_TIMEOUT))
        };
        match attempt {
            Ok(c) => {
                conn = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    let Some(conn) = conn else {
        eprintln!("cannot connect to {addr}");
        std::process::exit(1);
    };
    let opts = dps_scope::cluster::WorkerOptions {
        name: args.name.clone().unwrap_or_default(),
        ..Default::default()
    };
    let summary = dps_scope::cluster::run_agent(conn, opts).unwrap_or_else(|e| fail(&addr, e));
    outln!(
        "agent {}: {} leases, {} rows",
        summary.worker,
        summary.leases,
        summary.rows
    );
}

/// `dpscope measure --workers N`: forks N local `cluster agent` child
/// processes talking to an in-archive-dir Unix socket, then runs the
/// manager in this process. Same bytes as the single-process sweep.
fn cmd_measure_cluster(args: &CommonArgs, world: &mut World, archive: &std::path::Path) {
    let sock = archive.join("cluster.sock");
    let Some(sock) = sock.to_str() else {
        eprintln!(
            "{}: --workers needs a UTF-8 archive path",
            archive.display()
        );
        std::process::exit(1);
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| fail("current exe", e));
    run_manager(args, world, archive, sock, || {
        let agents = (0..args.workers)
            .map(|i| {
                std::process::Command::new(&exe)
                    .args(["cluster", "agent", "--connect", sock])
                    .args(["--name", &format!("local-{i}")])
                    .spawn()
                    .unwrap_or_else(|e| fail("spawn local agent", e))
            })
            .collect();
        outln!("sweeping with {} local worker agents…", args.workers);
        agents
    });
}

/// `dpscope cluster <serve|agent>` — the two cluster roles.
fn cmd_cluster(args: CommonArgs) {
    match args.rest.first().map(String::as_str) {
        Some("serve") => cluster_serve(&args),
        Some("agent") => cluster_agent(&args),
        _ => {
            eprintln!("cluster requires <serve|agent>");
            usage();
        }
    }
}

/// Reads the catalog-listed page `(day, source)` of the archive at
/// `path`, or exits 1 with a message if it is corrupt or missing.
fn read_page(
    archive: &StoreReader,
    path: &std::path::Path,
    day: u32,
    source: u8,
) -> std::sync::Arc<dps_scope::columnar::Table> {
    match archive.table(day, source) {
        Ok(Some(table)) => table,
        Ok(None) => {
            eprintln!(
                "{}: no page for (day {day}, source {source})",
                path.display()
            );
            std::process::exit(1);
        }
        Err(e) => fail(path.display(), e),
    }
}

/// Human label for an archive page kind (the catalog's `source` id):
/// the five measured sources, the three bookkeeping kinds, and a
/// future-proof `unknown(id)` for anything a newer writer introduced.
fn page_kind_label(id: u8) -> String {
    if let Some(source) = Source::from_index(u32::from(id)) {
        return source.label().to_string();
    }
    match id {
        QUALITY_SOURCE => "quality".to_string(),
        TELEMETRY_SOURCE => "telemetry".to_string(),
        ANALYSIS_SOURCE => "analysis".to_string(),
        other => format!("unknown({other})"),
    }
}

/// `dpscope store <info|verify|cat> <path>` — single-file archive tooling.
fn cmd_store(args: CommonArgs) {
    let (Some(action), Some(raw_path)) = (args.rest.first(), args.rest.get(1)) else {
        eprintln!("store requires <info|verify|cat> <archive-file-or-dir>");
        usage();
    };
    // Accept either the archive file itself or its containing directory.
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    let archive = match StoreReader::open_auto(&path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    match action.as_str() {
        "info" => {
            let catalog = archive.catalog();
            outln!("archive: {}", path.display());
            if archive.is_sharded() {
                outln!(
                    "layout:  sharded ({} shard files + manifest)",
                    archive.n_shards()
                );
            }
            outln!("pages:   {}", catalog.pages.len());
            outln!(
                "stored:  {}",
                dps_scope::core::report::human_bytes(catalog.total_stored_bytes())
            );
            outln!("dict:    {} strings", archive.dict().len());
            outln!(
                "{:<12} {:>6} {:>11} {:>13} {:>12} {:>12}",
                "kind",
                "days",
                "first..last",
                "data points",
                "stored",
                "raw"
            );
            // Every page kind present in the catalog gets a row — data
            // sources and bookkeeping kinds alike, and ids this build
            // does not know render as unknown(id) instead of vanishing.
            for (source, st) in catalog.stats().iter().enumerate() {
                if st.days == 0 {
                    continue;
                }
                let id = u8::try_from(source).unwrap_or(u8::MAX);
                outln!(
                    "{:<12} {:>6} {:>5}..{:<5} {:>13} {:>12} {:>12}",
                    page_kind_label(id),
                    st.days,
                    st.first_day.unwrap_or(0),
                    st.last_day.unwrap_or(0),
                    st.data_points,
                    dps_scope::core::report::human_bytes(st.stored_bytes),
                    dps_scope::core::report::human_bytes(st.raw_bytes)
                );
            }
            // Per-day sweep quality (coverage, retries, masked days), read
            // from the archive's QUALITY_SOURCE pages.
            let mut quality_store = SnapshotStore::new();
            for &(day, source) in archive.catalog().pages.keys() {
                if source != QUALITY_SOURCE {
                    continue;
                }
                let table = read_page(&archive, &path, day, source);
                let Some(qualities) = dps_scope::measure::decode_qualities(&table) else {
                    eprintln!(
                        "{}: quality page of day {day} does not decode",
                        path.display()
                    );
                    std::process::exit(1);
                };
                for q in qualities {
                    quality_store.add_quality(q);
                }
            }
            let mask = dps_scope::core::QualityMask::from_store(
                &quality_store,
                dps_scope::core::DEFAULT_MIN_COVERAGE,
            );
            outln!();
            outln!(
                "{}",
                dps_scope::core::report::quality_summary(&quality_store, &mask)
            );
            // Telemetry summary, read from the TELEMETRY_SOURCE pages.
            let mut merged = dps_scope::telemetry::Snapshot::default();
            let mut telemetry_days = 0usize;
            for &(day, source) in archive.catalog().pages.keys() {
                if source != TELEMETRY_SOURCE {
                    continue;
                }
                let table = read_page(&archive, &path, day, source);
                let Some(snapshot) = dps_scope::measure::decode_telemetry(&table) else {
                    eprintln!(
                        "{}: telemetry page of day {day} does not decode",
                        path.display()
                    );
                    std::process::exit(1);
                };
                merged.merge(&snapshot);
                telemetry_days += 1;
            }
            if telemetry_days > 0 {
                let instruments =
                    merged.counters.len() + merged.gauges.len() + merged.histograms.len();
                outln!();
                outln!(
                    "telemetry: {telemetry_days} day pages, {instruments} instruments \
                     (dump with `dpscope metrics`)"
                );
            }
        }
        "verify" => {
            let report = archive.verify().unwrap_or_else(|e| {
                eprintln!("verify failed: {e}");
                std::process::exit(1);
            });
            outln!(
                "{}: {} pages checked, {} ok, {} corrupt",
                path.display(),
                report.pages,
                report.ok,
                report.corrupt.len()
            );
            for (day, source) in &report.corrupt {
                outln!("  CORRUPT page (day {day}, source {source})");
            }
            if !report.all_ok() {
                std::process::exit(1);
            }
        }
        "cat" => {
            let source = args.source.unwrap_or(0);
            let cols: Option<Vec<&str>> = args
                .cols
                .as_ref()
                .map(|cs| cs.iter().map(String::as_str).collect());
            let table = match &cols {
                Some(c) => archive.project(args.day, source, c),
                None => archive.table(args.day, source),
            };
            let table = match table {
                Ok(Some(t)) => t,
                Ok(None) => {
                    eprintln!("no page for (day {}, source {source})", args.day);
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("cannot read page: {e}");
                    std::process::exit(1);
                }
            };
            let names = table.schema().names().to_vec();
            outln!("{}", names.join("\t"));
            let columns: Vec<&[u32]> = (0..names.len()).map(|c| table.column(c)).collect();
            for row in 0..table.rows() {
                let line: Vec<String> = columns.iter().map(|c| c[row].to_string()).collect();
                outln!("{}", line.join("\t"));
            }
        }
        other => {
            eprintln!("unknown store action {other:?}");
            usage();
        }
    }
}

/// `dpscope metrics <path> [--json] [--day N]` — render the telemetry
/// snapshots archived alongside a study's data pages. Without `--day`,
/// every per-day snapshot is merged (counters and histograms add; gauges
/// keep the latest day's level). Output order is sorted by metric name,
/// so same-seed sweeps render byte-identical dumps.
fn cmd_metrics(args: CommonArgs) {
    let json = args.rest.iter().any(|a| a == "--json");
    let Some(raw_path) = args.rest.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("metrics requires <archive-file-or-dir>");
        usage();
    };
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    let store = match SnapshotStore::load_archive(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    // `--day 0` is a valid selection, so presence is what matters.
    let day_selected = std::env::args().any(|a| a == "--day");
    let snapshot = if day_selected {
        match store.telemetry(args.day) {
            Some(s) => s.clone(),
            None => {
                eprintln!("no telemetry page for day {}", args.day);
                std::process::exit(1);
            }
        }
    } else {
        store.merged_telemetry()
    };
    if snapshot.is_empty() && !json {
        eprintln!("{}: no telemetry pages archived", path.display());
        std::process::exit(1);
    }
    if json {
        outln!("{}", snapshot.to_json());
    } else {
        out!("{}", snapshot.to_text());
    }
    // `--by-worker`: append per-worker provenance counters from the
    // cluster sidecar, as a `worker="…"` label dimension. A separate
    // section, so the default (unlabelled) rendering stays byte-identical
    // with or without the sidecar present.
    if args.rest.iter().any(|a| a == "--by-worker") {
        let sidecar = path
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join(dps_scope::cluster::PROVENANCE_FILE);
        match dps_scope::cluster::read_provenance(&sidecar) {
            Ok(rows) => out!("{}", dps_scope::cluster::render_per_worker(&rows)),
            Err(e) => {
                eprintln!("cannot read {}: {e}", sidecar.display());
                std::process::exit(1);
            }
        }
    }
}

/// Opens an archive and replays its persisted analysis checkpoint pages
/// through a fresh [`StreamEngine`], in catalog (day-ascending) order —
/// the same path a resumed sweep takes. Exits with a message if the
/// archive holds no checkpoints (it was measured without `--stream`).
fn replay_stream_engine(path: &std::path::Path) -> (StoreReader, dps_scope::stream::StreamEngine) {
    let archive = match StoreReader::open_auto(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let mut engine = dps_scope::stream::StreamEngine::new();
    for &(day, source) in archive.catalog().pages.keys() {
        if source != ANALYSIS_SOURCE {
            continue;
        }
        let table = read_page(&archive, path, day, source);
        if let Err(e) = engine.on_resume(day, &table) {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if engine.days().is_empty() {
        eprintln!(
            "{}: no analysis checkpoints (measure with --stream to create them)",
            path.display()
        );
        std::process::exit(1);
    }
    (archive, engine)
}

/// `dpscope stream status <path> [--json]` — what the streamed analysis
/// currently knows: analysed days, per-provider distinct-touch estimates
/// from the sketches, and flagged attack-onset days.
fn stream_status(path: &std::path::Path, json: bool) {
    let (_, engine) = replay_stream_engine(path);
    let names = engine.provider_names();
    let days = engine.days().to_vec();
    let flags = engine.attack_flags();
    if json {
        let mut providers = Vec::new();
        for (p, name) in names.iter().enumerate() {
            let p = p as u8;
            let series = engine.distinct_series(p);
            let latest = series.last().map_or(0, |&(_, est)| est);
            let fl: Vec<String> = flags
                .iter()
                .filter(|f| f.provider == p)
                .map(|f| {
                    format!(
                        "{{\"day\": {}, \"estimate\": {}, \"baseline\": {}}}",
                        f.day, f.estimate, f.baseline
                    )
                })
                .collect();
            providers.push(format!(
                "{{\"name\": {name:?}, \"distinct\": {}, \"flags\": [{}]}}",
                latest,
                fl.join(", ")
            ));
        }
        outln!(
            "{{\"days\": {}, \"first_day\": {}, \"last_day\": {}, \"providers\": [{}]}}",
            days.len(),
            days.first().copied().unwrap_or(0),
            days.last().copied().unwrap_or(0),
            providers.join(", ")
        );
        return;
    }
    outln!("archive:   {}", path.display());
    outln!(
        "analysed:  {} days ({}..{})",
        days.len(),
        days.first().copied().unwrap_or(0),
        days.last().copied().unwrap_or(0)
    );
    outln!("{:<14} {:>10} {:>6}", "provider", "distinct", "flags");
    for (p, name) in names.iter().enumerate() {
        let p = p as u8;
        let latest = engine.distinct_series(p).last().map_or(0, |&(_, est)| est);
        let n_flags = flags.iter().filter(|f| f.provider == p).count();
        outln!("{name:<14} {latest:>10} {n_flags:>6}");
    }
    for f in &flags {
        let name = names
            .get(usize::from(f.provider))
            .cloned()
            .unwrap_or_default();
        outln!(
            "flag: {name} day {} distinct ~{} (baseline ~{})",
            f.day,
            f.estimate,
            f.baseline
        );
    }
}

/// `dpscope stream check <path>` — the equivalence gate: the replayed
/// incremental state must render byte-identically to a full dps-core
/// rescan of the same archive. Exits 1 on any divergence.
fn stream_check(path: &std::path::Path) {
    let (archive, engine) = replay_stream_engine(path);
    let incremental = analysis_json(
        &engine.finalize(),
        &engine.provider_names(),
        &engine.masked_gtld_days(),
    );
    let store = match SnapshotStore::load_archive(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs)
        .run_store(&archive)
        .unwrap_or_else(|e| fail(path.display(), e));
    let mask =
        dps_scope::core::QualityMask::from_store(&store, dps_scope::core::DEFAULT_MIN_COVERAGE);
    let rescan = analysis_json(&out, &refs.names, &mask.masked_gtld_days());
    if incremental == rescan {
        outln!(
            "{}: incremental analysis matches full rescan ({} days, {} analysis bytes)",
            path.display(),
            engine.days().len(),
            incremental.len()
        );
    } else {
        eprintln!(
            "{}: DIVERGENCE between streamed state and full rescan\n\
             incremental: {incremental}\n\
             rescan:      {rescan}",
            path.display()
        );
        std::process::exit(1);
    }
}

/// `dpscope stream correlate <path>` — score flagged attack-onset days
/// against the scenario's labelled mass on-demand activations. The
/// scenario parameters must match the ones the archive was measured
/// with (they are not stored in the archive).
fn stream_correlate(args: &CommonArgs, path: &std::path::Path) {
    let (_, engine) = replay_stream_engine(path);
    let truth = activation_days(scenario(args));
    let flags = engine.attack_flags();
    let names = engine.provider_names();
    let c = correlate(&flags, &truth, DEFAULT_TOLERANCE);
    let name = |p: u8| names.get(usize::from(p)).cloned().unwrap_or_default();
    outln!(
        "scenario: seed {} scale {} days {} cc-start {} (tolerance ±{} days)",
        args.seed,
        args.scale,
        args.days,
        args.cc_start,
        c.tolerance
    );
    outln!(
        "flags: {} matched, {} unmatched; activations: {} labelled, {} missed",
        c.matched.len(),
        c.unmatched_flags.len(),
        c.activations.len(),
        c.missed.len()
    );
    for f in &c.matched {
        outln!(
            "  matched   {} day {} (distinct ~{})",
            name(f.provider),
            f.day,
            f.estimate
        );
    }
    for f in &c.unmatched_flags {
        outln!(
            "  unmatched {} day {} (distinct ~{})",
            name(f.provider),
            f.day,
            f.estimate
        );
    }
    for &(p, day) in &c.missed {
        outln!("  missed    {} activation day {day}", name(p));
    }
}

/// `dpscope stream <status|check|correlate> <path>` — inspect, verify,
/// or ground-truth-score the incremental analysis checkpoints.
fn cmd_stream(args: CommonArgs) {
    let json = args.rest.iter().any(|a| a == "--json");
    let mut positional = args.rest.iter().filter(|a| !a.starts_with("--"));
    let (Some(action), Some(raw_path)) = (positional.next(), positional.next()) else {
        eprintln!("stream requires <status|check|correlate> <archive-file-or-dir>");
        usage();
    };
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    match action.as_str() {
        "status" => stream_status(&path, json),
        "check" => stream_check(&path),
        "correlate" => stream_correlate(&args, &path),
        other => {
            eprintln!("unknown stream action {other:?}");
            usage();
        }
    }
}

fn cmd_analyze(args: CommonArgs) {
    let config = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
        days: args.days,
        cc_start: args.cc_start,
        stride: args.stride,
        out_dir: args.out.clone(),
        store_dir: args.archive.clone(),
    };
    let ids = if args.rest.is_empty() {
        vec!["all".to_string()]
    } else {
        args.rest.clone()
    };
    let ctx = Context::build(config).unwrap_or_else(|e| fail("analyze", e));
    for id in ids {
        match run(&ctx, &id) {
            Some(text) => outln!("{text}"),
            None => {
                eprintln!("unknown experiment {id:?}");
                usage();
            }
        }
    }
}

/// Answer-section renderer shared by the simulated and real-socket dig
/// paths: status line, then one record per line.
fn print_dig_answer(rcode: Rcode, answers: &[Record], suffix: &str) {
    outln!(";; status: {rcode}{suffix}");
    for rec in answers {
        outln!("{rec}");
    }
}

/// Splits `udp://host:port` / `tcp://host:port` into (is_tcp, addr).
fn parse_server_url(url: &str) -> (bool, &str) {
    if let Some(addr) = url.strip_prefix("udp://") {
        (false, addr)
    } else if let Some(addr) = url.strip_prefix("tcp://") {
        (true, addr)
    } else {
        eprintln!("--server wants udp://host:port or tcp://host:port, got {url:?}");
        usage();
    }
}

/// One DNS exchange over real TCP: length-framed write, framed read.
fn tcp_exchange(addr: &str, query: &[u8]) -> std::io::Result<Vec<u8>> {
    use std::io::{Read as _, Write as _};
    let mut sock = std::net::TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let len = u16::try_from(query.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "query exceeds 64 KiB")
    })?;
    sock.write_all(&len.to_be_bytes())?;
    sock.write_all(query)?;
    let mut hdr = [0u8; 2];
    sock.read_exact(&mut hdr)?;
    let mut body = vec![0u8; usize::from(u16::from_be_bytes(hdr))];
    sock.read_exact(&mut body)?;
    Ok(body)
}

/// One DNS exchange over real UDP.
fn udp_exchange(addr: &str, query: &[u8]) -> std::io::Result<Vec<u8>> {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0")
        .or_else(|_| std::net::UdpSocket::bind("0.0.0.0:0"))?;
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    sock.send_to(query, addr)?;
    let mut buf = vec![0u8; 65535];
    let (n, _) = sock.recv_from(&mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

/// `dpscope dig … --server URL`: query a real authoritative server over
/// UDP or TCP, with EDNS0 by default and automatic TCP retry on TC.
fn dig_real(args: &CommonArgs, qname: &Name, qtype: RrType, bufsize: Option<u16>) {
    let Some(url) = &args.server else {
        unreachable!("caller checked --server");
    };
    let (tcp, addr) = parse_server_url(url);
    let id = (args.seed & 0xFFFF) as u16;
    let mut query = Message::query(id, Question::new(qname.clone(), qtype));
    if let Some(size) = bufsize {
        query
            .additionals
            .push(dps_scope::serve::edns::opt_record(size, 0));
    }
    let bytes = query.to_bytes().expect("well-formed query encodes");
    let exchange = |tcp: bool| -> Vec<u8> {
        let res = if tcp {
            tcp_exchange(addr, &bytes)
        } else {
            udp_exchange(addr, &bytes)
        };
        res.unwrap_or_else(|e| {
            eprintln!(";; network error talking to {addr}: {e}");
            std::process::exit(1);
        })
    };
    let mut raw = exchange(tcp);
    let mut resp = Message::parse(&raw).unwrap_or_else(|e| {
        eprintln!(";; malformed response from {addr}: {e:?}");
        std::process::exit(1);
    });
    if resp.header.tc && !tcp {
        outln!(";; truncated, retrying over TCP");
        raw = exchange(true);
        resp = Message::parse(&raw).unwrap_or_else(|e| {
            eprintln!(";; malformed TCP response from {addr}: {e:?}");
            std::process::exit(1);
        });
    }
    outln!("; <<>> dpscope dig <<>> {qname} {qtype} @{url}");
    print_dig_answer(
        resp.header.rcode,
        &resp.answers,
        &format!(", {} bytes", raw.len()),
    );
}

fn cmd_dig(args: CommonArgs) {
    // dig-style +key=value options ride along in the positional list.
    let mut config = ResolverConfig::default();
    let mut positional = Vec::new();
    let mut bufsize: Option<u16> = Some(1232);
    for arg in &args.rest {
        if let Some(opt) = arg.strip_prefix('+') {
            match opt.split_once('=') {
                Some(("tries", v)) => {
                    config.retries = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +tries value {v:?}");
                        usage();
                    })
                }
                Some(("timeout", v)) => {
                    let ms: u64 = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +timeout value {v:?} (milliseconds)");
                        usage();
                    });
                    config.attempt_timeout_us = ms.saturating_mul(1_000);
                }
                Some(("bufsize", v)) => {
                    bufsize = Some(v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +bufsize value {v:?}");
                        usage();
                    }))
                }
                None if opt == "noedns" => bufsize = None,
                _ => {
                    eprintln!(
                        "unknown dig option +{opt} \
                         (want +tries=N, +timeout=MS, +bufsize=N, +noedns)"
                    );
                    usage();
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }
    if positional.len() < 2 {
        eprintln!("dig requires <name> <type>");
        usage();
    }
    // Operator input: a bad name or type is an error, not a panic.
    let qname: Name = positional[0].parse().unwrap_or_else(|e| {
        eprintln!("dig: bad name {:?}: {e}", positional[0]);
        std::process::exit(1);
    });
    let qtype: RrType = positional[1].parse().unwrap_or_else(|e| {
        eprintln!("dig: bad RR type {:?}: {e}", positional[1]);
        std::process::exit(1);
    });
    if args.server.is_some() {
        dig_real(&args, &qname, qtype, bufsize);
        return;
    }
    let world = world_for(&args);
    let net = Network::new(args.seed);
    let root_hints = world.authority().bind(&net);
    let resolver =
        Resolver::new(&net, "172.16.0.53".parse().unwrap(), 0, root_hints).with_config(config);
    // Both caches off: the question descends from the root.
    let off = CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    };
    let mut recursor = Recursor::over(resolver, off, 0, &Registry::new());
    outln!("; <<>> dpscope dig <<>> {qname} {qtype} @day {}", args.day);
    match recursor.resolve(&qname, qtype) {
        Ok(res) => print_dig_answer(
            res.rcode,
            &res.answers,
            &format!(", elapsed: {} µs (virtual)", res.elapsed_us),
        ),
        Err(e) => outln!(";; resolution failed: {e} (cause: {})", e.cause().label()),
    }
}

/// `dpscope serve --zones DIR [--udp ADDR] [--tcp ADDR]`: authoritative
/// DNS over real sockets, hardened against hostile input. Runs until
/// stdin reaches EOF (the workspace denies `unsafe`, so a portable pipe
/// close stands in for signal handling), then shuts down cleanly and
/// dumps its telemetry counters.
fn cmd_serve(args: CommonArgs) {
    use std::io::BufRead as _;
    let Some(zones) = args.zones.clone() else {
        eprintln!("serve requires --zones DIR");
        usage();
    };
    let mut opts = dps_scope::serve::ServeOptions::new(zones);
    let parse_addr = |flag: &str, s: &String| -> std::net::SocketAddr {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad {flag} address {s:?}");
            usage();
        })
    };
    if let Some(u) = &args.udp {
        opts.udp_addr = parse_addr("--udp", u);
    }
    if let Some(t) = &args.tcp {
        opts.tcp_addr = parse_addr("--tcp", t);
    }
    let registry = Registry::new();
    let server = dps_scope::serve::Server::start(opts, &registry).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    outln!(
        "serve: listening udp={} tcp={}",
        server.udp_addr(),
        server.tcp_addr()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    while stdin.lock().read_line(&mut line).is_ok_and(|n| n > 0) {
        line.clear();
    }
    server.shutdown();
    // The supervising process may have dropped our stdout already: `out!`
    // then ends the clean shutdown with exit 0 as well.
    outln!("serve: shutdown");
    out!("{}", registry.snapshot().to_text());
}

/// Reads the checked-in corpus for one fuzz target, sorted by file name
/// so runs are deterministic regardless of directory iteration order.
fn load_fuzz_corpus(target: &str) -> Vec<Vec<u8>> {
    let dir = PathBuf::from("crates/fuzz/corpus").join(target);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    paths.iter().filter_map(|p| std::fs::read(p).ok()).collect()
}

/// `dpscope fuzz <target|all> --iters N --seed S`: the deterministic
/// mutation fuzzer over the workspace's untrusted-input decoders. Exits
/// nonzero if any target panics or violates a round-trip invariant, and
/// drops the offending inputs under target/fuzz-artifacts/.
fn cmd_fuzz(args: CommonArgs) {
    let Some(which) = args.rest.first() else {
        eprintln!("fuzz requires <target|all>; targets:");
        for t in dps_scope::fuzz::targets::TARGETS {
            eprintln!("  {:<13} {}", t.name, t.about);
        }
        usage();
    };
    let targets: Vec<&dps_scope::fuzz::targets::Target> = if which == "all" {
        dps_scope::fuzz::targets::TARGETS.iter().collect()
    } else {
        match dps_scope::fuzz::targets::find_target(which) {
            Some(t) => vec![t],
            None => {
                eprintln!("unknown fuzz target {which:?}; targets:");
                for t in dps_scope::fuzz::targets::TARGETS {
                    eprintln!("  {:<13} {}", t.name, t.about);
                }
                std::process::exit(2);
            }
        }
    };
    let mut failed = false;
    for target in targets {
        let corpus = load_fuzz_corpus(target.name);
        let outcome = dps_scope::fuzz::fuzz(target, args.iters, args.seed, &corpus, 8);
        outln!(
            "fuzz {:<13} seed {:>6}  {:>8} iters  corpus {:>2}  failures {}",
            target.name,
            args.seed,
            outcome.iters,
            outcome.corpus_size,
            outcome.failures.len()
        );
        for (i, f) in outcome.failures.iter().enumerate() {
            failed = true;
            let hex: String = f.minimised.iter().map(|b| format!("{b:02x}")).collect();
            outln!(
                "  FAIL {}: {} (minimised {} bytes: {hex})",
                i,
                f.reason,
                f.minimised.len()
            );
            let dir = PathBuf::from("target/fuzz-artifacts");
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join(format!("{}-{i}.bin", target.name));
                if std::fs::write(&path, &f.minimised).is_ok() {
                    outln!("  artifact: {}", path.display());
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    match command.as_str() {
        "simulate" => cmd_simulate(args),
        "measure" => cmd_measure(args),
        "analyze" => cmd_analyze(args),
        "dig" => cmd_dig(args),
        "store" => cmd_store(args),
        "metrics" => cmd_metrics(args),
        "cluster" => cmd_cluster(args),
        "stream" => cmd_stream(args),
        "serve" => cmd_serve(args),
        "fuzz" => cmd_fuzz(args),
        _ => usage(),
    }
}
