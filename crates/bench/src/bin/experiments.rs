//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```sh
//! # Full reproduction (~1/1000 of the real namespace, 550 daily sweeps;
//! # takes a few minutes and ~1 GiB RAM):
//! cargo run --release -p dps-bench --bin experiments -- all
//!
//! # Faster: sweep every 2nd day at half scale.
//! cargo run --release -p dps-bench --bin experiments -- --scale 0.5 --stride 2 all
//!
//! # One experiment:
//! cargo run --release -p dps-bench --bin experiments -- fig5
//! ```

use dps_bench::experiments::{experiment_ids, run, Context, ExperimentConfig};

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--scale X] [--days N] [--cc-start N] [--stride N] [--seed N] [--out DIR] [--store DIR] <id>...\n\
         ids: {}",
        experiment_ids().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ExperimentConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--scale" => config.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--days" => config.days = value("--days").parse().unwrap_or_else(|_| usage()),
            "--cc-start" => {
                config.cc_start = value("--cc-start").parse().unwrap_or_else(|_| usage())
            }
            "--stride" => config.stride = value("--stride").parse().unwrap_or_else(|_| usage()),
            "--seed" => config.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => config.out_dir = value("--out").into(),
            "--store" => config.store_dir = Some(value("--store").into()),
            "--quick" => {
                let out = config.out_dir.clone();
                config = ExperimentConfig::quick();
                config.out_dir = out;
            }
            "-h" | "--help" => usage(),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            _ => usage(),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if config.cc_start >= config.days {
        config.cc_start = config.days * 2 / 3;
    }

    eprintln!(
        "building context: scale {}, {} days (stride {}), cc from day {}",
        config.scale, config.days, config.stride, config.cc_start
    );
    let ctx = Context::build(config).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(1);
    });
    for id in ids {
        match run(&ctx, &id) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("unknown experiment {id:?}");
                usage()
            }
        }
    }
}
