//! Cluster sweep throughput and protocol overhead.
//!
//! Times the same fixed-seed study three ways: the single-process
//! `Study::run_archived`, and manager+worker cluster runs over the
//! in-process loopback transport at 1, 2 and 4 workers. The 1-worker
//! cluster run performs exactly the single-process work plus every
//! protocol cost (framing, leasing, heartbeats, merge), so its slowdown
//! against the direct run *is* the protocol overhead — the budget is 5%.
//!
//! Both sides build the manager's world before the clock starts, so the
//! timed interval is the sweep itself. The agents still rebuild their
//! world from the manager's `Welcome` inside the timed interval: that
//! rebuild is part of what a cluster run costs over a direct one, and
//! `agent_world_ms` records what an agent's world work (build, advance
//! through every day, list the entries) costs on its own.
//!
//! Interpreting the number: the manager decodes results on a reader
//! thread, so with ≥2 CPUs the decode overlaps the worker's next sweep
//! (lease pipelining keeps that sweep queued). On a single-CPU host
//! nothing overlaps and every protocol byte lands on the critical path;
//! `host.cpus` in the JSON records which regime was measured.
//!
//! The vendored criterion stand-in has no JSON reporter, so this bench
//! writes `BENCH_cluster.json` at the workspace root itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_cluster::manager::{serve, ClusterConfig};
use dps_cluster::transport::{loopback_conn, Conn};
use dps_cluster::worker::{run_agent, WorkerOptions};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{due_sources_for, source_entries, Study, StudyConfig};
use dps_netsim::Day;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SEED: u64 = 2016;
const SCALE: f64 = 0.01;
const DAYS: u32 = 3;
const CC_START: u32 = 2;
const SAMPLES: usize = 15;

fn params() -> ScenarioParams {
    ScenarioParams {
        seed: SEED,
        scale: SCALE,
        gtld_days: DAYS,
        cc_start_day: CC_START,
    }
}

fn temp_path(tag: &str, sample: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "dps-bench-cluster-{tag}-{}-{sample}.dps",
        std::process::id()
    ))
}

fn study_config() -> StudyConfig {
    StudyConfig {
        days: DAYS,
        cc_start_day: CC_START,
        stride: 1,
    }
}

fn study() -> Study<'static> {
    Study::new(study_config())
}

/// One single-process archived study; returns wall seconds.
fn run_single(sample: usize) -> f64 {
    let path = temp_path("single", sample);
    std::fs::remove_file(&path).ok();
    let mut world = World::imc2016(params());
    let start = Instant::now();
    study()
        .run_archived(&mut world, &path, None)
        .expect("archived study");
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    secs
}

/// One cluster run with `workers` loopback agents; returns wall seconds
/// and the total rows accepted.
fn run_cluster(workers: usize, sample: usize) -> (f64, u64) {
    let path = temp_path(&format!("w{workers}"), sample);
    std::fs::remove_file(&path).ok();
    let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
    let mut agents = Vec::new();
    let mut world = World::imc2016(params());
    let start = Instant::now();
    for i in 0..workers {
        // Read timeout > heartbeat interval: the liveness contract.
        let (server_end, worker_end) = loopback_conn(Duration::from_millis(250));
        conn_tx.send(server_end).expect("queue conn");
        let opts = WorkerOptions {
            name: format!("bench-{i}"),
            ..WorkerOptions::default()
        };
        agents.push(std::thread::spawn(move || run_agent(worker_end, opts)));
    }
    drop(conn_tx);
    let report = serve(
        conn_rx,
        ClusterConfig::default(),
        study(),
        &mut world,
        &path,
        None,
    )
    .expect("cluster sweep");
    for agent in agents {
        agent.join().expect("agent thread").expect("agent run");
    }
    let secs = start.elapsed().as_secs_f64();
    let rows: u64 = report.accepted.iter().map(|r| u64::from(r.rows)).sum();
    std::fs::remove_file(&path).ok();
    (secs, rows)
}

/// The world work an agent repeats besides its sweep: build the world
/// from the `Welcome`, then advance it through every day and list each
/// due source's entries; returns wall seconds.
fn run_agent_world() -> f64 {
    let start = Instant::now();
    let mut world = World::imc2016(params());
    for day in 0..DAYS {
        world.advance_to(Day(day));
        for source in due_sources_for(&study_config(), day) {
            black_box(source_entries(&world, source));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Noise filter: the minimum over samples. The bench host is shared and
/// single-core, so wall times carry large additive interference; the
/// minimum is the closest observation to the true cost of the work.
fn minimum(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn bench(c: &mut Criterion) {
    // Warm-up: populate allocator arenas and fault in the world build.
    run_single(usize::MAX);

    // Interleave scenarios round-robin so slow periods on the shared
    // host hit every scenario alike instead of biasing one.
    let mut single_walls = Vec::new();
    let mut world_walls = Vec::new();
    let mut cluster_walls = [const { Vec::new() }; 3];
    let mut cluster_rows = [0u64; 3];
    for sample in 0..SAMPLES {
        single_walls.push(run_single(sample));
        world_walls.push(run_agent_world());
        for (slot, workers) in [1usize, 2, 4].into_iter().enumerate() {
            let (secs, r) = run_cluster(workers, sample);
            cluster_walls[slot].push(secs);
            cluster_rows[slot] = r;
        }
    }
    let single_s = minimum(single_walls);
    let world_s = minimum(world_walls);
    let per_workers: Vec<(usize, f64, u64)> = [1usize, 2, 4]
        .into_iter()
        .zip(cluster_walls)
        .zip(cluster_rows)
        .map(|((workers, walls), rows)| (workers, minimum(walls), rows))
        .collect();

    let overhead_pct = per_workers
        .first()
        .map(|&(_, w1, _)| (w1 / single_s - 1.0) * 100.0)
        .unwrap_or(0.0);

    let mut workers_json = String::new();
    for (i, &(workers, wall, rows)) in per_workers.iter().enumerate() {
        let sep = if i + 1 < per_workers.len() { "," } else { "" };
        let _ = write!(
            workers_json,
            "\n    \"{workers}\": {{ \"wall_ms\": {:.1}, \"per_day_ms\": {:.1}, \
             \"rows_per_sec\": {:.0} }}{sep}",
            wall * 1e3,
            wall * 1e3 / f64::from(DAYS),
            rows as f64 / wall,
        );
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"scenario\": {{ \"seed\": {SEED}, \"scale\": {SCALE}, \"days\": {DAYS} }},\n  \
         \"host\": {{ \"cpus\": {host_cpus}, \"mem_mib\": {} }},\n  \
         \"single_process\": {{ \"wall_ms\": {:.1}, \"per_day_ms\": {:.1} }},\n  \
         \"workers\": {{{workers_json}\n  }},\n  \
         \"agent_world_ms\": {:.1},\n  \
         \"protocol_overhead_pct_1w\": {overhead_pct:.2},\n  \
         \"protocol_overhead_budget_pct\": 5.0\n}}\n",
        dps_bench::host_mem_mib(),
        single_s * 1e3,
        single_s * 1e3 / f64::from(DAYS),
        world_s * 1e3,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    std::fs::write(&out, &json).expect("write BENCH_cluster.json");
    println!(
        "cluster: single {:.1} ms/day; 1w overhead {overhead_pct:+.2}% (budget 5%) -> {}",
        single_s * 1e3 / f64::from(DAYS),
        out.display()
    );
    for &(workers, wall, rows) in &per_workers {
        println!(
            "  {workers} worker(s): {:.1} ms wall, {:.0} rows/s",
            wall * 1e3,
            rows as f64 / wall
        );
    }

    // The same sweeps through criterion, for the standard report.
    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    group.bench_function("single_process", |b| {
        b.iter(|| black_box(run_single(usize::MAX - 1)))
    });
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("loopback_{workers}w"), |b| {
            b.iter(|| black_box(run_cluster(workers, usize::MAX - 1)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
