//! Wire-day cost: one cold day of the perfbench `wire` scenario resolved
//! through one caching [`Recursor`] against the world's [`DayAuthority`]
//! (the servers `measure --chaos` binds), and the exchange broken into
//! stages over that day's recorded traffic.
//!
//! Over day 0 of seed 1 at scale 0.02 (every due source, under
//! `degrade@0..inf@loss=0.02`, resolved by `sweep_supervised` exactly as a
//! wire day does) it records:
//! - the day's names per second and packets per name, a fresh network
//!   and recursor per repetition;
//! - ns per call of the authority handler over every query the day
//!   delivered to a server, and of `Message::parse` over every response;
//! - ns per exchange of netsim alone: each of those queries sent through
//!   one socket under the day's faults to a service answering with a
//!   copy of a recorded response, and received;
//! - ns per call of answer-cache `insert` and `get` over every
//!   `(name, type)` the day resolved, with its resolution.
//!
//! The vendored criterion stand-in has no JSON reporter, so the bench
//! writes `BENCH_wire.json` at the workspace root itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dps_authdns::resolver::{Resolution, ResolveError, ResolverConfig};
use dps_dns::{Message, Name, RrType};
use dps_ecosystem::{servers, DayAuthority, ScenarioParams, World};
use dps_measure::observation::entry_code;
use dps_measure::pipeline::{due_sources_for, source_entries};
use dps_measure::{
    sweep_supervised, PathTelemetry, QueryPath, StudyConfig, SupervisorConfig, SweepMetrics,
};
use dps_netsim::{ChaosSchedule, Network};
use dps_recursor::{AnswerCache, CacheConfig, Recursor, RecursorConfig};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SEED: u64 = 1;
const SCALE: f64 = 0.02;
const CHAOS: &str = "degrade@0..inf@loss=0.02";
/// Timed repetitions per stage; the median is recorded.
const REPS: usize = 9;

/// Median wall time of `REPS` runs of `f`, in seconds, after one warm-up.
fn median_s(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[REPS / 2]
}

/// One stage's JSON object: nanoseconds per call over `calls` calls.
fn stage(secs: f64, calls: usize) -> String {
    format!(
        "{{ \"calls\": {calls}, \"ns_per_call\": {:.1} }}",
        secs * 1e9 / calls.max(1) as f64
    )
}

/// Day 0's jobs per due source, in due order, as a wire day builds them.
fn day_jobs(
    world: &World,
    authority: &DayAuthority,
) -> Vec<(dps_measure::Source, Vec<(Name, u32)>)> {
    let config = StudyConfig {
        days: 3,
        cc_start_day: 2,
        stride: 1,
    };
    due_sources_for(&config, 0)
        .into_iter()
        .map(|source| {
            let jobs = source_entries(world, source)
                .iter()
                .map(|&entry| (authority.entry_name(entry), entry_code(entry)))
                .collect();
            (source, jobs)
        })
        .collect()
}

/// The recursor as a wire day drives it, recording (when `asked` is
/// `Some`) every question it is asked and what it answered.
struct Recording<'r> {
    recursor: &'r mut Recursor,
    asked: Option<Vec<(Name, RrType, Resolution)>>,
}

impl QueryPath for Recording<'_> {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let out = QueryPath::query(&mut *self.recursor, qname, qtype);
        if let (Some(asked), Ok(res)) = (&mut self.asked, &out) {
            asked.push((qname.clone(), qtype, res.clone()));
        }
        out
    }

    fn pause_us(&mut self, dt_us: u64) {
        self.recursor.pause_us(dt_us);
    }

    fn telemetry(&self) -> PathTelemetry {
        self.recursor.telemetry()
    }

    fn now_us(&self) -> u64 {
        QueryPath::now_us(&*self.recursor)
    }
}

/// One delivered query: `(server index, query bytes, response bytes)`.
type Exchange = (usize, Vec<u8>, Option<Vec<u8>>);

/// What one wire day sent: the names swept and the packets it took.
struct Day {
    names: usize,
    packets: u64,
    /// Every query a server received, in delivery order.
    exchanges: Vec<Exchange>,
    asked: Vec<(Name, RrType, Resolution)>,
}

/// Runs day 0 through one fresh recursor. With `record`, every query a
/// server receives goes through a recording wrapper of its handler.
fn run_day(
    world: &World,
    authority: &Arc<DayAuthority>,
    jobs: &[(dps_measure::Source, Vec<(Name, u32)>)],
    record: bool,
) -> Day {
    let net = Network::new(SEED);
    net.set_chaos(ChaosSchedule::parse(CHAOS).expect("spec"));
    let root_hints = authority.bind(&net);
    let log: Arc<Mutex<Vec<Exchange>>> = Arc::default();
    if record {
        for (i, (addr, server)) in servers().into_iter().enumerate() {
            let inner = authority.handler(server);
            let log = Arc::clone(&log);
            net.bind_service(
                addr,
                Arc::new(move |src: IpAddr, payload: &[u8]| {
                    let resp = inner(src, payload);
                    log.lock()
                        .expect("log")
                        .push((i, payload.to_vec(), resp.clone()));
                    resp
                }),
            );
        }
    }
    let mut recursor = Recursor::new(
        &net,
        IpAddr::V4(Ipv4Addr::new(172, 16, 0, 53)),
        0,
        root_hints,
        RecursorConfig {
            resolver: ResolverConfig::resilient(),
            ..Default::default()
        },
    );
    let mut path = Recording {
        recursor: &mut recursor,
        asked: record.then(Vec::new),
    };
    let pfx2as = world.pfx2as();
    let mut names = 0;
    for (source, jobs) in jobs {
        let swept = sweep_supervised(
            &mut path,
            jobs,
            &pfx2as,
            0,
            *source,
            &SupervisorConfig::default(),
            &SweepMetrics::default(),
        );
        names += swept.rows.len();
    }
    let asked = path.asked.take().unwrap_or_default();
    let exchanges = std::mem::take(&mut *log.lock().expect("log"));
    Day {
        names,
        packets: net.stats().snapshot().sent,
        exchanges,
        asked,
    }
}

fn bench(c: &mut Criterion) {
    let world = World::imc2016(ScenarioParams {
        seed: SEED,
        scale: SCALE,
        gtld_days: 3,
        cc_start_day: 2,
    });
    let authority = world.authority();
    let jobs = day_jobs(&world, &authority);

    // The day's traffic, recorded once (the recording wrapper changes no
    // packet: it returns what the handler returned).
    let recorded = run_day(&world, &authority, &jobs, true);
    let names = recorded.names;
    let packets = recorded.packets;

    let day = median_s(|| {
        black_box(run_day(&world, &authority, &jobs, false).names);
    });

    let handlers: Vec<_> = servers()
        .into_iter()
        .map(|(_, server)| authority.handler(server))
        .collect();
    let src = IpAddr::V4(Ipv4Addr::new(172, 16, 0, 53));
    let handle = median_s(|| {
        for (i, query, _) in &recorded.exchanges {
            black_box(handlers[*i](src, query));
        }
    });
    let responses: Vec<&[u8]> = recorded
        .exchanges
        .iter()
        .filter_map(|(_, _, resp)| resp.as_deref())
        .collect();
    let parse = median_s(|| {
        for resp in &responses {
            black_box(Message::parse(resp).is_ok());
        }
    });

    // netsim alone: every recorded query through one socket under the
    // day's fault schedule, to a service that answers with a copy of a
    // recorded response, then received (or timed out).
    let echo = responses.first().map_or_else(Vec::new, |r| r.to_vec());
    let dst = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1));
    let netsim = median_s(|| {
        let net = Network::new(SEED);
        net.set_chaos(ChaosSchedule::parse(CHAOS).expect("spec"));
        let reply = echo.clone();
        net.bind_service(dst, Arc::new(move |_, _| Some(reply.clone())));
        let mut socket = net.socket(src, 0);
        for (_, query, _) in &recorded.exchanges {
            socket.send_to(dst, query);
            black_box(socket.recv(500_000).is_ok());
            socket.drain();
        }
    });

    let asked = &recorded.asked;
    let filled = |cache: &mut AnswerCache| {
        for (qname, qtype, res) in asked {
            cache.insert(qname, *qtype, res.clone(), 3_600, false, 0);
        }
    };
    let insert = median_s(|| {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        filled(&mut cache);
        black_box(cache.len());
    });
    // `insert` above includes the clone of each resolution it stores;
    // time the clones alone so the stage can be read without them.
    let clone = median_s(|| {
        for (_, _, res) in asked {
            black_box(res.clone());
        }
    });
    let mut cache = AnswerCache::new(&CacheConfig::default());
    filled(&mut cache);
    let get = median_s(|| {
        for (qname, qtype, _) in asked {
            black_box(cache.get(qname, *qtype, 1).is_some());
        }
    });

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"bench\": \"wire\",\n  \"host\": {{ \"cpus\": {host_cpus}, \"mem_mib\": {mem} }},\n  \
         \"scenario\": {{ \"seed\": {SEED}, \"scale\": {SCALE}, \"day\": 0, \"chaos\": \"{CHAOS}\", \
         \"names\": {names}, \"exchanges\": {n_exchanges}, \"resolves\": {n_asked} }},\n  \
         \"metrics\": {{ \"day_ms\": {day_ms:.2}, \"names_per_s\": {rate:.0}, \
         \"packets_per_name\": {ppn:.3} }},\n  \
         \"stages\": {{\n    \"authority_handler\": {handle},\n    \"response_parse\": {parse},\n    \
         \"netsim_exchange\": {netsim},\n    \
         \"cache_insert\": {insert},\n    \"resolution_clone\": {clone},\n    \
         \"cache_get\": {get}\n  }}\n}}\n",
        mem = dps_bench::host_mem_mib(),
        n_exchanges = recorded.exchanges.len(),
        n_asked = asked.len(),
        day_ms = day * 1e3,
        rate = names as f64 / day,
        ppn = packets as f64 / names as f64,
        handle = stage(handle, recorded.exchanges.len()),
        parse = stage(parse, responses.len()),
        netsim = stage(netsim, recorded.exchanges.len()),
        insert = stage(insert, asked.len()),
        clone = stage(clone, asked.len()),
        get = stage(get, asked.len()),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wire.json");
    std::fs::write(&out, &json).expect("write BENCH_wire.json");
    print!("{json}");
    println!("-> {}", out.display());

    let mut group = c.benchmark_group("recursor");
    group.sample_size(10);
    group.throughput(Throughput::Elements(names as u64));
    group.bench_function("cold_day", |b| {
        b.iter(|| black_box(run_day(&world, &authority, &jobs, false).packets))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
