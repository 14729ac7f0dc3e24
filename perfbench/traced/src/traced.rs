//! The traced copies of the CLI. Each function copies what one `dpscope` command
//! does, step for step, with a span around each call into a layer. The
//! run's data pages and analysis output are compared with the untraced
//! command's, so a copy that drifts from the CLI fails instead of
//! measuring some other program.

use crate::mix::{load_zones, Mix};
use crate::spans::{ns_since, Tracer};
use crate::{io, Args};
use dps_bench::experiments::{experiment_ids, run, Context, ExperimentConfig};
use dps_scope::authdns::{AuthServer, HealthConfig, HealthTracker, Resolver, ResolverConfig};
use dps_scope::columnar::mapreduce::{default_workers, par_map};
use dps_scope::columnar::TableBuilder;
use dps_scope::ecosystem::ZoneEntry;
use dps_scope::measure::collector::{collect_raw, BulkPath, RawRow, SldInterner, WirePath};
use dps_scope::measure::observation::{entry_code, schema};
use dps_scope::measure::pipeline::sweep_with_path_supervised_metered;
use dps_scope::measure::snapshot::UNIQUE_KEY_COLUMN;
use dps_scope::measure::{
    day_committed, due_sources_for, encode_qualities, encode_telemetry, resume_store, CauseCounts,
    DayObserver, DayQuality, SourcePage, SupervisorConfig, SweepMetrics, ANALYSIS_SOURCE,
    ARCHIVE_FILE, QUALITY_SOURCE, SOURCES, STREAM_BLOCK_ENTRIES, TELEMETRY_SOURCE,
};
use dps_scope::netsim::RibHistory;
use dps_scope::prelude::*;
use dps_scope::serve::{Frontend, FrontendConfig, RrlConfig, Transport};
use dps_scope::telemetry::Registry;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn scenario(args: &Args) -> Result<ScenarioParams, String> {
    Ok(ScenarioParams {
        seed: args.num("seed")?,
        scale: args.num("scale")?,
        gtld_days: args.num("days")?,
        cc_start_day: args.num("cc-start")?,
    })
}

/// Peak resident set size of this process so far, in KiB.
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// `dpscope measure --stream --shards N`: `Study::run_archived_observed`
/// with a `StreamEngine`, on a fresh archive. Prints a JSON line with the
/// counts the spans cannot give.
pub fn sweep(args: &Args) -> Result<(), String> {
    let params = scenario(args)?;
    let shards: u32 = args.num("shards")?;
    let dir = PathBuf::from(args.str("archive")?);
    let started = Instant::now();
    let mut tr = Tracer::new();
    let mut world = tr.time("ecosystem.world_build", 0, || World::imc2016(params));
    io(std::fs::create_dir_all(&dir))?;
    let path = dir.join(ARCHIVE_FILE);
    let config = StudyConfig {
        days: params.gtld_days,
        cc_start_day: params.cc_start_day,
        stride: 1,
    };
    let mut writer = io(StoreWriter::resume_or_create(
        &path,
        shards,
        Some(UNIQUE_KEY_COLUMN),
    ))?;
    let mut store = SnapshotStore::new();
    let mut engine = StreamEngine::new();
    let mut interner = SldInterner::new();
    let mut history = RibHistory::new();
    let registry = Registry::new();
    let days_counter = registry.counter("measure.days");
    let rows_counter = registry.counter("measure.rows");
    let points_counter = registry.counter("measure.data.points");
    let workers = default_workers().max(1);
    let mut hwm_kib = Vec::new();
    for day in 0..config.days {
        let id = u64::from(day);
        let day_span = tr.enter("measure.day", id);
        tr.time("ecosystem.advance", id, || {
            world.advance_to(Day(day));
            history.record(Day(day), world.pfx2as());
        });
        let before = registry.snapshot();
        let pfx2as = tr.time("ecosystem.advance", id, || world.pfx2as());
        days_counter.inc();
        let mut pages = Vec::new();
        for source in due_sources_for(&config, day) {
            let entries = tr.time("ecosystem.advance", id, || match source.tld() {
                Some(tld) => world.zone_entries(tld),
                None => world.alexa_entries(),
            });
            let mut builder = TableBuilder::new(schema());
            let mut data_points = 0u64;
            let mut attempted = 0u32;
            let mut failed = 0u32;
            let mut causes = CauseCounts::default();
            for block in entries.chunks(STREAM_BLOCK_ENTRIES) {
                let chunk = block.len().div_ceil(workers).max(1);
                let chunks: Vec<&[ZoneEntry]> = block.chunks(chunk).collect();
                let fan_out = tr.enter("measure.collect_wall", id);
                let epoch = tr.epoch();
                let world_ref = &world;
                let raw_chunks: Vec<(Vec<RawRow>, (u64, u64))> = par_map(&chunks, |batch| {
                    let start = ns_since(epoch);
                    let mut path = BulkPath::new(world_ref);
                    let rows = batch
                        .iter()
                        .map(|&entry| {
                            let apex = world_ref.entry_name(entry);
                            collect_raw(&mut path, &apex, entry_code(entry), &pfx2as)
                        })
                        .collect();
                    (rows, (start, ns_since(epoch)))
                });
                tr.exit(fan_out);
                for (worker, (_, busy)) in raw_chunks.iter().enumerate() {
                    tr.record(fan_out, "measure.collect", id, 1 + worker as u32, *busy);
                }
                let intern = tr.enter("measure.intern", id);
                for raw in raw_chunks.into_iter().flat_map(|(rows, _)| rows) {
                    attempted += 1;
                    failed += u32::from(raw.failed && raw.retryable);
                    causes.merge(&raw.causes);
                    let row = raw.intern(&mut store.dict, &mut interner);
                    data_points += u64::from(row.data_points);
                    builder.push_row(&row.pack(day, source));
                }
                tr.exit(intern);
            }
            let mut quality = DayQuality::perfect(day, source, attempted, failed);
            quality.causes = causes;
            rows_counter.add(u64::from(attempted));
            points_counter.add(data_points);
            let table = tr.time("columnar.encode", id, || builder.finish());
            pages.push(SourcePage {
                source,
                table,
                data_points,
                quality,
            });
        }
        let mut telemetry = registry.snapshot().since(&before);
        let (analysis, counters) = io(tr.time("stream.on_day", id, || {
            engine.on_day(day, &pages, &store.dict)
        }))?;
        for (name, v) in counters {
            *telemetry.counters.entry(name).or_insert(0) += v;
        }
        let mut day_qualities = Vec::new();
        for page in pages {
            io(tr.time("store.append", id, || {
                writer.append_table(
                    day,
                    page.source.index() as u8,
                    &page.table,
                    page.data_points,
                )
            }))?;
            tr.time("measure.mirror", id, || {
                store.add_table(day, page.source, &page.table, page.data_points);
                store.add_quality(page.quality);
            });
            day_qualities.push(page.quality);
        }
        io(tr.time("store.append", id, || {
            writer.append_table(day, QUALITY_SOURCE, &encode_qualities(&day_qualities), 0)?;
            writer.append_table(day, TELEMETRY_SOURCE, &encode_telemetry(&telemetry), 0)
        }))?;
        tr.time("measure.mirror", id, || store.add_telemetry(day, telemetry));
        io(tr.time("store.append", id, || {
            writer.append_table(day, ANALYSIS_SOURCE, &analysis, 0)
        }))?;
        tr.time("measure.mirror", id, || {
            store.add_analysis(day, analysis.to_bytes())
        });
        io(tr.time("store.commit", id, || writer.commit(&store.dict)))?;
        tr.exit(day_span);
        hwm_kib.push(vm_hwm_kib().to_string());
    }
    let wall = started.elapsed().as_secs_f64();
    io(tr.write(Path::new(args.str("spans")?)))?;
    println!(
        "{{\"wall_s\": {wall}, \"dict_strings\": {}, \"mirror_bytes\": {}, \"hwm_kib\": [{}]}}",
        store.dict.len(),
        store.total_stored_bytes(),
        hwm_kib.join(", ")
    );
    Ok(())
}

/// `dpscope analyze all` over a complete single-file archive:
/// `Context::build` (world, `Study::run_archived` on a finished archive,
/// scan) and every experiment. Then, outside the copied part, it opens
/// the archive cold and reads every page and runs a cold store scan.
pub fn analyze(args: &Args) -> Result<(), String> {
    let params = scenario(args)?;
    let dir = PathBuf::from(args.str("archive")?);
    let out_dir = PathBuf::from(args.str("out")?);
    let path = dir.join(ARCHIVE_FILE);
    let started = Instant::now();
    let mut tr = Tracer::new();
    let mut world = tr.time("ecosystem.world_build", 0, || World::imc2016(params));
    let config = StudyConfig {
        days: params.gtld_days,
        cc_start_day: params.cc_start_day,
        stride: 1,
    };
    let writer = io(tr.time("store.resume", 0, || {
        StoreWriter::resume_or_create(&path, 1, Some(UNIQUE_KEY_COLUMN))
    }))?;
    let mut store = SnapshotStore::new();
    io(tr.time("measure.rehydrate", 0, || {
        resume_store(&mut store, &writer, &path)
    }))?;
    let mut history = RibHistory::new();
    for day in 0..config.days {
        tr.time("ecosystem.advance", u64::from(day), || {
            world.advance_to(Day(day));
            history.record(Day(day), world.pfx2as());
        });
        if !day_committed(&writer, &config, day) {
            return Err(format!(
                "archive lacks day {day}; build it with the same scenario"
            ));
        }
    }
    drop(writer);
    let (refs, scan) = tr.time("core.classify", 0, || {
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let scan = Scanner::new(&refs).run(&store);
        (refs, scan)
    });
    io(std::fs::create_dir_all(&out_dir))?;
    let ctx = Context {
        config: ExperimentConfig {
            seed: params.seed,
            scale: params.scale,
            days: params.gtld_days,
            cc_start: params.cc_start_day,
            stride: 1,
            out_dir,
            store_dir: Some(dir),
        },
        world,
        store,
        refs,
        scan,
    };
    let mut text = String::new();
    for id in experiment_ids().into_iter().filter(|&id| id != "all") {
        let name: &'static str = Box::leak(format!("core.exp.{id}").into_boxed_str());
        let out = tr
            .time(name, 0, || run(&ctx, id))
            .ok_or_else(|| format!("unknown experiment {id}"))?;
        text.push_str(&out);
        text.push('\n');
    }
    let wall = started.elapsed().as_secs_f64();
    io(std::fs::write(args.str("text")?, &text))?;

    let reader = io(tr.time("store.open", 0, || {
        StoreReader::open_auto_with_cache(&path, 0)
    }))?;
    let (mut pages, mut bytes, mut rows) = (0u64, 0u64, 0u64);
    let load = tr.enter("store.page_load", 0);
    for (&(day, source), meta) in &reader.catalog().pages {
        io(reader.table(day, source))?;
        pages += 1;
        bytes += meta.len;
        if usize::from(source) < SOURCES.len() {
            rows += meta.rows;
        }
    }
    tr.exit(load);
    let cold = io(StoreReader::open_auto_with_cache(&path, 0))?;
    let scan_start = Instant::now();
    let cold_scan = io(tr.time("core.scan_store", 0, || {
        Scanner::new(&ctx.refs).run_store(&cold)
    }))?;
    let scan_s = scan_start.elapsed().as_secs_f64();
    let series_equal = format!("{:?}", cold_scan.series) == format!("{:?}", ctx.scan.series);
    io(tr.write(Path::new(args.str("spans")?)))?;
    println!(
        "{{\"wall_s\": {wall}, \"pages_decoded\": {pages}, \"bytes_read\": {bytes}, \
         \"rows\": {rows}, \"scan_s\": {scan_s}, \"series_equal\": {series_equal}}}"
    );
    Ok(())
}

/// `dpscope measure --chaos SPEC`: one fresh network per day under the
/// schedule, a supervised wire sweep of every due source, and the archive
/// saved once at the end.
pub fn wire(args: &Args) -> Result<(), String> {
    let params = scenario(args)?;
    let schedule = ChaosSchedule::parse(args.str("chaos")?).map_err(|e| e.to_string())?;
    let dir = PathBuf::from(args.str("archive")?);
    let started = Instant::now();
    let mut tr = Tracer::new();
    let mut world = tr.time("ecosystem.world_build", 0, || World::imc2016(params));
    io(std::fs::create_dir_all(&dir))?;
    let mut store = SnapshotStore::new();
    let mut interner = SldInterner::new();
    let supervisor = SupervisorConfig::default();
    let config = StudyConfig {
        days: params.gtld_days,
        cc_start_day: params.cc_start_day,
        stride: 1,
    };
    let resolver_addr = "172.16.0.53".parse().map_err(|_| "bad resolver address")?;
    for day in 0..config.days {
        let id = u64::from(day);
        let day_span = tr.enter("measure.day", id);
        tr.time("ecosystem.advance", id, || world.advance_to(Day(day)));
        let registry = Registry::new();
        let net = Network::with_telemetry(params.seed.wrapping_add(id), &registry);
        net.set_chaos(schedule.clone());
        let catalog = tr.time("ecosystem.materialize", id, || world.materialize(&net));
        let health =
            Arc::new(HealthTracker::new(HealthConfig::default()).with_telemetry(&registry));
        let resolver = Resolver::new(&net, resolver_addr, id, catalog.root_hints())
            .with_config(ResolverConfig::resilient())
            .with_health(health);
        let mut wire = WirePath::new(resolver);
        let metrics = SweepMetrics::new(&registry);
        for source in due_sources_for(&config, day) {
            tr.time("measure.wire_sweep", id, || {
                sweep_with_path_supervised_metered(
                    &world,
                    &mut wire,
                    source,
                    day,
                    &mut store,
                    &mut interner,
                    &supervisor,
                    &metrics,
                )
            });
        }
        store.add_telemetry(day, registry.snapshot());
        tr.exit(day_span);
    }
    io(tr.time("store.save", 0, || {
        store.save_archive(&dir.join(ARCHIVE_FILE))
    }))?;
    let wall = started.elapsed().as_secs_f64();
    io(tr.write(Path::new(args.str("spans")?)))?;
    println!("{{\"wall_s\": {wall}}}");
    Ok(())
}

/// The serve layers in process over the load generator's query mix: one
/// untimed pass through `Frontend::handle`, one with a span per call,
/// then `Message::parse`, `AuthServer::answer` and `Message::to_bytes`
/// each with a span per call.
pub fn serve(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed")?;
    let n: u64 = args.num("queries")?;
    let auth = AuthServer::new();
    let names = load_zones(Path::new(args.str("zones")?), &auth)?;
    let mix = Mix::new(seed, names)?;
    let queries: Vec<_> = (0..n).map(|k| mix.query(k)).collect();
    let config = FrontendConfig {
        rrl: RrlConfig {
            rate: 0,
            ..RrlConfig::default()
        },
        ..FrontendConfig::default()
    };
    let frontend = Frontend::new(Arc::clone(&auth), config, &Registry::new());
    let client = "127.1.0.1".parse().map_err(|_| "bad client address")?;

    let start = Instant::now();
    for q in &queries {
        black_box(frontend.handle(Transport::Udp, client, 0, &q.payload));
    }
    let plain_s = start.elapsed().as_secs_f64();

    let mut tr = Tracer::new();
    let start = Instant::now();
    for (k, q) in queries.iter().enumerate() {
        let decision = tr.time("serve.frontend", k as u64, || {
            frontend.handle(Transport::Udp, client, 0, &q.payload)
        });
        black_box(decision);
    }
    let traced_s = start.elapsed().as_secs_f64();

    for (k, q) in queries.iter().enumerate() {
        let id = k as u64;
        let Ok(msg) = tr.time("dns.parse", id, || Message::parse(&q.payload)) else {
            continue;
        };
        if let Some(resp) = tr.time("authdns.answer", id, || auth.answer(&msg)) {
            black_box(tr.time("dns.encode", id, || resp.to_bytes()).ok());
        }
    }
    io(tr.write(Path::new(args.str("spans")?)))?;
    println!("{{\"plain_s\": {plain_s}, \"traced_s\": {traced_s}}}");
    Ok(())
}
