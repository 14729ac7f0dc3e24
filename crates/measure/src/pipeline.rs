//! The study driver: sweeps every due source every day and fills the
//! snapshot store (cluster manager + worker cloud of paper Fig. 1).
//!
//! On multi-core machines the per-day sweep fans the input list out over a
//! crossbeam worker cloud; collected rows are merged and dictionary-encoded
//! by the manager thread, mirroring the collection/aggregation split of the
//! real system.

use crate::collector::{collect_raw, BulkPath, QueryPath, RawRow, SldInterner, WirePath};
use crate::observation::{entry_code, schema, Source};
use crate::quality::{decode_qualities, encode_qualities, CauseCounts, DayQuality, QUALITY_SOURCE};
use crate::snapshot::{SnapshotStore, UNIQUE_KEY_COLUMN};
use crate::supervisor::{sweep_supervised, SupervisorConfig, SweepMetrics};
use crate::telemetry::{decode_telemetry, encode_telemetry, TELEMETRY_SOURCE};
use dps_authdns::{HealthConfig, HealthTracker, Resolver, ResolverConfig};
use dps_columnar::{StringDict, Table, TableBuilder};
use dps_ecosystem::World;
use dps_netsim::{ChaosSchedule, Day, Network, Pfx2As, RibHistory};
use dps_store::{StoreReader, StoreWriter};
use dps_telemetry::{Counter, Registry, Snapshot};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Study configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Total days to measure (gTLD window).
    pub days: u32,
    /// First day the .nl and Alexa sources are measured.
    pub cc_start_day: u32,
    /// Measure only every `stride`-th day (1 = daily, the paper's cadence;
    /// larger strides cut experiment wall-clock while preserving shapes).
    pub stride: u32,
}

impl StudyConfig {
    /// Daily measurement matching `world` parameters.
    pub fn for_world(world: &World) -> Self {
        Self {
            days: world.params.gtld_days,
            cc_start_day: world.params.cc_start_day,
            stride: 1,
        }
    }
}

/// Archive source id reserved for streaming-analysis checkpoint pages
/// (`dps-stream`). Data sources occupy 0..=4, quality pages 5 and
/// telemetry pages 6; 7 keeps checkpoint pages last within each day in
/// the catalog's `(day, source)` order.
pub const ANALYSIS_SOURCE: u8 = 7;

/// A hook on the day-commit path: an incremental analysis engine that
/// consumes each finished day *as it is committed* and emits one
/// checkpoint page per day so a resumed run replays — rather than
/// recomputes — analysis state.
///
/// Both the single-process [`Study::run_archived`] and the
/// cluster manager funnel every committed day through the same
/// implementation, which is what keeps incremental analysis
/// worker-count-independent: the observer only ever sees the already
/// deterministically-merged day pages.
pub trait DayObserver {
    /// Called once per freshly measured day, after all of the day's rows
    /// have been interned into `dict` but before the commit. Returns the
    /// checkpoint table to persist under [`ANALYSIS_SOURCE`] plus
    /// telemetry counter deltas to fold into the day's telemetry page.
    fn on_day(
        &mut self,
        day: u32,
        pages: &[SourcePage],
        dict: &StringDict,
    ) -> std::io::Result<(Table, Vec<(&'static str, u64)>)>;

    /// Called once per already-committed day during resume, in day
    /// order, with the day's persisted checkpoint table. Must replay the
    /// engine to the exact state [`on_day`](Self::on_day) left it in.
    fn on_resume(&mut self, day: u32, table: &Table) -> std::io::Result<()>;
}

/// The measurement calendar: which sources are due on `day` under
/// `config`. Free function so out-of-process drivers (the cluster
/// manager) shard the exact same calendar [`Study`] sweeps.
pub fn due_sources_for(config: &StudyConfig, day: u32) -> Vec<Source> {
    let mut v = vec![Source::Com, Source::Net, Source::Org];
    if day >= config.cc_start_day {
        v.push(Source::Nl);
        v.push(Source::Alexa);
    }
    v
}

/// One finished (day, source) sweep: the encoded table plus its quality
/// record, ready to append to an archive in calendar order.
pub struct SourcePage {
    /// The source this page belongs to.
    pub source: Source,
    /// Dictionary-encoded observation rows.
    pub table: Table,
    /// Exact data-point count for the page (Table 1 accounting).
    pub data_points: u64,
    /// The day's coverage/failure record for this source.
    pub quality: DayQuality,
}

/// True when `day` is already durable in the archive: every due source
/// page plus the quality and telemetry pages are committed. A commit
/// happens once per day, so a day is either fully durable or (after
/// truncating a torn tail) absent entirely.
pub fn day_committed(writer: &StoreWriter, config: &StudyConfig, day: u32) -> bool {
    due_sources_for(config, day)
        .iter()
        .all(|s| writer.contains(day, s.index() as u8))
        && writer.contains(day, QUALITY_SOURCE)
        && writer.contains(day, TELEMETRY_SOURCE)
}

/// Appends one finished day to the archive and the in-memory store, then
/// commits a durable footer. This is **the** day-commit path: the
/// single-process [`Study::run_archived`] and the cluster manager both
/// funnel through it, which is what keeps a multi-worker sweep
/// byte-identical to the single-process run — pages land in the same
/// (day, source) order, followed by the same quality and telemetry
/// pages, followed by one commit against the shared dictionary.
///
/// With a streaming-analysis `observer`, the observer consumes the day's
/// pages (rows already interned) before the commit, its counter deltas
/// are folded into the day's telemetry page, and its checkpoint table is
/// persisted under [`ANALYSIS_SOURCE`] after the telemetry page — so the
/// whole day, checkpoint included, is covered by the same single durable
/// commit.
///
/// `pages` must be in [`due_sources_for`] order for the day.
pub fn append_day(
    writer: &mut StoreWriter,
    store: &mut SnapshotStore,
    day: u32,
    pages: Vec<SourcePage>,
    mut telemetry: Snapshot,
    observer: Option<&mut (dyn DayObserver + '_)>,
) -> std::io::Result<()> {
    let analysis = match observer {
        Some(obs) => {
            let (table, counters) = obs.on_day(day, &pages, &store.dict)?;
            for (name, v) in counters {
                *telemetry.counters.entry(name).or_insert(0) += v;
            }
            Some(table)
        }
        None => None,
    };
    let mut day_qualities = Vec::new();
    for page in pages {
        writer.append_table(
            day,
            page.source.index() as u8,
            &page.table,
            page.data_points,
        )?;
        store.add_table(day, page.source, &page.table, page.data_points);
        store.add_quality(page.quality);
        day_qualities.push(page.quality);
    }
    writer.append_table(day, QUALITY_SOURCE, &encode_qualities(&day_qualities), 0)?;
    writer.append_table(day, TELEMETRY_SOURCE, &encode_telemetry(&telemetry), 0)?;
    store.add_telemetry(day, telemetry);
    if let Some(table) = analysis {
        writer.append_table(day, ANALYSIS_SOURCE, &table, 0)?;
        store.add_analysis(day, table.to_bytes());
    }
    writer.commit(&store.dict)
}

/// Rehydrates a store from the committed pages of a resumed archive:
/// the dictionary continues from the last footer (interning is
/// idempotent, so ids stay identical) and committed days are reloaded
/// from the file instead of re-measured. Shared by
/// [`Study::run_archived`] and the cluster manager's resume path.
///
/// The archive reads happen inside `dps-store`, but the untrusted bytes
/// are *consumed* here — the marker makes this a taint root the call
/// graph alone cannot derive.
// dps: ingress
pub fn resume_store(
    store: &mut SnapshotStore,
    writer: &StoreWriter,
    path: &std::path::Path,
) -> std::io::Result<()> {
    store.dict = writer.dict().clone();
    if writer.is_empty() {
        return Ok(());
    }
    // Rehydrate committed days (exact data-point counts come from the
    // catalog; no re-measurement, no estimation).
    let archive = StoreReader::open_auto_with_cache(path, 0)?;
    for (&(day, source), meta) in &archive.catalog().pages {
        let table = archive.table(day, source)?.ok_or_else(|| {
            std::io::Error::other("catalog lists a page the archive cannot produce")
        })?;
        if source == ANALYSIS_SOURCE {
            store.add_analysis(day, table.to_bytes());
            continue;
        }
        if source == TELEMETRY_SOURCE {
            let snapshot = decode_telemetry(&table).ok_or_else(|| {
                std::io::Error::other("archive holds an undecodable telemetry page")
            })?;
            store.add_telemetry(day, snapshot);
            continue;
        }
        if source == QUALITY_SOURCE {
            let qualities = decode_qualities(&table).ok_or_else(|| {
                std::io::Error::other("archive holds an undecodable quality page")
            })?;
            for q in qualities {
                store.add_quality(q);
            }
            continue;
        }
        let src = Source::from_index(u32::from(source))
            .ok_or_else(|| std::io::Error::other("archive has an unknown source id"))?;
        store.add_table(day, src, &table, meta.data_points);
    }
    Ok(())
}

/// Replays the checkpoint pages [`resume_store`] rehydrated through
/// [`DayObserver::on_resume`] in day order, so the engine resumes to the
/// exact (byte-identical) state it held when each day was committed.
/// A day of `config`'s calendar committed without a checkpoint means the
/// archive was written without streaming analysis and cannot be resumed
/// with it. Shared by [`Study::run_archived`] and the cluster manager.
// dps: ingress
pub fn replay_checkpoints(
    store: &SnapshotStore,
    writer: &StoreWriter,
    config: &StudyConfig,
    observer: &mut dyn DayObserver,
) -> std::io::Result<()> {
    let mut day = 0u32;
    while day < config.days {
        if day_committed(writer, config, day) && !writer.contains(day, ANALYSIS_SOURCE) {
            return Err(std::io::Error::other(
                "archive day committed without an analysis checkpoint; \
                 re-run without --stream or start a fresh archive",
            ));
        }
        day += config.stride.max(1);
    }
    for day in store.analysis_days() {
        if let Some(bytes) = store.analysis(day) {
            let table = Table::from_bytes(bytes).map_err(std::io::Error::other)?;
            observer.on_resume(day, &table)?;
        }
    }
    Ok(())
}

/// Sweep-volume counters the study records per measured day.
struct StudyMetrics {
    days: Counter,
    rows: Counter,
    data_points: Counter,
}

impl StudyMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            days: registry.counter("measure.days"),
            rows: registry.counter("measure.rows"),
            data_points: registry.counter("measure.data.points"),
        }
    }
}

/// Streaming-generation memory contract: at most this many entries'
/// worth of raw rows are in flight per source sweep. The day's rows are
/// generated block by block and interned into the page builder as each
/// block lands, so peak raw-row memory is `O(STREAM_BLOCK_ENTRIES)`
/// regardless of scale — never a whole-day `Vec`. Interning still walks
/// entries in list order, so the produced archive is byte-identical to a
/// whole-day materialization.
pub const STREAM_BLOCK_ENTRIES: usize = 8192;

/// Drives a full study over a world: every measured day, every due
/// source, through the bulk query path or — with
/// [`with_chaos`](Self::with_chaos) — supervised over the simulated wire.
pub struct Study {
    config: StudyConfig,
    store: SnapshotStore,
    history: RibHistory,
    registry: Registry,
    metrics: StudyMetrics,
    /// Raw-row streaming block size (entries); see [`STREAM_BLOCK_ENTRIES`].
    stream_block: usize,
    /// Shard files for a freshly created archive (1 = single-file).
    shards: u32,
    /// Fault schedule of the wire path; `None` sweeps the bulk path.
    chaos: Option<ChaosSchedule>,
    /// Receives each freshly committed day's quality records.
    on_commit: Option<CommitHook>,
}

/// The progress hook [`Study::on_commit`] installs.
type CommitHook = Box<dyn FnMut(u32, &[DayQuality])>;

impl Study {
    /// A study with an empty store and a private telemetry registry
    /// (per-day deltas land in the store as telemetry pages).
    pub fn new(config: StudyConfig) -> Self {
        let registry = Registry::new();
        let metrics = StudyMetrics::new(&registry);
        Self {
            config,
            store: SnapshotStore::new(),
            history: RibHistory::new(),
            registry,
            metrics,
            stream_block: STREAM_BLOCK_ENTRIES,
            shards: 1,
            chaos: None,
            on_commit: None,
        }
    }

    /// Overrides the streaming block size (entries per generation block).
    /// `usize::MAX` reproduces the old whole-day materialization — the
    /// reference path the streaming-equivalence property test compares
    /// against. Output bytes are identical for any non-zero value.
    pub fn with_stream_block(mut self, entries: usize) -> Self {
        self.stream_block = entries.max(1);
        self
    }

    /// Shard count for a *freshly created* archive: 1 (the default)
    /// writes the historical single-file `archive.dps`; N > 1 writes a
    /// manifest plus N shard files whose scan work parallelises per
    /// shard. Resuming an existing archive keeps its layout regardless.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sweeps over the simulated wire under `schedule` instead of the
    /// bulk path. Each measured day gets a fresh network seeded
    /// `world.params.seed + day` whose virtual clock starts at zero, so the
    /// schedule describes faults *within* a day and replays identically
    /// every day. Every due source is swept by the iterative resolver
    /// (backoff, breakers, hedging) under the supervisor's dead-letter
    /// retry passes, and the day's network, health and supervisor
    /// telemetry joins its telemetry page.
    pub fn with_chaos(mut self, schedule: ChaosSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Calls `hook` right after each freshly measured day's durable
    /// commit in [`run_archived`](Self::run_archived), with the day's
    /// quality records in due-source order (progress reporting; days
    /// resumed from the archive are not reported).
    pub fn on_commit(mut self, hook: impl FnMut(u32, &[DayQuality]) + 'static) -> Self {
        self.on_commit = Some(Box::new(hook));
        self
    }

    /// The study's telemetry registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs the whole study: advances the world through every measured day
    /// and sweeps all due sources. Returns the filled store.
    pub fn run(self, world: &mut World) -> SnapshotStore {
        self.run_with_history(world).0
    }

    /// Like [`run`](Self::run), additionally returning the archive of
    /// daily `pfx2as` snapshots (routing data *at measurement time*,
    /// paper §3.2).
    pub fn run_with_history(mut self, world: &mut World) -> (SnapshotStore, RibHistory) {
        let mut interner = SldInterner::new();
        let mut day = 0u32;
        while day < self.config.days {
            world.advance_to(Day(day));
            self.history.record(Day(day), world.pfx2as());
            self.measure_day(world, day, &mut interner);
            day += self.config.stride.max(1);
        }
        (self.store, self.history)
    }

    /// Runs the whole study while streaming each finished day into a
    /// `dps-store` archive at `path`, committing a durable footer after
    /// every measured day (checkpoint). If `path` already holds a partial
    /// archive — say, from a killed sweep — the run *resumes*: committed
    /// days are rehydrated from the file instead of re-measured, the
    /// dictionary continues from the last footer (interning is idempotent,
    /// so ids stay identical), and the world is still advanced through
    /// every day so ecosystem state matches an uninterrupted run. The
    /// resulting archive is byte-identical to one written in a single
    /// uninterrupted sweep.
    ///
    /// With a streaming-analysis `observer`, committed days replay their
    /// checkpoint pages through the observer on resume, and every freshly
    /// measured day feeds the observer before its commit.
    pub fn run_archived(
        mut self,
        world: &mut World,
        path: &std::path::Path,
        mut observer: Option<&mut dyn DayObserver>,
    ) -> std::io::Result<SnapshotStore> {
        let mut writer = StoreWriter::resume_or_create(path, self.shards, Some(UNIQUE_KEY_COLUMN))?;
        // Continue interning into the committed dictionary so a resumed
        // sweep assigns the same ids an uninterrupted one would.
        resume_store(&mut self.store, &writer, path)?;
        if let Some(obs) = observer.as_deref_mut() {
            replay_checkpoints(&self.store, &writer, &self.config, obs)?;
        }
        let mut interner = SldInterner::new();
        let mut day = 0u32;
        while day < self.config.days {
            // Advance through *every* day — including already-committed
            // ones — so world state evolves exactly as in a fresh run.
            world.advance_to(Day(day));
            self.history.record(Day(day), world.pfx2as());
            if !day_committed(&writer, &self.config, day) {
                let (pages, telemetry) = self.collect_day(world, day, &mut interner);
                let qualities: Vec<DayQuality> = pages.iter().map(|p| p.quality).collect();
                append_day(
                    &mut writer,
                    &mut self.store,
                    day,
                    pages,
                    telemetry,
                    observer.as_deref_mut(),
                )?;
                if let Some(hook) = self.on_commit.as_mut() {
                    hook(day, &qualities);
                }
            }
            day += self.config.stride.max(1);
        }
        Ok(self.store)
    }

    /// Sweeps all due sources for the world's current day into the store,
    /// with the day's telemetry page.
    ///
    /// On the bulk path the input list is fanned out over the crossbeam
    /// worker cloud (paper Fig. 1): workers collect raw rows against the
    /// immutable world; the manager thread dictionary-encodes and stores
    /// them.
    pub fn measure_day(&mut self, world: &World, day: u32, interner: &mut SldInterner) {
        let (pages, telemetry) = self.collect_day(world, day, interner);
        for page in pages {
            self.store
                .add_table(day, page.source, &page.table, page.data_points);
            self.store.add_quality(page.quality);
        }
        self.store.add_telemetry(day, telemetry);
    }

    /// Collects and encodes one page per due source for `day` without
    /// storing them, plus the day's telemetry (shared by
    /// [`measure_day`](Self::measure_day) and
    /// [`run_archived`](Self::run_archived)).
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        interner: &mut SldInterner,
    ) -> (Vec<SourcePage>, Snapshot) {
        let before = self.registry.snapshot();
        let pfx2as = world.pfx2as();
        let mut wire = self.chaos.as_ref().map(|s| WireDay::new(world, s, day));
        let mut out = Vec::new();
        self.metrics.days.inc();
        for source in due_sources_for(&self.config, day) {
            let page = match wire.as_mut() {
                Some(wire) => supervised_page(
                    world,
                    &mut wire.path,
                    source,
                    day,
                    &pfx2as,
                    &mut self.store.dict,
                    interner,
                    &SupervisorConfig::default(),
                    &wire.metrics,
                ),
                None => self.bulk_page(world, source, day, &pfx2as, interner),
            };
            self.metrics.rows.add(u64::from(page.quality.attempted));
            self.metrics.data_points.add(page.data_points);
            out.push(page);
        }
        let mut telemetry = self.registry.snapshot().since(&before);
        if let Some(wire) = wire {
            telemetry.merge(&wire.registry.snapshot());
        }
        (out, telemetry)
    }

    /// One source's page over the bulk path.
    fn bulk_page(
        &mut self,
        world: &World,
        source: Source,
        day: u32,
        pfx2as: &Pfx2As,
        interner: &mut SldInterner,
    ) -> SourcePage {
        let entries = match source.tld() {
            Some(tld) => world.zone_entries(tld),
            None => world.alexa_entries(),
        };
        // Streaming generation: walk the entry list in bounded blocks.
        // Each block fans out over the worker cloud, lands as raw rows,
        // and is interned into the page builder immediately — so raw rows
        // for at most `stream_block` entries exist at any moment, not the
        // whole day (the fixed-memory contract of
        // [`STREAM_BLOCK_ENTRIES`]). Blocks, chunks, and rows all keep
        // entry-list order, so the output is byte-identical to a
        // whole-day materialization.
        let workers = dps_columnar::mapreduce::default_workers().max(1);
        let mut page = PageBuilder::new(day, source);
        for block in entries.chunks(self.stream_block.max(1)) {
            // Worker cloud: one map task per chunk of the block.
            let chunk = block.len().div_ceil(workers).max(1);
            let chunks: Vec<&[dps_ecosystem::ZoneEntry]> = block.chunks(chunk).collect();
            let raw_chunks: Vec<Vec<RawRow>> = dps_columnar::mapreduce::par_map(&chunks, |batch| {
                let mut path = BulkPath::new(world);
                batch
                    .iter()
                    .map(|&entry| {
                        let apex = world.entry_name(entry);
                        collect_raw(&mut path, &apex, entry_code(entry), pfx2as)
                    })
                    .collect()
            });
            // Manager: intern + encode (ordered, deterministic). The bulk
            // path cannot fail transiently, so the page's quality record
            // has no retries or hedges — only definitive failures
            // (vanished names) lower coverage.
            for raw in raw_chunks.into_iter().flatten() {
                page.intern_row(raw, &mut self.store.dict, interner);
            }
        }
        page.finish()
    }

    /// Immutable access to the store while the study is running.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }
}

/// One day's wire query path for chaos sweeps, plus the registry its
/// network, health tracker and supervisor publish into. One registry per
/// day, like the network itself: the day's snapshot is self-contained, so
/// a resumed run re-measuring the day reproduces the identical telemetry
/// page.
struct WireDay {
    path: WirePath,
    metrics: SweepMetrics,
    registry: Registry,
}

impl WireDay {
    fn new(world: &World, schedule: &ChaosSchedule, day: u32) -> Self {
        let registry = Registry::new();
        let net =
            Network::with_telemetry(world.params.seed.wrapping_add(u64::from(day)), &registry);
        net.set_chaos(schedule.clone());
        let catalog = world.materialize(&net);
        let health =
            Arc::new(HealthTracker::new(HealthConfig::default()).with_telemetry(&registry));
        let resolver = Resolver::new(
            &net,
            IpAddr::V4(Ipv4Addr::new(172, 16, 0, 53)),
            u64::from(day),
            catalog.root_hints(),
        )
        .with_config(ResolverConfig::resilient())
        .with_health(health);
        Self {
            path: WirePath::new(resolver),
            metrics: SweepMetrics::new(&registry),
            registry,
        }
    }
}

/// Interns raw rows into one (day, source) page in row order — the one
/// place collected rows meet the run-wide dictionary — tallying the
/// page's quality record as they pass. Used by the bulk and wire sweeps
/// and by the cluster manager's merge, so all three encode identically.
pub struct PageBuilder {
    day: u32,
    source: Source,
    builder: TableBuilder,
    data_points: u64,
    attempted: u32,
    failed: u32,
    causes: CauseCounts,
}

impl PageBuilder {
    /// An empty page for `(day, source)`.
    pub fn new(day: u32, source: Source) -> Self {
        Self {
            day,
            source,
            builder: TableBuilder::new(schema()),
            data_points: 0,
            attempted: 0,
            failed: 0,
            causes: CauseCounts::default(),
        }
    }

    /// Interns and appends the next row.
    pub fn intern_row(&mut self, raw: RawRow, dict: &mut StringDict, interner: &mut SldInterner) {
        self.attempted += 1;
        self.failed += u32::from(raw.failed && raw.retryable);
        self.causes.merge(&raw.causes);
        let row = raw.intern(dict, interner);
        self.data_points += u64::from(row.data_points);
        self.builder.push_row(&row.pack(self.day, self.source));
    }

    /// The finished page. Its quality record is tallied from the rows
    /// alone (no retries or hedges); a supervised sweep replaces it with
    /// the supervisor's.
    pub fn finish(self) -> SourcePage {
        let mut quality = DayQuality::perfect(self.day, self.source, self.attempted, self.failed);
        quality.causes = self.causes;
        SourcePage {
            source: self.source,
            table: self.builder.finish(),
            data_points: self.data_points,
            quality,
        }
    }
}

/// One source's page swept through `path` under fault-tolerant
/// supervision: first pass, dead-letter retry passes, and the
/// supervisor's quality record.
#[allow(clippy::too_many_arguments)]
fn supervised_page(
    world: &World,
    path: &mut impl QueryPath,
    source: Source,
    day: u32,
    pfx2as: &Pfx2As,
    dict: &mut StringDict,
    interner: &mut SldInterner,
    config: &SupervisorConfig,
    metrics: &SweepMetrics,
) -> SourcePage {
    let entries = match source.tld() {
        Some(tld) => world.zone_entries(tld),
        None => world.alexa_entries(),
    };
    let jobs: Vec<(dps_dns::Name, u32)> = entries
        .iter()
        .map(|&entry| (world.entry_name(entry), entry_code(entry)))
        .collect();
    let sweep = sweep_supervised(path, &jobs, pfx2as, day, source, config, metrics);
    let mut page = PageBuilder::new(day, source);
    for raw in sweep.rows {
        page.intern_row(raw, dict, interner);
    }
    SourcePage {
        quality: sweep.quality,
        ..page.finish()
    }
}

/// Sweeps one list through an arbitrary query path under fault-tolerant
/// supervision into `store` (first pass, dead-letter retry passes, and a
/// stored [`DayQuality`] record for the day), recording its quality
/// tallies and virtual-time span into `metrics`. Returns the quality
/// record for the caller's logs. `SupervisorConfig { retry_passes: 0, .. }`
/// runs exactly the first pass: a plain unsupervised sweep.
#[allow(clippy::too_many_arguments)]
pub fn sweep_with_path_supervised_metered(
    world: &World,
    path: &mut impl QueryPath,
    source: Source,
    day: u32,
    store: &mut SnapshotStore,
    interner: &mut SldInterner,
    config: &SupervisorConfig,
    metrics: &SweepMetrics,
) -> DayQuality {
    let page = supervised_page(
        world,
        path,
        source,
        day,
        &world.pfx2as(),
        &mut store.dict,
        interner,
        config,
        metrics,
    );
    store.add_table(day, source, &page.table, page.data_points);
    store.add_quality(page.quality);
    page.quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::SOURCES;
    use dps_ecosystem::ScenarioParams;

    #[test]
    fn tiny_study_fills_all_sources() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 25,
            cc_start_day: 20,
            stride: 1,
        };
        let store = Study::new(config).run(&mut world);

        for s in [Source::Com, Source::Net, Source::Org] {
            let st = store.stats(s);
            assert_eq!(st.days, 25, "{s:?}");
            assert_eq!(st.first_day, Some(0));
            assert!(st.unique_slds.len() > 10, "{s:?}");
            assert!(st.data_points > 0);
        }
        for s in [Source::Nl, Source::Alexa] {
            let st = store.stats(s);
            assert_eq!(st.days, 5, "{s:?}");
            assert_eq!(st.first_day, Some(20));
        }
    }

    #[test]
    fn history_records_routing_at_measurement_time() {
        use dps_netsim::OriginChange;
        // Horizon past the first ENOM→Verisign flip (day 30).
        let params = dps_ecosystem::ScenarioParams {
            seed: 4,
            scale: 0.05,
            gtld_days: 35,
            cc_start_day: 35,
        };
        let mut world = World::imc2016(params);
        let (_store, history) = Study::new(StudyConfig {
            days: 35,
            cc_start_day: 35,
            stride: 1,
        })
        .run_with_history(&mut world);
        assert_eq!(history.len(), 35);
        let changes = history.diff(Day(29), Day(30));
        let flip = changes.iter().find_map(|c| match c {
            OriginChange::OriginFlip { from, to, .. } => Some((from.clone(), to.clone())),
            _ => None,
        });
        let (from, to) = flip.expect("ENOM→Verisign flip recorded on day 30");
        assert_eq!(from[0].0, 21740, "ENOM before");
        assert_eq!(to[0].0, 26415, "Verisign during diversion");
    }

    #[test]
    fn stride_skips_days() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 20,
            cc_start_day: 99,
            stride: 5,
        };
        let store = Study::new(config).run(&mut world);
        assert_eq!(store.days(Source::Com), vec![0, 5, 10, 15]);
    }

    #[test]
    fn day_tables_decode_and_carry_day_column() {
        let mut world = World::imc2016(ScenarioParams::tiny(6));
        let config = StudyConfig {
            days: 3,
            cc_start_day: 99,
            stride: 1,
        };
        let store = Study::new(config).run(&mut world);
        let t = store.table(2, Source::Com).unwrap();
        assert!(t.rows() > 0);
        let days = t.column_by_name("day").unwrap();
        assert!(days.iter().all(|&d| d == 2));
    }

    #[test]
    fn archived_run_checkpoints_every_day_and_matches_in_memory() {
        let path =
            std::env::temp_dir().join(format!("dps-pipeline-archived-{}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = StudyConfig {
            days: 6,
            cc_start_day: 4,
            stride: 1,
        };
        let mut world = World::imc2016(ScenarioParams::tiny(9));
        let archived = Study::new(config)
            .run_archived(&mut world, &path, None)
            .unwrap();
        let mut world2 = World::imc2016(ScenarioParams::tiny(9));
        let in_memory = Study::new(config).run(&mut world2);
        for s in SOURCES {
            let (a, b) = (archived.stats(s), in_memory.stats(s));
            assert_eq!(a.days, b.days, "{s:?}");
            assert_eq!(a.data_points, b.data_points, "{s:?}");
            assert_eq!(a.unique_slds, b.unique_slds, "{s:?}");
        }
        // A second run over the finished archive measures nothing new and
        // reloads the exact same store from the file.
        let mut world3 = World::imc2016(ScenarioParams::tiny(9));
        let reloaded = Study::new(config)
            .run_archived(&mut world3, &path, None)
            .unwrap();
        assert_eq!(
            reloaded.stats(Source::Com).data_points,
            archived.stats(Source::Com).data_points
        );
        assert_eq!(reloaded.days(Source::Com), archived.days(Source::Com));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compression_beats_raw() {
        let mut world = World::imc2016(ScenarioParams::tiny(7));
        let config = StudyConfig {
            days: 5,
            cc_start_day: 99,
            stride: 1,
        };
        let store = Study::new(config).run(&mut world);
        let st = store.stats(Source::Com);
        assert!(
            st.stored_bytes * 2 < st.raw_bytes,
            "stored {} raw {}",
            st.stored_bytes,
            st.raw_bytes
        );
    }
}
