//! The study driver: sweeps every due source every day and writes each
//! finished day to a `dps-store` archive (cluster manager + worker cloud
//! of paper Fig. 1). The archive is the sweep's only output; readers load
//! it afterwards with [`SnapshotStore::load_archive`].
//!
//! On multi-core machines the per-day sweep fans the input list out over a
//! crossbeam worker cloud; collected rows are merged and dictionary-encoded
//! by the manager thread, mirroring the collection/aggregation split of the
//! real system.

use crate::collector::{collect_raw, BulkPath, QueryPath, RawRow, RecursorPath, SldInterner};
use crate::observation::{entry_code, schema, Source};
use crate::quality::{encode_qualities, CauseCounts, DayQuality, QUALITY_SOURCE};
use crate::snapshot::{SnapshotStore, UNIQUE_KEY_COLUMN};
use crate::supervisor::{sweep_supervised, SupervisorConfig, SweepMetrics};
use crate::telemetry::{encode_telemetry, TELEMETRY_SOURCE};
use dps_authdns::ResolverConfig;
use dps_columnar::{StringDict, Table, TableBuilder};
use dps_ecosystem::World;
use dps_netsim::{ChaosSchedule, Day, Network, Pfx2As};
use dps_recursor::{Recursor, RecursorConfig};
use dps_store::{StoreReader, StoreWriter};
use dps_telemetry::{Counter, Registry, Snapshot};
use std::net::{IpAddr, Ipv4Addr};

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

/// Appends one finished day to the archive, then commits a durable
/// footer. This is **the** day-commit path: the single-process
/// [`Study::run_archived`] and the cluster manager both funnel through
/// it, which is what keeps a multi-worker sweep byte-identical to the
/// single-process run — pages land in the same (day, source) order,
/// followed by the same quality and telemetry pages, followed by one
/// commit against the shared dictionary.
///
/// With a streaming-analysis `observer`, the observer consumes the day's
/// pages (rows already interned into `dict`) before the commit, its
/// counter deltas are folded into the day's telemetry page, and its
/// checkpoint table is persisted under [`ANALYSIS_SOURCE`] after the
/// telemetry page — so the whole day, checkpoint included, is covered by
/// the same single durable commit.
///
/// `pages` must be in [`due_sources_for`] order for the day.
pub fn append_day(
    writer: &mut StoreWriter,
    dict: &StringDict,
    day: u32,
    pages: Vec<SourcePage>,
    mut telemetry: Snapshot,
    observer: Option<&mut (dyn DayObserver + '_)>,
) -> std::io::Result<()> {
    let analysis = match observer {
        Some(obs) => {
            let (table, counters) = obs.on_day(day, &pages, dict)?;
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
        day_qualities.push(page.quality);
    }
    writer.append_table(day, QUALITY_SOURCE, &encode_qualities(&day_qualities), 0)?;
    writer.append_table(day, TELEMETRY_SOURCE, &encode_telemetry(&telemetry), 0)?;
    if let Some(table) = analysis {
        writer.append_table(day, ANALYSIS_SOURCE, &table, 0)?;
    }
    writer.commit(dict)
}

/// Fills `store` from the committed pages of the archive at `path` (see
/// [`SnapshotStore::load_archive`]); an archive with nothing committed
/// yet only hands over the writer's dictionary.
pub fn resume_store(
    store: &mut SnapshotStore,
    writer: &StoreWriter,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if writer.is_empty() {
        store.dict = writer.dict().clone();
        return Ok(());
    }
    *store = SnapshotStore::load_archive(path)?;
    Ok(())
}

/// Replays the archive's checkpoint pages through
/// [`DayObserver::on_resume`] in day order, so the engine resumes to the
/// exact (byte-identical) state it held when each day was committed.
/// A day of `config`'s calendar committed without a checkpoint means the
/// archive was written without streaming analysis and cannot be resumed
/// with it. Shared by [`Study::run_archived`] and the cluster manager.
///
/// The archive reads happen inside `dps-store`, but the untrusted bytes
/// are *consumed* here — the marker makes this a taint root the call
/// graph alone cannot derive.
// dps: ingress
pub fn replay_checkpoints(
    writer: &StoreWriter,
    path: &std::path::Path,
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
    if writer.is_empty() {
        return Ok(());
    }
    // Each checkpoint is read once: no page cache.
    let archive = StoreReader::open_auto_with_cache(path, 0)?;
    for &(day, source) in archive.catalog().pages.keys() {
        if source != ANALYSIS_SOURCE {
            continue;
        }
        let table = archive.table(day, source)?.ok_or_else(|| {
            std::io::Error::other("catalog lists a page the archive cannot produce")
        })?;
        observer.on_resume(day, &table)?;
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
    /// The run-wide dictionary every page is interned against.
    dict: StringDict,
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
    /// A study with an empty dictionary and a private telemetry registry
    /// (per-day deltas land in the archive as telemetry pages).
    pub fn new(config: StudyConfig) -> Self {
        let registry = Registry::new();
        let metrics = StudyMetrics::new(&registry);
        Self {
            config,
            dict: StringDict::new(),
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

    /// Runs the whole study, streaming each finished day into a
    /// `dps-store` archive at `path` and committing a durable footer after
    /// every measured day (checkpoint). The archive is the study's only
    /// output: load it with [`SnapshotStore::load_archive`]. If `path`
    /// already holds a partial archive — say, from a killed sweep — the
    /// run *resumes*: committed days are skipped instead of re-measured,
    /// the dictionary continues from the last footer (interning is
    /// idempotent, so ids stay identical), and the world is still advanced
    /// through every day so ecosystem state matches an uninterrupted run.
    /// The resulting archive is byte-identical to one written in a single
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
    ) -> std::io::Result<()> {
        let mut writer = StoreWriter::resume_or_create(path, self.shards, Some(UNIQUE_KEY_COLUMN))?;
        // Continue interning into the committed dictionary so a resumed
        // sweep assigns the same ids an uninterrupted one would.
        self.dict = writer.dict().clone();
        if let Some(obs) = observer.as_deref_mut() {
            replay_checkpoints(&writer, path, &self.config, obs)?;
        }
        let mut interner = SldInterner::new();
        let mut day = 0u32;
        while day < self.config.days {
            // Advance through *every* day — including already-committed
            // ones — so world state evolves exactly as in a fresh run.
            world.advance_to(Day(day));
            if !day_committed(&writer, &self.config, day) {
                let (pages, telemetry) = self.collect_day(world, day, &mut interner);
                let qualities: Vec<DayQuality> = pages.iter().map(|p| p.quality).collect();
                append_day(
                    &mut writer,
                    &self.dict,
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
        Ok(())
    }

    /// Collects and encodes one page per due source for `day`, plus the
    /// day's telemetry.
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
                    &mut self.dict,
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
                page.intern_row(raw, &mut self.dict, interner);
            }
        }
        page.finish()
    }
}

/// One day's wire query path for chaos sweeps, plus the registry its
/// network, recursor, health tracker and supervisor publish into. The day
/// resolves through one caching-recursor worker, so sibling names start
/// their descent at cached zone cuts instead of the root. One recursor and
/// one registry per day, like the network itself: delegations churn
/// between days, so no cache outlives the world it was filled from, and
/// the day's snapshot is self-contained, so a resumed run re-measuring
/// the day starts cold and reproduces the identical telemetry page. A
/// single worker keeps cache fills independent of thread interleaving.
struct WireDay {
    path: RecursorPath,
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
        let recursor = Recursor::with_telemetry(
            catalog.root_hints(),
            RecursorConfig {
                resolver: ResolverConfig::resilient(),
                ..Default::default()
            },
            &registry,
        );
        let worker = recursor.worker(
            &net,
            IpAddr::V4(Ipv4Addr::new(172, 16, 0, 53)),
            u64::from(day),
        );
        Self {
            path: RecursorPath::new(worker),
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
    use std::sync::atomic::{AtomicU32, Ordering};

    static NEXT_ARCHIVE: AtomicU32 = AtomicU32::new(0);

    fn temp_archive() -> std::path::PathBuf {
        let n = NEXT_ARCHIVE.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dps-pipeline-{}-{n}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    /// Sweeps `config` over `world` into a fresh archive and loads it.
    fn swept(world: &mut World, config: StudyConfig) -> SnapshotStore {
        let path = temp_archive();
        Study::new(config).run_archived(world, &path, None).unwrap();
        let store = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        store
    }

    #[test]
    fn tiny_study_fills_all_sources() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 25,
            cc_start_day: 20,
            stride: 1,
        };
        let store = swept(&mut world, config);

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
    fn stride_skips_days() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 20,
            cc_start_day: 99,
            stride: 5,
        };
        let store = swept(&mut world, config);
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
        let store = swept(&mut world, config);
        let t = store.table(2, Source::Com).unwrap();
        assert!(t.rows() > 0);
        let days = t.column_by_name("day").unwrap();
        assert!(days.iter().all(|&d| d == 2));
    }

    #[test]
    fn archived_run_checkpoints_every_day_and_resumes_without_change() {
        let path = temp_archive();
        let config = StudyConfig {
            days: 6,
            cc_start_day: 4,
            stride: 1,
        };
        let mut world = World::imc2016(ScenarioParams::tiny(9));
        Study::new(config)
            .run_archived(&mut world, &path, None)
            .unwrap();
        let writer = StoreWriter::resume_or_create(&path, 1, Some(UNIQUE_KEY_COLUMN)).unwrap();
        assert!((0..6).all(|day| day_committed(&writer, &config, day)));
        drop(writer);
        let bytes = std::fs::read(&path).unwrap();
        let archived = SnapshotStore::load_archive(&path).unwrap();
        for s in SOURCES {
            let st = archived.stats(s);
            let days = if matches!(s, Source::Nl | Source::Alexa) {
                2
            } else {
                6
            };
            assert_eq!(st.days, days, "{s:?}");
        }
        // A second run over the finished archive measures nothing new and
        // leaves every byte in place.
        let mut world2 = World::imc2016(ScenarioParams::tiny(9));
        Study::new(config)
            .run_archived(&mut world2, &path, None)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
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
        let store = swept(&mut world, config);
        let st = store.stats(Source::Com);
        assert!(
            st.stored_bytes * 2 < st.raw_bytes,
            "stored {} raw {}",
            st.stored_bytes,
            st.raw_bytes
        );
    }
}
