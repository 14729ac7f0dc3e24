//! The study driver: the one day loop every sweep runs through. For each
//! measured day it advances the world, asks a [`DayCollector`] for the
//! day's raw rows, interns them into one page per due source against the
//! run-wide dictionary, and commits the finished day to a `dps-store`
//! archive (Stage I of paper Fig. 1). The archive is the sweep's only
//! output; readers load it afterwards with [`SnapshotStore::load_archive`].
//!
//! Three collectors exist: the bulk path (the day's entry lists fanned
//! out over local threads block by block), the wire path
//! ([`Study::with_chaos`]: supervised iterative resolution over the lossy
//! simulated network) and `dps-cluster`'s remote collector, which leases
//! entry ranges to worker agents. Whichever runs, rows meet the run-wide
//! dictionary only in [`DayPages`], in due-source order and then entry
//! order, so the archive bytes do not depend on the collector's
//! parallelism.
//!
//! The bulk path codes its rows on the workers: each chunk of entries is
//! collected and interned against a dictionary of the chunk's own
//! (`CodedRows`), and the driver only interns the chunk's few strings
//! into the run-wide dictionary, in the chunk's first-seen order, and maps
//! the name columns onto those ids. First-seen order across chunks is
//! entry order, so every id — and every archive byte — is the one
//! row-by-row interning assigns. Wire and cluster rows are interned on the
//! driver ([`DayPages::intern_row`]).
//!
//! A finished day's tail — the observer, page encoding, writes and the
//! durable commit, then the [`Study::on_commit`] hook — runs on one commit
//! thread that owns the archive writer, the observer and the hook. Day
//! *d* commits there while the driver advances the world and collects day
//! *d + 1*. At most one day is in the tail, days commit strictly in day
//! order, and a tail error fails the run before any later day commits.
//!
//! A collector whose day is self-contained — today the wire path, whose
//! day owns its network, recursor and registry — hands each day off as a
//! detached [`DayJob`]. The driver keeps up to four such days running
//! (no more than the machine has cores) while it advances the world, and
//! still interns and commits them strictly in day order, so the archive
//! is the bytes a one-day-at-a-time run writes. A detached day waits for
//! its own tail: each holds its network and recursor cache until then,
//! so letting the tail overlap would only add memory.

use crate::collector::{collect_raw, BulkPath, QueryPath, RawRow, SldInterner};
use crate::observation::{entry_code, schema, Source, COLUMNS};
use crate::quality::{encode_qualities, CauseCounts, DayQuality, QUALITY_SOURCE};
use crate::snapshot::{SnapshotStore, UNIQUE_KEY_COLUMN};
use crate::supervisor::{sweep_supervised, SupervisedSweep, SupervisorConfig, SweepMetrics};
use crate::telemetry::{encode_telemetry, TELEMETRY_SOURCE};
use dps_authdns::ResolverConfig;
use dps_columnar::{StringDict, Table, TableBuilder};
use dps_ecosystem::{DayAuthority, World, ZoneEntry};
use dps_netsim::{ChaosSchedule, Day, Network, Pfx2As};
use dps_recursor::{Recursor, RecursorConfig};
use dps_store::{StoreReader, StoreWriter};
use dps_telemetry::{Counter, Registry, Snapshot};
use std::collections::{BTreeSet, VecDeque};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};

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
/// Every sweep — bulk, wire or cluster — commits through
/// [`Study::run_archived`], which is what keeps incremental analysis
/// worker-count-independent: the observer only ever sees the already
/// deterministically-merged day pages. The observer runs on the run's
/// commit thread, hence `Send`.
pub trait DayObserver: Send {
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
/// `config`, in the order their pages are written.
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
/// footer: the due sources' pages in (day, source) order, then the
/// quality and telemetry pages, then one commit against the run-wide
/// dictionary.
///
/// With a streaming-analysis `observer`, the observer consumes the day's
/// pages (rows already interned into `dict`) before the commit, its
/// counter deltas are folded into the day's telemetry page, and its
/// checkpoint table is persisted under [`ANALYSIS_SOURCE`] after the
/// telemetry page — so the whole day, checkpoint included, is covered by
/// the same single durable commit.
///
/// `pages` must be in [`due_sources_for`] order for the day. Returns the
/// day's quality records in that order.
fn append_day(
    writer: &mut StoreWriter,
    dict: &StringDict,
    day: u32,
    pages: Vec<SourcePage>,
    mut telemetry: Snapshot,
    observer: Option<&mut (dyn DayObserver + '_)>,
) -> std::io::Result<Vec<DayQuality>> {
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
    writer.commit(dict)?;
    Ok(day_qualities)
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
/// with it.
///
/// The archive reads happen inside `dps-store`, but the untrusted bytes
/// are *consumed* here — the marker makes this a taint root the call
/// graph alone cannot derive.
// dps: ingress
fn replay_checkpoints(
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

/// Sweep-volume counters the study records per measured day. The driver
/// is their only writer, whichever collector ran.
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
/// worth of rows are in flight outside the page per source sweep. The
/// day's rows are generated and coded block by block and appended to the
/// page builder as each block lands, so that memory is
/// `O(STREAM_BLOCK_ENTRIES)` regardless of scale — never a whole-day
/// `Vec`. Dictionary ids still follow entry list order, so the produced
/// archive is byte-identical to a whole-day materialization.
pub const STREAM_BLOCK_ENTRIES: usize = 8192;

/// A source's input list for the world's current day: the TLD's zone
/// entries, or the Alexa-style list.
pub fn source_entries(world: &World, source: Source) -> Arc<Vec<ZoneEntry>> {
    match source.tld() {
        Some(tld) => world.zone_entries(tld),
        None => world.alexa_entries(),
    }
}

/// `entries` split into one bulk map task per worker.
fn bulk_chunks(entries: &[ZoneEntry]) -> Vec<&[ZoneEntry]> {
    let workers = dps_columnar::mapreduce::default_workers().max(1);
    entries
        .chunks(entries.len().div_ceil(workers).max(1))
        .collect()
}

/// Collects the raw rows of `entries` over the bulk path, fanned out
/// over one map task per chunk of the slice. Rows come back in entry
/// order whatever the thread count.
pub fn collect_rows<'a>(
    world: &'a World,
    entries: &'a [ZoneEntry],
    pfx2as: &'a Pfx2As,
) -> impl Iterator<Item = RawRow> + 'a {
    let raw_chunks: Vec<Vec<RawRow>> =
        dps_columnar::mapreduce::par_map(&bulk_chunks(entries), |batch| {
            let mut path = BulkPath::new(world);
            batch
                .iter()
                .map(|&entry| {
                    let apex = world.entry_name(entry);
                    collect_raw(&mut path, &apex, entry_code(entry), pfx2as)
                })
                .collect()
        });
    raw_chunks.into_iter().flatten()
}

/// Rows of one `(day, source)` page, collected and dictionary-coded on
/// the worker that gathered them, against a dictionary of their own:
/// their name columns hold ids of `dict`, which
/// [`DayPages::push_coded`] maps into the run-wide dictionary.
pub(crate) struct CodedRows {
    page: PageBuilder,
    dict: StringDict,
}

/// Collects `entries` of `source` over the bulk path, fanned out over one
/// map task per chunk, each chunk coded on its own thread. Chunks come
/// back in entry order whatever the thread count.
fn collect_coded(
    world: &World,
    entries: &[ZoneEntry],
    pfx2as: &Pfx2As,
    day: u32,
    source: Source,
) -> Vec<CodedRows> {
    dps_columnar::mapreduce::par_map(&bulk_chunks(entries), |batch| {
        let mut path = BulkPath::new(world);
        let mut coded = CodedRows {
            page: PageBuilder::new(day, source),
            dict: StringDict::new(),
        };
        coded.page.builder.reserve_exact(batch.len());
        let mut interner = SldInterner::new();
        for &entry in batch.iter() {
            let apex = world.entry_name(entry);
            let raw = collect_raw(&mut path, &apex, entry_code(entry), pfx2as);
            coded.page.intern_row(raw, &mut coded.dict, &mut interner);
        }
        coded
    })
}

/// Where a measured day's raw rows come from. [`Study::run_archived`] is
/// the one day loop; a collector only gathers rows and never sees the
/// dictionary or the archive.
pub trait DayCollector {
    /// Feeds the raw rows of every source in `due` for `day` into
    /// `pages`: all of `due[0]`'s rows in entry-list order, then all of
    /// `due[1]`'s, and so on (interning order fixes the dictionary ids).
    /// A collector may replace a page's row-tallied quality record with
    /// its own. Returns the collector's own telemetry for the day, which
    /// joins the day's telemetry page.
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        due: &[Source],
        pages: &mut DayPages<'_>,
    ) -> std::io::Result<Snapshot>;

    /// The day as a self-contained job, when its rows depend only on what
    /// the job owns (never on the world after this call or on another
    /// day): the driver then runs it on its own thread, beside other
    /// days, instead of calling [`collect_day`](Self::collect_day). The
    /// default keeps the day inline.
    fn detach_day(&mut self, _world: &World, _day: u32, _due: &[Source]) -> Option<DayJob> {
        None
    }
}

impl<C: DayCollector + ?Sized> DayCollector for &mut C {
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        due: &[Source],
        pages: &mut DayPages<'_>,
    ) -> std::io::Result<Snapshot> {
        (**self).collect_day(world, day, due, pages)
    }

    fn detach_day(&mut self, world: &World, day: u32, due: &[Source]) -> Option<DayJob> {
        (**self).detach_day(world, day, due)
    }
}

/// A detached day: runs anywhere, owns everything it reads, and returns
/// the day's rows for the driver to intern.
pub type DayJob = Box<dyn FnOnce() -> std::io::Result<DetachedDay> + Send>;

/// What a [`DayJob`] collected.
pub struct DetachedDay {
    /// One sweep per due source, in due order: its rows in entry-list
    /// order and the quality record that replaces the row-tallied one.
    pub sweeps: Vec<SupervisedSweep>,
    /// The job's own telemetry for the day.
    pub telemetry: Snapshot,
}

impl DetachedDay {
    /// Interns the day's rows into `pages` (the collector half of
    /// [`DayCollector::collect_day`]).
    fn feed(self, pages: &mut DayPages<'_>) -> Snapshot {
        for (page, sweep) in self.sweeps.into_iter().enumerate() {
            for raw in sweep.rows {
                pages.intern_row(page, raw);
            }
            pages.set_quality(page, sweep.quality);
        }
        self.telemetry
    }
}

/// The most detached days in flight at once. Each holds its own network,
/// recursor cache and raw rows until it is committed, so memory grows
/// with this bound. The driver also never runs more than the machine
/// has cores.
const MAX_DAYS_IN_FLIGHT: usize = 4;

/// The driver's page builders for one day, one per due source in
/// [`due_sources_for`] order: the one place collected rows meet the
/// run-wide dictionary.
pub struct DayPages<'a> {
    dict: &'a mut StringDict,
    interner: &'a mut SldInterner,
    pages: Vec<(PageBuilder, Option<DayQuality>)>,
}

impl DayPages<'_> {
    /// Interns `raw` as the next row of the page of `due[page]`.
    pub fn intern_row(&mut self, page: usize, raw: RawRow) {
        if let Some((builder, _)) = self.pages.get_mut(page) {
            builder.intern_row(raw, self.dict, self.interner);
        }
    }

    /// Appends already-coded rows to the page of `due[page]`: their
    /// dictionary's strings are interned into the run-wide one in their
    /// id order — which is their first-seen order — and their name
    /// columns are mapped onto the run-wide ids.
    pub(crate) fn push_coded(&mut self, page: usize, coded: CodedRows) {
        if let Some((builder, _)) = self.pages.get_mut(page) {
            builder.absorb(coded, self.dict);
        }
    }

    /// Makes room for `rows` more rows in the page of `due[page]`, so a
    /// collector that knows the page's size grows it once.
    pub(crate) fn reserve(&mut self, page: usize, rows: usize) {
        if let Some((builder, _)) = self.pages.get_mut(page) {
            builder.builder.reserve_exact(rows);
        }
    }

    /// Replaces the row-tallied quality record of `due[page]`'s page (a
    /// supervised sweep knows its retries, hedges and breaker trips).
    pub fn set_quality(&mut self, page: usize, quality: DayQuality) {
        if let Some((_, slot)) = self.pages.get_mut(page) {
            *slot = Some(quality);
        }
    }

    fn finish(self) -> Vec<SourcePage> {
        self.pages
            .into_iter()
            .map(|(builder, quality)| {
                let page = builder.finish();
                SourcePage {
                    quality: quality.unwrap_or(page.quality),
                    ..page
                }
            })
            .collect()
    }
}

/// The local bulk path: each source's entry list in blocks of `block`
/// entries, every block collected and coded by [`collect_coded`] and
/// appended as it lands — so rows for at most one block exist outside
/// the page at any moment (the fixed-memory contract of
/// [`STREAM_BLOCK_ENTRIES`]). The bulk path
/// cannot fail transiently, so pages keep their row-tallied quality:
/// only definitive failures (vanished names) lower coverage.
struct BulkCollector {
    block: usize,
}

impl DayCollector for BulkCollector {
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        due: &[Source],
        pages: &mut DayPages<'_>,
    ) -> std::io::Result<Snapshot> {
        let pfx2as = world.pfx2as();
        for (page, &source) in due.iter().enumerate() {
            let entries = source_entries(world, source);
            pages.reserve(page, entries.len());
            for block in entries.chunks(self.block) {
                for coded in collect_coded(world, block, &pfx2as, day, source) {
                    pages.push_coded(page, coded);
                }
            }
        }
        Ok(Snapshot::default())
    }
}

/// The wire path for chaos sweeps. Each day gets a fresh network seeded
/// `world.params.seed + day` whose virtual clock starts at zero, so the
/// schedule describes faults *within* a day and replays identically
/// every day. The day's servers are the world's [`DayAuthority`] for that
/// day, and the day resolves through one caching [`Recursor`], so
/// sibling names start their descent at cached zone cuts instead of the
/// root; every due source is swept under the supervisor's dead-letter
/// retry passes. One recursor and one registry per day, like the network
/// itself: delegations churn between days, so no cache outlives the world
/// it was filled from, and the day's snapshot is self-contained, so a
/// resumed run re-measuring the day starts cold and reproduces the
/// identical telemetry page. A single resolver keeps cache fills — and so
/// which packets are sent and which names fail — independent of thread
/// interleaving; that is why a day is never split, and why whole days
/// run side by side instead ([`DayCollector::detach_day`]).
struct WireCollector {
    schedule: ChaosSchedule,
}

impl WireCollector {
    /// Day `day` of `world` as a job owning everything it reads: the
    /// day's authority, entry lists and routing snapshot.
    fn job(&self, world: &World, day: u32, due: &[Source]) -> DayJob {
        let wire_day = WireDay {
            authority: world.authority(),
            lists: due.iter().map(|&s| (s, source_entries(world, s))).collect(),
            pfx2as: world.pfx2as(),
            seed: world.params.seed.wrapping_add(u64::from(day)),
            schedule: self.schedule.clone(),
            day,
        };
        Box::new(move || Ok(wire_day.run()))
    }
}

impl DayCollector for WireCollector {
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        due: &[Source],
        pages: &mut DayPages<'_>,
    ) -> std::io::Result<Snapshot> {
        Ok(self.job(world, day, due)()?.feed(pages))
    }

    fn detach_day(&mut self, world: &World, day: u32, due: &[Source]) -> Option<DayJob> {
        Some(self.job(world, day, due))
    }
}

/// One wire day's inputs, all owned.
struct WireDay {
    authority: Arc<DayAuthority>,
    lists: Vec<(Source, Arc<Vec<ZoneEntry>>)>,
    pfx2as: Pfx2As,
    seed: u64,
    schedule: ChaosSchedule,
    day: u32,
}

impl WireDay {
    fn run(self) -> DetachedDay {
        let registry = Registry::new();
        let net = Network::with_telemetry(self.seed, &registry);
        net.set_chaos(self.schedule);
        let mut path = Recursor::with_telemetry(
            &net,
            IpAddr::V4(Ipv4Addr::new(172, 16, 0, 53)),
            u64::from(self.day),
            self.authority.bind(&net),
            RecursorConfig {
                resolver: ResolverConfig::resilient(),
                ..Default::default()
            },
            &registry,
        );
        let metrics = SweepMetrics::new(&registry);
        let sweeps = self
            .lists
            .iter()
            .map(|(source, entries)| {
                let jobs: Vec<(dps_dns::Name, u32)> = entries
                    .iter()
                    .map(|&entry| (self.authority.entry_name(entry), entry_code(entry)))
                    .collect();
                sweep_supervised(
                    &mut path,
                    &jobs,
                    &self.pfx2as,
                    self.day,
                    *source,
                    &SupervisorConfig::default(),
                    &metrics,
                )
            })
            .collect();
        DetachedDay {
            sweeps,
            telemetry: registry.snapshot(),
        }
    }
}

/// Drives a full study over a world: every measured day, every due
/// source, through one [`DayCollector`] — the bulk path unless
/// [`with_chaos`](Self::with_chaos) or
/// [`with_collector`](Self::with_collector) picks another.
pub struct Study<'c> {
    config: StudyConfig,
    registry: Registry,
    metrics: StudyMetrics,
    /// Shard files for a freshly created archive (1 = single-file).
    shards: u32,
    /// Where each measured day's rows come from.
    collector: Box<dyn DayCollector + 'c>,
    /// Receives each freshly committed day's quality records.
    on_commit: Option<CommitHook>,
}

/// The progress hook [`Study::on_commit`] installs. It runs on the
/// commit thread.
type CommitHook = Box<dyn FnMut(u32, &[DayQuality]) + Send>;

impl<'c> Study<'c> {
    /// A bulk-path study with a private telemetry registry (per-day
    /// deltas land in the archive as telemetry pages).
    pub fn new(config: StudyConfig) -> Self {
        let registry = Registry::new();
        let metrics = StudyMetrics::new(&registry);
        Self {
            config,
            registry,
            metrics,
            shards: 1,
            collector: Box::new(BulkCollector {
                block: STREAM_BLOCK_ENTRIES,
            }),
            on_commit: None,
        }
    }

    /// Sweeps the bulk path in blocks of `entries` (see
    /// [`STREAM_BLOCK_ENTRIES`]). `usize::MAX` reproduces the old
    /// whole-day materialization — the reference path the
    /// streaming-equivalence property test compares against. Output
    /// bytes are identical for any non-zero value.
    pub fn with_stream_block(self, entries: usize) -> Self {
        self.with_collector(BulkCollector {
            block: entries.max(1),
        })
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
    /// bulk path: every due source is resolved iteratively (backoff,
    /// breakers, hedging) under the supervisor, and the day's network,
    /// recursor, health and supervisor telemetry joins its telemetry
    /// page.
    pub fn with_chaos(self, schedule: ChaosSchedule) -> Self {
        self.with_collector(WireCollector { schedule })
    }

    /// Gathers every measured day's rows through `collector` (the
    /// cluster's remote collector, say) instead of the bulk path.
    pub fn with_collector(mut self, collector: impl DayCollector + 'c) -> Self {
        self.collector = Box::new(collector);
        self
    }

    /// Calls `hook` right after each freshly measured day's durable
    /// commit in [`run_archived`](Self::run_archived), with the day's
    /// quality records in due-source order (progress reporting; days
    /// resumed from the archive are not reported). The hook runs on the
    /// commit thread, once per day and in day order.
    pub fn on_commit(mut self, hook: impl FnMut(u32, &[DayQuality]) + Send + 'static) -> Self {
        self.on_commit = Some(Box::new(hook));
        self
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
    ///
    /// Each day's tail (observer, page writes, commit, hook) runs on a
    /// commit thread while the driver collects the next day; see the
    /// module docs.
    pub fn run_archived(
        self,
        world: &mut World,
        path: &std::path::Path,
        mut observer: Option<&mut dyn DayObserver>,
    ) -> std::io::Result<()> {
        let Self {
            config,
            registry,
            metrics,
            shards,
            mut collector,
            on_commit,
        } = self;
        let writer = StoreWriter::resume_or_create(path, shards, Some(UNIQUE_KEY_COLUMN))?;
        if let Some(obs) = observer.as_deref_mut() {
            replay_checkpoints(&writer, path, &config, obs)?;
        }
        // The writer moves to the commit thread: which days are already
        // durable is read here, once.
        let stride = config.stride.max(1) as usize;
        let to_measure: BTreeSet<u32> = (0..config.days)
            .step_by(stride)
            .filter(|&day| !day_committed(&writer, &config, day))
            .collect();
        // Continue interning into the committed dictionary so a resumed
        // sweep assigns the same ids an uninterrupted one would.
        let dict = writer.dict().clone();
        let tail = Tail {
            dict: dict.clone(),
            writer,
            observer,
            on_commit,
        };
        let cap = dps_columnar::mapreduce::default_workers().clamp(1, MAX_DAYS_IN_FLIGHT);
        std::thread::scope(|scope| {
            let mut committer = Committer {
                registry: &registry,
                metrics: &metrics,
                synced: dict.len(),
                dict,
                interner: SldInterner::new(),
                tail: TailThread::spawn(scope, tail),
            };
            let mut in_flight: VecDeque<InFlight<'_>> = VecDeque::new();
            let result = (|| {
                for day in (0..config.days).step_by(stride) {
                    // Advance through *every* day — including already-
                    // committed ones — so world state evolves exactly as
                    // in a fresh run.
                    world.advance_to(Day(day));
                    if !to_measure.contains(&day) {
                        continue;
                    }
                    let due = due_sources_for(&config, day);
                    if let Some(job) = collector.detach_day(world, day, &due) {
                        in_flight.push_back((day, due, scope.spawn(job)));
                        if in_flight.len() >= cap {
                            committer.commit_oldest(&mut in_flight)?;
                        }
                    } else {
                        while !in_flight.is_empty() {
                            committer.commit_oldest(&mut in_flight)?;
                        }
                        committer.commit(day, &due, |pages| {
                            collector.collect_day(world, day, &due, pages)
                        })?;
                    }
                }
                while !in_flight.is_empty() {
                    committer.commit_oldest(&mut in_flight)?;
                }
                Ok(())
            })();
            // After a failed day nothing later is committed: wait for the
            // jobs still running and drop what they collected.
            for (_, _, job) in in_flight {
                let _ = job.join();
            }
            // A day still in the tail is earlier than any the driver
            // failed on, so its error comes first.
            committer.tail.shut_down().and(result)
        })
    }
}

/// A detached day still being collected: its day, due sources and job.
type InFlight<'scope> = (
    u32,
    Vec<Source>,
    ScopedJoinHandle<'scope, std::io::Result<DetachedDay>>,
);

/// The driver's side of committing: the run-wide dictionary the day's
/// rows are interned into, the study's counters, and the commit thread
/// that days reach strictly in day order.
struct Committer<'s, 'scope> {
    registry: &'s Registry,
    metrics: &'s StudyMetrics,
    dict: StringDict,
    /// How much of `dict` the commit thread already holds.
    synced: usize,
    interner: SldInterner,
    tail: TailThread<'scope>,
}

impl Committer<'_, '_> {
    /// Measures `day`: `collect` feeds the day's pages and returns its
    /// own telemetry; the driver's counters follow, and the day goes to
    /// the commit thread once the day before it has committed.
    fn commit(
        &mut self,
        day: u32,
        due: &[Source],
        collect: impl FnOnce(&mut DayPages<'_>) -> std::io::Result<Snapshot>,
    ) -> std::io::Result<()> {
        let before = self.registry.snapshot();
        self.metrics.days.inc();
        let mut pages = DayPages {
            dict: &mut self.dict,
            interner: &mut self.interner,
            pages: due
                .iter()
                .map(|&s| (PageBuilder::new(day, s), None))
                .collect(),
        };
        let collected = collect(&mut pages)?;
        let pages = pages.finish();
        for page in &pages {
            self.metrics.rows.add(u64::from(page.quality.attempted));
            self.metrics.data_points.add(page.data_points);
        }
        let mut telemetry = self.registry.snapshot().since(&before);
        telemetry.merge(&collected);
        let new_strings = (self.synced..self.dict.len())
            .filter_map(|id| self.dict.resolve(id as u32).map(str::to_owned))
            .collect();
        self.synced = self.dict.len();
        self.tail.hand_over(FinishedDay {
            day,
            pages,
            telemetry,
            new_strings,
        })
    }

    /// Waits for the oldest detached day, commits it and waits for its
    /// tail; a job that failed or panicked fails the run with its error.
    fn commit_oldest(&mut self, in_flight: &mut VecDeque<InFlight<'_>>) -> std::io::Result<()> {
        let Some((day, due, job)) = in_flight.pop_front() else {
            return Ok(());
        };
        let detached = match job.join() {
            Ok(collected) => {
                collected.map_err(|e| std::io::Error::new(e.kind(), format!("day {day}: {e}")))?
            }
            Err(panic) => {
                return Err(std::io::Error::other(format!(
                    "day {day}: collection job panicked: {}",
                    panic_message(&*panic)
                )));
            }
        };
        self.commit(day, &due, |pages| Ok(detached.feed(pages)))?;
        self.tail.wait_committed()
    }
}

/// The text of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown cause".to_string())
}

/// A measured day on its way to the commit thread.
struct FinishedDay {
    day: u32,
    pages: Vec<SourcePage>,
    telemetry: Snapshot,
    /// Strings the driver interned since the day before, in id order.
    new_strings: Vec<String>,
}

/// What the commit thread owns: the archive writer, its copy of the
/// run-wide dictionary (kept current from each day's new strings), the
/// observer and the progress hook.
struct Tail<'o> {
    writer: StoreWriter,
    dict: StringDict,
    observer: Option<&'o mut dyn DayObserver>,
    on_commit: Option<CommitHook>,
}

impl Tail<'_> {
    /// `day`'s tail: observer, pages, one durable commit, then the hook.
    fn commit_day(&mut self, day: FinishedDay) -> std::io::Result<()> {
        for s in &day.new_strings {
            self.dict.intern(s);
        }
        let qualities = append_day(
            &mut self.writer,
            &self.dict,
            day.day,
            day.pages,
            day.telemetry,
            self.observer.as_deref_mut(),
        )?;
        if let Some(hook) = self.on_commit.as_mut() {
            hook(day.day, &qualities);
        }
        Ok(())
    }
}

/// The driver's handle on the commit thread. It hands over one day at a
/// time: a day is sent only once the one before it has committed, and a
/// tail error stops the thread, so no later day commits.
struct TailThread<'scope> {
    days: mpsc::Sender<FinishedDay>,
    done: mpsc::Receiver<std::io::Result<()>>,
    /// A day was sent whose result has not been received.
    pending: bool,
    thread: ScopedJoinHandle<'scope, ()>,
}

impl<'scope> TailThread<'scope> {
    fn spawn<'env>(scope: &'scope Scope<'scope, 'env>, mut tail: Tail<'env>) -> Self {
        let (days, inbox) = mpsc::channel::<FinishedDay>();
        let (outbox, done) = mpsc::channel();
        let thread = scope.spawn(move || {
            for day in inbox {
                let result = tail.commit_day(day);
                let failed = result.is_err();
                if outbox.send(result).is_err() || failed {
                    break;
                }
            }
        });
        Self {
            days,
            done,
            pending: false,
            thread,
        }
    }

    /// Hands `day` over once the day in the tail, if any, has committed.
    fn hand_over(&mut self, day: FinishedDay) -> std::io::Result<()> {
        self.wait_committed()?;
        self.days
            .send(day)
            .map_err(|_| std::io::Error::other("the commit thread has stopped"))?;
        self.pending = true;
        Ok(())
    }

    /// Waits for the day in the tail, if any, to commit.
    fn wait_committed(&mut self) -> std::io::Result<()> {
        if !std::mem::take(&mut self.pending) {
            return Ok(());
        }
        self.done
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("the commit thread has stopped")))
    }

    /// Lets the day in the tail finish, then stops the thread.
    fn shut_down(mut self) -> std::io::Result<()> {
        let last = self.wait_committed();
        drop(self.days);
        match self.thread.join() {
            Ok(()) => last,
            Err(panic) => Err(std::io::Error::other(format!(
                "commit thread panicked: {}",
                panic_message(&*panic)
            ))),
        }
    }
}

/// The snapshot columns that hold dictionary ids.
const NAME_COLUMNS: [&str; 7] = ["sld", "cname1", "cname2", "ns1", "ns2", "nsh1", "nsh2"];

/// Interns raw rows into one (day, source) page in row order, tallying
/// the page's quality record as they pass. [`DayPages`] holds one per
/// due source, so every collector's rows encode identically.
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

    /// Appends `coded`'s rows after the rows so far, mapping their name
    /// columns from `coded`'s dictionary onto `dict`'s ids (see
    /// [`DayPages::push_coded`]).
    fn absorb(&mut self, coded: CodedRows, dict: &mut StringDict) {
        let CodedRows { page, dict: local } = coded;
        let ids: Vec<u32> = (0..local.len())
            .map(|id| local.resolve(id as u32).map_or(0, |s| dict.intern(s)))
            .collect();
        let mut rows = page.builder;
        for name in NAME_COLUMNS {
            let column = COLUMNS.iter().position(|c| *c == name);
            if let Some(values) = column.and_then(|i| rows.column_mut(i)) {
                for v in values {
                    *v = ids.get(*v as usize).copied().unwrap_or(0);
                }
            }
        }
        self.builder.append(rows);
        self.data_points += page.data_points;
        self.attempted += page.attempted;
        self.failed += page.failed;
        self.causes.merge(&page.causes);
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

/// One source's rows swept through `path` under fault-tolerant
/// supervision: first pass, dead-letter retry passes, and the
/// supervisor's quality record.
fn supervised_sweep(
    world: &World,
    path: &mut impl QueryPath,
    source: Source,
    day: u32,
    pfx2as: &Pfx2As,
    config: &SupervisorConfig,
    metrics: &SweepMetrics,
) -> SupervisedSweep {
    let jobs: Vec<(dps_dns::Name, u32)> = source_entries(world, source)
        .iter()
        .map(|&entry| (world.entry_name(entry), entry_code(entry)))
        .collect();
    sweep_supervised(path, &jobs, pfx2as, day, source, config, metrics)
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
    let sweep = supervised_sweep(world, path, source, day, &world.pfx2as(), config, metrics);
    let mut page = PageBuilder::new(day, source);
    for raw in sweep.rows {
        page.intern_row(raw, &mut store.dict, interner);
    }
    let page = page.finish();
    store.add_table(day, source, &page.table, page.data_points);
    store.add_quality(sweep.quality);
    sweep.quality
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

    /// A wire collector whose job for `fail_day` fails: with an `Err`,
    /// or by panicking.
    struct FailingDay {
        wire: WireCollector,
        fail_day: u32,
        panic: bool,
    }

    impl DayCollector for FailingDay {
        fn collect_day(
            &mut self,
            world: &World,
            day: u32,
            due: &[Source],
            pages: &mut DayPages<'_>,
        ) -> std::io::Result<Snapshot> {
            self.wire.collect_day(world, day, due, pages)
        }

        fn detach_day(&mut self, world: &World, day: u32, due: &[Source]) -> Option<DayJob> {
            if day != self.fail_day {
                return self.wire.detach_day(world, day, due);
            }
            let panic = self.panic;
            Some(Box::new(move || {
                if panic {
                    panic!("injected day-job panic");
                }
                Err(std::io::Error::other("injected day-job error"))
            }))
        }
    }

    /// A day job that fails or panics ends the run with its error; the
    /// archive then holds exactly the days before it — the bytes a run
    /// that stopped there writes — and no later day, though later days
    /// were already in flight.
    #[test]
    fn a_failing_day_job_ends_the_run_with_every_earlier_day_committed() {
        let params = ScenarioParams {
            seed: 8,
            scale: 0.004,
            gtld_days: 6,
            cc_start_day: 2,
        };
        let config = |days| StudyConfig {
            days,
            cc_start_day: 2,
            stride: 1,
        };
        let schedule = ChaosSchedule::parse("degrade@0..inf@loss=0.05").unwrap();
        let reference = temp_archive();
        Study::new(config(3))
            .with_chaos(schedule.clone())
            .run_archived(&mut World::imc2016(params), &reference, None)
            .unwrap();
        let want = std::fs::read(&reference).unwrap();
        std::fs::remove_file(&reference).ok();
        for panic in [false, true] {
            let path = temp_archive();
            let err = Study::new(config(6))
                .with_collector(FailingDay {
                    wire: WireCollector {
                        schedule: schedule.clone(),
                    },
                    fail_day: 3,
                    panic,
                })
                .run_archived(&mut World::imc2016(params), &path, None)
                .unwrap_err();
            let bytes = std::fs::read(&path).unwrap();
            let writer = StoreWriter::resume_or_create(&path, 1, Some(UNIQUE_KEY_COLUMN)).unwrap();
            let committed: Vec<u32> = (0..6)
                .filter(|&day| day_committed(&writer, &config(6), day))
                .collect();
            drop(writer);
            std::fs::remove_file(&path).ok();
            assert!(err.to_string().contains("injected day-job"), "{err}");
            assert!(err.to_string().contains("day 3"), "{err}");
            assert_eq!(committed, vec![0, 1, 2], "panic={panic}");
            assert!(
                bytes == want,
                "panic={panic}: archive differs from a 3-day run"
            );
        }
    }

    /// An observer whose checkpoint is the day's row count; it fails on
    /// `fail_day`.
    struct RowCounter {
        fail_day: Option<u32>,
    }

    impl DayObserver for RowCounter {
        fn on_day(
            &mut self,
            day: u32,
            pages: &[SourcePage],
            _dict: &StringDict,
        ) -> std::io::Result<(Table, Vec<(&'static str, u64)>)> {
            if self.fail_day == Some(day) {
                return Err(std::io::Error::other(format!(
                    "injected observer error {day}"
                )));
            }
            let rows: usize = pages.iter().map(|p| p.table.rows()).sum();
            let mut table = TableBuilder::new(dps_columnar::Schema::new(&["day", "rows"]));
            table.push_row(&[day, rows as u32]);
            Ok((table.finish(), vec![("test.observer.days", 1)]))
        }

        fn on_resume(&mut self, _day: u32, _table: &Table) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The days a commit hook reported, each with whether a fresh reader
    /// already saw it committed.
    type Seen = Arc<std::sync::Mutex<Vec<(u32, bool)>>>;

    /// A study whose hook records, for each day it reports, whether a
    /// fresh reader of `path` already sees the day committed.
    fn reporting_study(config: StudyConfig, path: &std::path::Path) -> (Study<'static>, Seen) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (hook_seen, hook_path) = (Arc::clone(&seen), path.to_path_buf());
        let study = Study::new(config).on_commit(move |day, _| {
            let visible = StoreReader::open_auto(&hook_path).is_ok_and(|r| {
                let pages = &r.catalog().pages;
                pages.contains_key(&(day, QUALITY_SOURCE))
                    && pages.contains_key(&(day, ANALYSIS_SOURCE))
            });
            if let Ok(mut seen) = hook_seen.lock() {
                seen.push((day, visible));
            }
        });
        (study, seen)
    }

    /// The commit thread: an observer error on day 3 fails the run with
    /// that error while days 0–2 stay committed and days 3–5 do not; the
    /// hook reports each committed day once, in order, after a reader can
    /// see it; and resuming with a healthy observer writes the bytes of
    /// an uninterrupted run.
    #[test]
    fn a_failing_tail_stops_the_run_at_its_day_and_resumes_byte_identically() {
        let config = StudyConfig {
            days: 6,
            cc_start_day: 2,
            stride: 1,
        };
        let reference = temp_archive();
        Study::new(config)
            .run_archived(
                &mut World::imc2016(ScenarioParams::tiny(4)),
                &reference,
                Some(&mut RowCounter { fail_day: None }),
            )
            .unwrap();
        let want = std::fs::read(&reference).unwrap();
        std::fs::remove_file(&reference).ok();

        let path = temp_archive();
        let (study, seen) = reporting_study(config, &path);
        let err = study
            .run_archived(
                &mut World::imc2016(ScenarioParams::tiny(4)),
                &path,
                Some(&mut RowCounter { fail_day: Some(3) }),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("injected observer error 3"),
            "{err}"
        );
        let writer = StoreWriter::resume_or_create(&path, 1, Some(UNIQUE_KEY_COLUMN)).unwrap();
        let committed: Vec<u32> = (0..6)
            .filter(|&day| day_committed(&writer, &config, day))
            .collect();
        drop(writer);
        assert_eq!(committed, vec![0, 1, 2]);
        assert_eq!(*seen.lock().unwrap(), vec![(0, true), (1, true), (2, true)]);

        let (study, seen) = reporting_study(config, &path);
        study
            .run_archived(
                &mut World::imc2016(ScenarioParams::tiny(4)),
                &path,
                Some(&mut RowCounter { fail_day: None }),
            )
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(*seen.lock().unwrap(), vec![(3, true), (4, true), (5, true)]);
        assert!(
            bytes == want,
            "resumed archive differs from an uninterrupted run"
        );
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
