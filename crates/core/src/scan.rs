//! The classification pass (§3.3): one scan over the measurement archive
//! producing daily series for every figure and per-domain reference
//! timelines for the always-on/on-demand analyses.

use crate::references::{CompiledRefs, Matches, RefKind};
use crate::util::DayBits;
use dps_columnar::Table;
use dps_measure::observation::SCAN_COLUMNS;
use dps_measure::{SnapshotStore, Source, SOURCES};
use std::collections::{BTreeMap, HashMap};

/// Daily count series aligned to `days`.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Measured gTLD days, ascending.
    pub days: Vec<u32>,
    /// Rows per day per source (zone size; 0 before a source starts).
    pub zone_sizes: Vec<Vec<u32>>,
    /// Per provider: domains (SLDs) with any reference, gTLD sources.
    pub provider_any: Vec<Vec<u32>>,
    /// Per provider: domains with an ASN reference.
    pub provider_asn: Vec<Vec<u32>>,
    /// Per provider: domains with a CNAME reference.
    pub provider_cname: Vec<Vec<u32>>,
    /// Per provider: domains with an NS reference.
    pub provider_ns: Vec<Vec<u32>>,
    /// Domains using any provider, per gTLD source (Fig. 2 lines).
    pub tld_any: Vec<Vec<u32>>,
    /// Domains using any provider, per source incl. .nl / Alexa (Fig. 6).
    pub source_any: Vec<Vec<u32>>,
}

impl SeriesSet {
    /// An empty set over no days; [`ScanFold::push`] appends each day.
    fn new(n_providers: usize) -> Self {
        let empty = |n: usize| vec![Vec::new(); n];
        Self {
            days: Vec::new(),
            zone_sizes: empty(SOURCES.len()),
            provider_any: empty(n_providers),
            provider_asn: empty(n_providers),
            provider_cname: empty(n_providers),
            provider_ns: empty(n_providers),
            tld_any: empty(GTLD_SOURCES),
            source_any: empty(SOURCES.len()),
        }
    }

    /// Combined gTLD any-provider series (Fig. 2 "Combined").
    pub fn combined_any(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.days.len()];
        for tld in &self.tld_any {
            for (o, v) in out.iter_mut().zip(tld) {
                *o += v;
            }
        }
        out
    }

    /// Combined gTLD zone size (overall namespace expansion baseline).
    pub fn combined_zone_size(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.days.len()];
        for src in 0..3 {
            for (o, v) in out.iter_mut().zip(&self.zone_sizes[src]) {
                *o += v;
            }
        }
        out
    }

    /// Position of a day in the series.
    pub fn day_index(&self, day: u32) -> Option<usize> {
        self.days.binary_search(&day).ok()
    }
}

/// Per-domain, per-provider reference timeline over the gTLD window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Days with any reference.
    pub any: DayBits,
    /// Days with an ASN reference (traffic actually diverted).
    pub asn: DayBits,
    /// Days with a CNAME reference.
    pub cname: DayBits,
    /// Days with an NS reference.
    pub ns: DayBits,
}

/// All timelines, keyed by `(entry, provider)`.
#[derive(Debug, Clone)]
pub struct Timelines {
    /// Measured days the bit positions refer to.
    pub days: Vec<u32>,
    /// Timeline per referencing `(entry, provider)` pair.
    pub map: HashMap<(u32, u8), Timeline>,
}

/// Output of the scan.
#[derive(Debug, Clone)]
pub struct ScanOutput {
    /// Daily series.
    pub series: SeriesSet,
    /// Per-domain timelines (gTLD sources only).
    pub timelines: Timelines,
}

/// Number of gTLD sources (`.com`, `.net`, `.org`): the first three
/// [`SOURCES`], the only ones with provider counts and timelines.
const GTLD_SOURCES: usize = 3;

/// One day's classification: the map output of one page, and, summed
/// with `+=` over the day's sources and shards (partials over the same
/// providers), the unit [`ScanFold`] folds. Every field is additive, so
/// the sum of a day's partials does not depend on how its rows were
/// split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayPartial {
    /// Rows per source (zone size), indexed by [`Source::index`].
    pub rows: [u32; SOURCES.len()],
    /// Rows referencing any provider, per source.
    pub source_any: [u32; SOURCES.len()],
    /// Per provider: `[any, asn, cname, ns]` row counts, gTLD sources
    /// only.
    pub providers: Vec<[u32; 4]>,
    /// `(entry, provider, kinds)` of every referencing gTLD row, in row
    /// order.
    pub references: Vec<(u32, u8, RefKind)>,
}

impl DayPartial {
    /// An empty partial over `n_providers` providers.
    pub fn new(n_providers: usize) -> Self {
        Self {
            rows: [0; SOURCES.len()],
            source_any: [0; SOURCES.len()],
            providers: vec![[0; 4]; n_providers],
            references: Vec::new(),
        }
    }
}

impl std::ops::AddAssign for DayPartial {
    fn add_assign(&mut self, other: Self) {
        for (a, b) in self.rows.iter_mut().zip(other.rows) {
            *a += b;
        }
        for (a, b) in self.source_any.iter_mut().zip(other.source_any) {
            *a += b;
        }
        for (a, b) in self.providers.iter_mut().zip(other.providers) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.references.extend(other.references);
    }
}

/// The reduce side of the scan: folds one [`DayPartial`] per day, in
/// ascending day order, into the series and timelines. It holds no page
/// and needs no day list up front, so a full scan and the stream engine
/// (which learns each day as it commits) fold the same way.
#[derive(Debug, Clone)]
pub struct ScanFold {
    series: SeriesSet,
    timelines: HashMap<(u32, u8), Timeline>,
}

impl ScanFold {
    /// An empty fold over `n_providers` providers.
    pub fn new(n_providers: usize) -> Self {
        Self {
            series: SeriesSet::new(n_providers),
            timelines: HashMap::new(),
        }
    }

    /// Days folded so far, ascending.
    pub fn days(&self) -> &[u32] {
        &self.series.days
    }

    /// Appends `day`'s summed partial. A timeline's day bits grow as
    /// they are set; [`finish`](Self::finish) pads them to the day count.
    ///
    /// # Panics
    ///
    /// If `day` is not above every day folded so far.
    pub fn push(&mut self, day: u32, partial: &DayPartial) {
        assert!(
            self.series.days.last() < Some(&day),
            "days fold in ascending order"
        );
        let di = self.series.days.len();
        let series = &mut self.series;
        series.days.push(day);
        append(&mut series.zone_sizes, partial.rows);
        append(&mut series.source_any, partial.source_any);
        append(&mut series.tld_any, partial.source_any);
        let counts = &partial.providers;
        append(
            &mut series.provider_any,
            counts.iter().map(|&[any, ..]| any),
        );
        append(
            &mut series.provider_asn,
            counts.iter().map(|&[_, asn, ..]| asn),
        );
        append(
            &mut series.provider_cname,
            counts.iter().map(|&[.., cname, _]| cname),
        );
        append(&mut series.provider_ns, counts.iter().map(|&[.., ns]| ns));
        for &(entry, p, kinds) in &partial.references {
            let tl = self.timelines.entry((entry, p)).or_default();
            tl.any.set(di);
            if kinds.contains(RefKind::ASN) {
                tl.asn.set(di);
            }
            if kinds.contains(RefKind::CNAME) {
                tl.cname.set(di);
            }
            if kinds.contains(RefKind::NS) {
                tl.ns.set(di);
            }
        }
    }

    /// The folded output, every timeline spanning every folded day.
    pub fn finish(mut self) -> ScanOutput {
        let n_days = self.series.days.len();
        for tl in self.timelines.values_mut() {
            for bits in [&mut tl.any, &mut tl.asn, &mut tl.cname, &mut tl.ns] {
                bits.extend_to(n_days);
            }
        }
        ScanOutput {
            timelines: Timelines {
                days: self.series.days.clone(),
                map: self.timelines,
            },
            series: self.series,
        }
    }
}

/// Appends one day's value to each series, 0 where `values` runs out.
fn append(series: &mut [Vec<u32>], values: impl IntoIterator<Item = u32>) {
    let values = values.into_iter().chain(std::iter::repeat(0));
    for (s, v) in series.iter_mut().zip(values) {
        s.push(v);
    }
}

/// The scanner.
pub struct Scanner<'a> {
    refs: &'a CompiledRefs,
}

impl<'a> Scanner<'a> {
    /// A scanner using the given compiled references.
    pub fn new(refs: &'a CompiledRefs) -> Self {
        Self { refs }
    }

    /// Runs the full pass over an in-memory snapshot store, one map task
    /// per day table. Each task decodes only the kernel's
    /// [`SCAN_COLUMNS`] of its page.
    pub fn run(&self, store: &SnapshotStore) -> ScanOutput {
        let days = store.days(Source::Com);
        let mut tasks: Vec<(u32, Source, &[u8])> = Vec::new();
        for source in SOURCES {
            for (day, bytes) in store.encoded(source) {
                if days.binary_search(&day).is_ok() {
                    tasks.push((day, source, bytes));
                }
            }
        }
        self.map_fold(&tasks, |&(_, source, bytes)| {
            let table =
                Table::from_bytes_projected(bytes, &SCAN_COLUMNS).map_err(std::io::Error::other)?;
            self.classify_table(source, &table)
        })
        .expect("store holds valid tables")
    }

    /// Runs the full pass over either archive layout. For a sharded
    /// archive each shard's sub-page is its own map task, so one logical
    /// day table is classified by up to `n_shards` workers in parallel;
    /// the day's shard partials sum to the logical page's.
    pub fn run_store(&self, store: &dps_store::StoreReader) -> std::io::Result<ScanOutput> {
        let days = store.catalog().days(Source::Com.index() as u8);
        let mut tasks: Vec<(u32, Source, u32)> = Vec::new();
        for &(day, source) in store.catalog().pages.keys() {
            if source == dps_measure::QUALITY_SOURCE
                || source == dps_measure::TELEMETRY_SOURCE
                || source == dps_measure::ANALYSIS_SOURCE
            {
                // Per-day quality records, telemetry snapshots and
                // streaming-analysis checkpoints ride in the same archive
                // but are not measurement data; the mask layer, `dpscope
                // metrics` and `dps-stream` read them instead.
                continue;
            }
            let source = Source::from_index(u32::from(source))
                .ok_or_else(|| std::io::Error::other("archive has an unknown source id"))?;
            if days.binary_search(&day).is_ok() {
                tasks.extend((0..store.n_shards()).map(|shard| (day, source, shard)));
            }
        }
        self.map_fold(&tasks, |&(day, source, shard)| {
            let table = store
                .shard_table(shard, day, source.index() as u8)?
                .ok_or_else(|| std::io::Error::other("catalog-listed page missing"))?;
            self.classify_table(source, &table)
        })
    }

    /// Maps `(day, source, page)` tasks to partials on the worker pool,
    /// sums each day's partials and folds the days in ascending order.
    fn map_fold<X: Sync>(
        &self,
        tasks: &[(u32, Source, X)],
        map: impl Fn(&(u32, Source, X)) -> std::io::Result<DayPartial> + Sync,
    ) -> std::io::Result<ScanOutput> {
        let partials = dps_columnar::mapreduce::par_map(tasks, map);
        let mut by_day: BTreeMap<u32, DayPartial> = BTreeMap::new();
        for (&(day, ..), partial) in tasks.iter().zip(partials) {
            *by_day
                .entry(day)
                .or_insert_with(|| DayPartial::new(self.refs.n)) += partial?;
        }
        let mut fold = ScanFold::new(self.refs.n);
        for (day, partial) in by_day {
            fold.push(day, &partial);
        }
        Ok(fold.finish())
    }

    /// The row kernel: classifies one decoded table of `source` into a
    /// partial. It reads the [`SCAN_COLUMNS`] by name, so `table` may be
    /// a full decode or a projection holding at least those columns; a
    /// table missing one is an error.
    pub fn classify_table(&self, source: Source, table: &Table) -> std::io::Result<DayPartial> {
        let cols = KernelColumns::of(table)?;
        let src = source.index();
        let gtld = src < GTLD_SOURCES;
        let mut partial = DayPartial::new(self.refs.n);
        partial.rows[src] = table.rows() as u32;
        for i in 0..table.rows() {
            let found = cols.classify(self.refs, i);
            if found.is_empty() {
                continue;
            }
            partial.source_any[src] += 1;
            if !gtld {
                continue;
            }
            let entry = cols.entry[i];
            for &(p, kinds) in found.iter() {
                let counts = &mut partial.providers[p as usize];
                counts[0] += 1;
                counts[1] += u32::from(kinds.contains(RefKind::ASN));
                counts[2] += u32::from(kinds.contains(RefKind::CNAME));
                counts[3] += u32::from(kinds.contains(RefKind::NS));
                partial.references.push((entry, p, kinds));
            }
        }
        Ok(partial)
    }
}

/// The [`SCAN_COLUMNS`] of one decoded table, looked up by name once per
/// table, so the kernel runs on a full decode and a projected one alike.
/// Every column is exactly the table's row count long.
pub(crate) struct KernelColumns<'t> {
    /// Zone-entry codes.
    pub(crate) entry: &'t [u32],
    cname: [&'t [u32]; 2],
    ns: [&'t [u32]; 2],
    asn1: &'t [u32],
    asn2: &'t [u32],
    wasnx: &'t [u32],
    aaaa_asn: &'t [u32],
    failed: &'t [u32],
}

impl<'t> KernelColumns<'t> {
    /// The kernel's columns of `table`, or an error naming the first one
    /// it lacks.
    pub(crate) fn of(table: &'t Table) -> std::io::Result<Self> {
        let col = |name| column(table, name);
        Ok(Self {
            entry: col("entry")?,
            cname: [col("cname1")?, col("cname2")?],
            ns: [col("ns1")?, col("ns2")?],
            asn1: col("asn1")?,
            asn2: col("asn2")?,
            wasnx: col("wasnx")?,
            aaaa_asn: col("aaaa_asn")?,
            failed: col("failed")?,
        })
    }

    /// The `(provider, kinds)` pairs row `i` references; none for a
    /// failed row.
    pub(crate) fn classify(&self, refs: &CompiledRefs, i: usize) -> Matches {
        if self.failed[i] != 0 {
            return Matches::default();
        }
        let asn1 = self.asn1[i];
        refs.classify_keys(
            [asn1, self.asn2[i], self.wasnx[i] ^ asn1, self.aaaa_asn[i]],
            [self.cname[0][i], self.cname[1][i]],
            [self.ns[0][i], self.ns[1][i]],
        )
    }
}

/// Column `name` of `table`, checked to span every row.
pub(crate) fn column<'t>(table: &'t Table, name: &str) -> std::io::Result<&'t [u32]> {
    table
        .column_by_name(name)
        .filter(|c| c.len() == table.rows())
        .ok_or_else(|| std::io::Error::other(format!("table has no {name} column")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::references::ProviderRefs;
    use crate::testing::{swept, temp_archive};
    use dps_ecosystem::{ScenarioParams, World};
    use dps_measure::{SnapshotStore, Study, StudyConfig};

    fn scanned() -> ScanOutput {
        let mut world = World::imc2016(ScenarioParams::tiny(11));
        let config = StudyConfig {
            days: 30,
            cc_start_day: 20,
            stride: 1,
        };
        let store = swept(&mut world, config);
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        Scanner::new(&refs).run(&store)
    }

    #[test]
    fn series_have_use_counts() {
        let out = scanned();
        assert_eq!(out.series.days.len(), 30);
        let combined = out.series.combined_any();
        assert!(combined[0] > 0, "day-0 DPS users exist: {combined:?}");
        // CloudFlare is the biggest provider in any seed.
        let cf: usize = 2;
        assert!(out.series.provider_any[cf].iter().all(|&c| c > 0));
        // NS-heavy CloudFlare: NS counts close to any counts (≈75%+).
        let any: u32 = out.series.provider_any[cf][0];
        let ns: u32 = out.series.provider_ns[cf][0];
        assert!(ns * 10 >= any * 5, "ns={ns} any={any}");
    }

    #[test]
    fn zone_sizes_follow_sources() {
        let out = scanned();
        assert!(out.series.zone_sizes[0][0] > 0, ".com swept from day 0");
        assert_eq!(
            out.series.zone_sizes[3][0], 0,
            ".nl not swept before cc start"
        );
        assert!(out.series.zone_sizes[3][25] > 0, ".nl swept after cc start");
        assert!(out.series.source_any[4][25] > 0, "Alexa has DPS users");
    }

    #[test]
    fn timelines_cover_always_on_domains() {
        let out = scanned();
        assert!(!out.timelines.map.is_empty());
        // Some domain should reference one provider on every measured day.
        let full = out
            .timelines
            .map
            .values()
            .filter(|t| t.any.count() == 30)
            .count();
        assert!(full > 0, "always-on timelines exist");
    }

    #[test]
    fn archive_scan_matches_in_memory_scan() {
        let mut world = World::imc2016(ScenarioParams::tiny(11));
        let config = StudyConfig {
            days: 10,
            cc_start_day: 6,
            stride: 1,
        };
        let path = temp_archive();
        Study::new(config)
            .run_archived(&mut world, &path, None)
            .unwrap();
        let store = SnapshotStore::load_archive(&path).unwrap();
        let archive = dps_store::StoreReader::open_auto(&path).unwrap();
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let scanner = Scanner::new(&refs);
        let mem = scanner.run(&store);
        let arch = scanner.run_store(&archive).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(arch.series.days, mem.series.days);
        assert_eq!(arch.series.zone_sizes, mem.series.zone_sizes);
        assert_eq!(arch.series.provider_any, mem.series.provider_any);
        assert_eq!(arch.series.provider_asn, mem.series.provider_asn);
        assert_eq!(arch.series.provider_cname, mem.series.provider_cname);
        assert_eq!(arch.series.provider_ns, mem.series.provider_ns);
        assert_eq!(arch.series.tld_any, mem.series.tld_any);
        assert_eq!(arch.series.source_any, mem.series.source_any);
        assert_eq!(arch.timelines.days, mem.timelines.days);
        assert_eq!(arch.timelines.map, mem.timelines.map);
    }

    /// `run_store` over a sharded archive must reproduce the scan of the
    /// single-file archive exactly: per-shard partials sum back to the
    /// logical page counts, so shard count is invisible in every output
    /// series.
    #[test]
    fn sharded_scan_matches_single_file_scan() {
        let mut world = World::imc2016(ScenarioParams::tiny(11));
        let config = StudyConfig {
            days: 10,
            cc_start_day: 6,
            stride: 1,
        };
        let store = swept(&mut world, config);
        let dir =
            std::env::temp_dir().join(format!("dps-core-scan-sharded-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("archive.dps");
        let mut world = World::imc2016(ScenarioParams::tiny(11));
        Study::new(config)
            .with_shards(3)
            .run_archived(&mut world, &path, None)
            .unwrap();
        let reader = dps_store::StoreReader::open_auto(&path).unwrap();
        assert!(reader.is_sharded());
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let scanner = Scanner::new(&refs);
        let mem = scanner.run(&store);
        let sharded = scanner.run_store(&reader).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(sharded.series.days, mem.series.days);
        assert_eq!(sharded.series.zone_sizes, mem.series.zone_sizes);
        assert_eq!(sharded.series.provider_any, mem.series.provider_any);
        assert_eq!(sharded.series.provider_asn, mem.series.provider_asn);
        assert_eq!(sharded.series.provider_cname, mem.series.provider_cname);
        assert_eq!(sharded.series.provider_ns, mem.series.provider_ns);
        assert_eq!(sharded.series.tld_any, mem.series.tld_any);
        assert_eq!(sharded.series.source_any, mem.series.source_any);
        assert_eq!(sharded.timelines.days, mem.timelines.days);
        assert_eq!(sharded.timelines.map, mem.timelines.map);
    }

    /// The kernel reads its columns by name: a full decode and the
    /// projected decode of the same page classify to equal partials, and
    /// a table lacking a kernel column is an error, not a panic.
    #[test]
    fn full_and_projected_tables_classify_alike() {
        let mut world = World::imc2016(ScenarioParams::tiny(11));
        let config = StudyConfig {
            days: 8,
            cc_start_day: 4,
            stride: 1,
        };
        let store = swept(&mut world, config);
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let scanner = Scanner::new(&refs);
        let mut referencing = 0;
        for source in SOURCES {
            for (_, bytes) in store.encoded(source) {
                let full = Table::from_bytes(bytes).unwrap();
                let projected = Table::from_bytes_projected(bytes, &SCAN_COLUMNS).unwrap();
                assert_eq!(projected.schema().width(), SCAN_COLUMNS.len());
                let a = scanner.classify_table(source, &full).unwrap();
                let b = scanner.classify_table(source, &projected).unwrap();
                assert_eq!(a, b);
                referencing += a.source_any[source.index()];
            }
        }
        assert!(referencing > 0, "some rows reference a provider");
        let (_, bytes) = store.encoded(Source::Com)[0];
        let narrow = Table::from_bytes_projected(bytes, &SCAN_COLUMNS[..9]).unwrap();
        let err = scanner.classify_table(Source::Com, &narrow).unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
    }

    #[test]
    fn asn_is_subset_of_any() {
        let out = scanned();
        for tl in out.timelines.map.values() {
            for i in 0..tl.any.len() {
                if tl.asn.get(i) {
                    assert!(tl.any.get(i));
                }
            }
        }
    }
}
