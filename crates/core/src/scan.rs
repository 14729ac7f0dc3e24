//! The classification pass (§3.3): one scan over the measurement archive
//! producing daily series for every figure and per-domain reference
//! timelines for the always-on/on-demand analyses.

use crate::references::{CompiledRefs, RefKind};
use crate::util::DayBits;
use dps_measure::observation::Row;
use dps_measure::{SnapshotStore, Source};
use std::collections::HashMap;

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
    fn new(n_days: usize, n_providers: usize) -> Self {
        let zeros = || vec![0u32; n_days];
        Self {
            days: Vec::new(),
            zone_sizes: (0..5).map(|_| zeros()).collect(),
            provider_any: (0..n_providers).map(|_| zeros()).collect(),
            provider_asn: (0..n_providers).map(|_| zeros()).collect(),
            provider_cname: (0..n_providers).map(|_| zeros()).collect(),
            provider_ns: (0..n_providers).map(|_| zeros()).collect(),
            tld_any: (0..3).map(|_| zeros()).collect(),
            source_any: (0..5).map(|_| zeros()).collect(),
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
#[derive(Debug, Clone)]
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

/// The scanner.
pub struct Scanner<'a> {
    refs: &'a CompiledRefs,
}

impl<'a> Scanner<'a> {
    /// A scanner using the given compiled references.
    pub fn new(refs: &'a CompiledRefs) -> Self {
        Self { refs }
    }

    /// Runs the full pass over an in-memory snapshot store. Day tables are
    /// decoded and classified on the MapReduce worker pool (one map task
    /// per day table); per-day partial results are merged on the caller
    /// thread.
    pub fn run(&self, store: &SnapshotStore) -> ScanOutput {
        let days = store.days(Source::Com);
        let day_pos: HashMap<u32, usize> = days.iter().enumerate().map(|(i, &d)| (d, i)).collect();

        // Gather all (source, day, encoded table) map tasks.
        let mut tasks: Vec<(Source, u32, &[u8])> = Vec::new();
        for source in dps_measure::SOURCES {
            for (day, bytes) in store.encoded(source) {
                if day_pos.contains_key(&day) {
                    tasks.push((source, day, bytes));
                }
            }
        }

        let partials = dps_columnar::mapreduce::par_map(&tasks, |&(source, day, bytes)| {
            let table = dps_columnar::Table::from_bytes(bytes).expect("store holds valid tables");
            self.map_day(source, day, &table)
        });

        self.merge(days, partials)
    }

    /// Runs the full pass over either archive layout. For a sharded
    /// archive each shard's sub-page is its own map task, so one logical
    /// day table is classified by up to `n_shards` workers in parallel;
    /// merging sums the per-shard partials (row counts and classification
    /// counts are per-row, so shard sums equal the logical totals, and
    /// reference timelines are day-bit sets, which are order-independent).
    pub fn run_store(&self, store: &dps_store::StoreReader) -> std::io::Result<ScanOutput> {
        let days = store.catalog().days(Source::Com.index() as u8);
        let day_pos: HashMap<u32, usize> = days.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let n_shards = store.n_shards();

        let mut tasks: Vec<(Source, u32, u32)> = Vec::new();
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
            if day_pos.contains_key(&day) {
                for shard in 0..n_shards {
                    tasks.push((source, day, shard));
                }
            }
        }
        // Table 1 order (sources outer, days inner), shards innermost so
        // a shard's partials land adjacent and the merge stays identical
        // to the unsharded pass.
        tasks.sort_by_key(|&(source, day, shard)| (source.index(), day, shard));

        let results = dps_columnar::mapreduce::par_map(&tasks, |&(source, day, shard)| {
            let table = store
                .shard_table(shard, day, source.index() as u8)?
                .ok_or_else(|| std::io::Error::other("catalog-listed page missing"))?;
            Ok::<_, std::io::Error>(self.map_day(source, day, &table))
        });
        let partials = results.into_iter().collect::<std::io::Result<Vec<_>>>()?;

        Ok(self.merge(days, partials))
    }

    /// Merges per-day partials into the final output (deterministic:
    /// partials arrive in task order).
    fn merge(&self, days: Vec<u32>, partials: Vec<DayPartial>) -> ScanOutput {
        let n_days = days.len();
        let day_pos: HashMap<u32, usize> = days.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut series = SeriesSet::new(n_days, self.refs.n);
        series.days = days.clone();
        let mut timelines = Timelines {
            days,
            map: HashMap::new(),
        };

        for partial in partials {
            let di = day_pos[&partial.day];
            let src = partial.source.index();
            // Accumulate rather than assign: a sharded archive yields one
            // partial per (source, day, shard) whose counts sum to the
            // logical page's; an unsharded pass has exactly one partial
            // per (source, day), so += and = coincide there.
            series.zone_sizes[src][di] += partial.rows;
            series.source_any[src][di] += partial.source_any;
            let gtld = matches!(partial.source, Source::Com | Source::Net | Source::Org);
            if !gtld {
                continue;
            }
            series.tld_any[src][di] += partial.source_any;
            for (p, counts) in partial.provider_counts.iter().enumerate() {
                series.provider_any[p][di] += counts[0];
                series.provider_asn[p][di] += counts[1];
                series.provider_cname[p][di] += counts[2];
                series.provider_ns[p][di] += counts[3];
            }
            for (entry, p, kinds) in partial.references {
                let tl = timelines.map.entry((entry, p)).or_insert_with(|| Timeline {
                    any: DayBits::new(n_days),
                    asn: DayBits::new(n_days),
                    cname: DayBits::new(n_days),
                    ns: DayBits::new(n_days),
                });
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
        ScanOutput { series, timelines }
    }

    /// Map task: classify one decoded day table into a partial result.
    fn map_day(&self, source: Source, day: u32, table: &dps_columnar::Table) -> DayPartial {
        let cols: Vec<&[u32]> = (0..table.schema().width())
            .map(|c| table.column(c))
            .collect();
        let gtld = matches!(source, Source::Com | Source::Net | Source::Org);
        let mut partial = DayPartial {
            source,
            day,
            rows: table.rows() as u32,
            source_any: 0,
            provider_counts: vec![[0; 4]; self.refs.n],
            references: Vec::new(),
        };
        for i in 0..table.rows() {
            let (_, _, row) = Row::unpack(&cols, i);
            let found = self.refs.classify(&row);
            if found.is_empty() {
                continue;
            }
            partial.source_any += 1;
            if !gtld {
                continue;
            }
            for &(p, kinds) in &found {
                let counts = &mut partial.provider_counts[p as usize];
                counts[0] += 1;
                counts[1] += u32::from(kinds.contains(RefKind::ASN));
                counts[2] += u32::from(kinds.contains(RefKind::CNAME));
                counts[3] += u32::from(kinds.contains(RefKind::NS));
                partial.references.push((row.entry, p, kinds));
            }
        }
        partial
    }
}

/// Partial classification result of one day table (the map output).
struct DayPartial {
    source: Source,
    day: u32,
    rows: u32,
    source_any: u32,
    /// Per provider: `[any, asn, cname, ns]`.
    provider_counts: Vec<[u32; 4]>,
    references: Vec<(u32, u8, RefKind)>,
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
        let archive = dps_store::StoreReader::Single(dps_store::Archive::open(&path).unwrap());
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
        assert_eq!(arch.timelines.map.len(), mem.timelines.map.len());
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
        assert_eq!(sharded.timelines.map.len(), mem.timelines.map.len());
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
