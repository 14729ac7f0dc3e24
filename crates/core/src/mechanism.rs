//! On-demand diversion-mechanism identification (§3.4).
//!
//! > "In this case, CNAME, NS, and ASN (non-)references reveal
//! > specifically how on-demand traffic diversion was effected. For
//! > example, a domain for which the ASN of an unchanged IP address
//! > references a DPS on and off suggests BGP-based traffic diversion."
//!
//! For every on-demand domain (≥3 peaks) this module compares the
//! domain's DNS footprint on diverted vs undiverted days and assigns the
//! §2 mechanism: an A-record flip (address changes, customer DNS),
//! a CNAME flip (alias appears with the diversion), an NS-based change
//! (delegation constant, the provider flips the address), or BGP
//! diversion (address literally unchanged while its origin AS flips).

use crate::peaks::{classify_mode, UseMode};
use crate::references::{CompiledRefs, RefKind};
use crate::scan::{column, KernelColumns, Timelines};
use crate::util::DayBits;
use dps_measure::observation::SCAN_COLUMNS;
use dps_measure::{SnapshotStore, Source};
use std::collections::HashMap;
use std::fmt;

/// How an on-demand domain turns diversion on (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Owner changes A records between hoster and provider addresses.
    ARecordChange,
    /// A CNAME into the provider appears on diverted days.
    CnameChange,
    /// The provider runs the zone throughout and flips the address.
    NsManaged,
    /// The address never changes; its BGP origin flips to the provider.
    BgpDiversion,
    /// Not enough evidence (e.g. measurements failed on key days).
    Unclear,
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ARecordChange => write!(f, "A-record change"),
            Self::CnameChange => write!(f, "CNAME change"),
            Self::NsManaged => write!(f, "NS-managed flip"),
            Self::BgpDiversion => write!(f, "BGP diversion"),
            Self::Unclear => write!(f, "unclear"),
        }
    }
}

/// Per-provider histogram of on-demand mechanisms.
#[derive(Debug, Clone, Default)]
pub struct MechanismBreakdown {
    /// `(mechanism, domains)` pairs, descending by count.
    pub histogram: Vec<(Mechanism, u32)>,
}

/// Footprint of one domain on one sampled day.
#[derive(Debug, Clone, Copy, Default)]
struct DaySample {
    diverted: bool,
    apex_v4: u32,
    has_provider_cname: bool,
    has_provider_ns: bool,
}

/// Classifies the on-demand population of every provider from its
/// footprint on every measured gTLD day.
pub fn analyze(
    store: &SnapshotStore,
    refs: &CompiledRefs,
    timelines: &Timelines,
) -> Vec<MechanismBreakdown> {
    // 1. The on-demand population per provider.
    let mut on_demand: HashMap<u32, Vec<u8>> = HashMap::new();
    for (&(entry, provider), tl) in &timelines.map {
        if classify_mode(&tl.asn) == UseMode::OnDemand {
            on_demand.entry(entry).or_default().push(provider);
        }
    }
    let wanted = Wanted::new(on_demand);

    // 2. Footprints of exactly those domains: one map task per page,
    // merged in (source, day) order so every domain's samples stay in
    // day order.
    let pages: Vec<&[u8]> = [Source::Com, Source::Net, Source::Org]
        .into_iter()
        .flat_map(|source| store.encoded(source))
        .map(|(_, bytes)| bytes)
        .collect();
    let per_page =
        dps_columnar::mapreduce::par_map(&pages, |bytes| page_samples(bytes, refs, &wanted));
    let mut samples: HashMap<(u32, u8), Vec<DaySample>> = HashMap::new();
    for (key, sample) in per_page.into_iter().flatten() {
        samples.entry(key).or_default().push(sample);
    }

    // 3. Classify each domain.
    let mut out: Vec<HashMap<Mechanism, u32>> = (0..refs.n).map(|_| HashMap::new()).collect();
    for ((_entry, provider), days) in samples {
        let mech = classify_samples(&days);
        *out[provider as usize].entry(mech).or_default() += 1;
    }
    out.into_iter()
        .map(|hist| {
            let mut histogram: Vec<(Mechanism, u32)> = hist.into_iter().collect();
            histogram.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            MechanismBreakdown { histogram }
        })
        .collect()
}

/// The on-demand entries to sample and the providers each is wanted
/// for. Membership is a dense bitset over entry codes (a [`DayBits`]
/// indexed by entry), sized once by the largest wanted one, so the
/// per-row test is one bit read; only a wanted row looks up its
/// providers.
struct Wanted {
    entries: DayBits,
    providers: HashMap<u32, Vec<u8>>,
}

impl Wanted {
    fn new(providers: HashMap<u32, Vec<u8>>) -> Self {
        let len = providers.keys().max().map_or(0, |&e| e as usize + 1);
        let mut entries = DayBits::new(len);
        for &entry in providers.keys() {
            entries.set(entry as usize);
        }
        Self { entries, providers }
    }

    /// The providers `entry` is wanted for, if any.
    fn get(&self, entry: u32) -> Option<&[u8]> {
        if !self.entries.get(entry as usize) {
            return None;
        }
        self.providers.get(&entry).map(Vec::as_slice)
    }
}

/// The columns the mechanism pass decodes: the kernel's, plus the apex
/// address it compares across days.
const SAMPLE_COLUMNS: [&str; SCAN_COLUMNS.len() + 1] = {
    let mut cols = ["apex_v4"; SCAN_COLUMNS.len() + 1];
    let mut i = 0;
    while i < SCAN_COLUMNS.len() {
        cols[i] = SCAN_COLUMNS[i];
        i += 1;
    }
    cols
};

/// The footprint samples of one encoded day table: one per row of a
/// wanted domain and each provider it is wanted for, in row order.
fn page_samples(bytes: &[u8], refs: &CompiledRefs, wanted: &Wanted) -> Vec<((u32, u8), DaySample)> {
    let table = dps_columnar::Table::from_bytes_projected(bytes, &SAMPLE_COLUMNS)
        .expect("store holds valid tables");
    let (cols, apex_v4) = KernelColumns::of(&table)
        .and_then(|cols| Ok((cols, column(&table, "apex_v4")?)))
        .expect("a projected table holds its columns");
    let mut out = Vec::new();
    for (i, &entry) in cols.entry.iter().enumerate() {
        let Some(providers) = wanted.get(entry) else {
            continue;
        };
        let found = cols.classify(refs, i);
        for &p in providers {
            let kinds = found.kinds_of(p);
            out.push((
                (entry, p),
                DaySample {
                    diverted: kinds.contains(RefKind::ASN),
                    apex_v4: apex_v4[i],
                    has_provider_cname: kinds.contains(RefKind::CNAME),
                    has_provider_ns: kinds.contains(RefKind::NS),
                },
            ));
        }
    }
    out
}

fn classify_samples(days: &[DaySample]) -> Mechanism {
    let on: Vec<&DaySample> = days.iter().filter(|d| d.diverted).collect();
    let off: Vec<&DaySample> = days
        .iter()
        .filter(|d| !d.diverted && d.apex_v4 != 0)
        .collect();
    if on.is_empty() || off.is_empty() {
        return Mechanism::Unclear;
    }
    // BGP: the address observed while diverted also occurs undiverted.
    let on_addrs: std::collections::HashSet<u32> = on.iter().map(|d| d.apex_v4).collect();
    let off_addrs: std::collections::HashSet<u32> = off.iter().map(|d| d.apex_v4).collect();
    if !on_addrs.is_disjoint(&off_addrs) {
        return Mechanism::BgpDiversion;
    }
    // NS-based: the provider serves the zone on both sides of the flip.
    if on.iter().all(|d| d.has_provider_ns) && off.iter().all(|d| d.has_provider_ns) {
        return Mechanism::NsManaged;
    }
    // CNAME-based: the alias exists exactly on diverted days.
    if on.iter().any(|d| d.has_provider_cname) && !off.iter().any(|d| d.has_provider_cname) {
        return Mechanism::CnameChange;
    }
    Mechanism::ARecordChange
}

/// Renders the per-provider histograms.
pub fn render(breakdowns: &[MechanismBreakdown], names: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (p, b) in breakdowns.iter().enumerate() {
        if b.histogram.is_empty() {
            continue;
        }
        let _ = write!(out, "{:<14}", names[p]);
        for (mech, count) in &b.histogram {
            let _ = write!(out, " {mech}: {count} ");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_measure::observation::Row;

    fn sample(diverted: bool, addr: u32, cname: bool, ns: bool) -> DaySample {
        DaySample {
            diverted,
            apex_v4: addr,
            has_provider_cname: cname,
            has_provider_ns: ns,
        }
    }

    #[test]
    fn bgp_detected_when_address_is_stable() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 7, false, false),
            sample(false, 7, false, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::BgpDiversion);
    }

    #[test]
    fn a_record_flip_detected() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 99, false, false),
            sample(false, 7, false, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::ARecordChange);
    }

    #[test]
    fn cname_flip_detected() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 99, true, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::CnameChange);
    }

    #[test]
    fn ns_managed_detected() {
        let days = vec![sample(false, 7, false, true), sample(true, 99, false, true)];
        assert_eq!(classify_samples(&days), Mechanism::NsManaged);
    }

    #[test]
    fn one_sided_evidence_is_unclear() {
        let days = vec![sample(true, 99, false, false)];
        assert_eq!(classify_samples(&days), Mechanism::Unclear);
        assert_eq!(classify_samples(&[]), Mechanism::Unclear);
    }

    /// Histograms in a fixed order (equal counts may come in any order).
    fn sorted(breakdowns: &[MechanismBreakdown]) -> Vec<Vec<(String, u32)>> {
        breakdowns
            .iter()
            .map(|b| {
                let mut h: Vec<(String, u32)> = b
                    .histogram
                    .iter()
                    .map(|&(m, c)| (m.to_string(), c))
                    .collect();
                h.sort();
                h
            })
            .collect()
    }

    /// Every page decoded in turn on the calling thread, every row
    /// classified in place: the plain single-threaded form of `analyze`.
    fn analyze_sequentially(
        store: &SnapshotStore,
        refs: &CompiledRefs,
        timelines: &Timelines,
    ) -> Vec<MechanismBreakdown> {
        let mut wanted: HashMap<u32, Vec<u8>> = HashMap::new();
        for (&(entry, provider), tl) in &timelines.map {
            if classify_mode(&tl.asn) == UseMode::OnDemand {
                wanted.entry(entry).or_default().push(provider);
            }
        }
        let mut samples: HashMap<(u32, u8), Vec<DaySample>> = HashMap::new();
        for source in [Source::Com, Source::Net, Source::Org] {
            for (_, table) in store.scan(source) {
                let cols: Vec<&[u32]> = (0..table.schema().width())
                    .map(|c| table.column(c))
                    .collect();
                for i in 0..table.rows() {
                    let row = Row::unpack(&cols, i);
                    for &p in wanted.get(&row.entry).into_iter().flatten() {
                        let kinds = refs.classify(&row).kinds_of(p);
                        samples.entry((row.entry, p)).or_default().push(DaySample {
                            diverted: kinds.contains(RefKind::ASN),
                            apex_v4: row.apex_v4,
                            has_provider_cname: kinds.contains(RefKind::CNAME),
                            has_provider_ns: kinds.contains(RefKind::NS),
                        });
                    }
                }
            }
        }
        let mut out: Vec<HashMap<Mechanism, u32>> = (0..refs.n).map(|_| HashMap::new()).collect();
        for ((_, provider), days) in samples {
            *out[provider as usize]
                .entry(classify_samples(&days))
                .or_default() += 1;
        }
        out.into_iter()
            .map(|hist| MechanismBreakdown {
                histogram: hist.into_iter().collect(),
            })
            .collect()
    }

    #[test]
    fn world_on_demand_mechanisms_match_scenario_design() {
        use crate::references::{CompiledRefs, ProviderRefs};
        use crate::scan::Scanner;
        use dps_ecosystem::{ScenarioParams, World};
        use dps_measure::StudyConfig;

        // 130 days so on-demand domains accumulate ≥3 peaks.
        let params = ScenarioParams {
            seed: 77,
            scale: 0.2,
            gtld_days: 130,
            cc_start_day: 130,
        };
        let mut world = World::imc2016(params);
        let store = crate::testing::swept(
            &mut world,
            StudyConfig {
                days: 130,
                cc_start_day: 130,
                stride: 1,
            },
        );
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let out = Scanner::new(&refs).run(&store);
        let breakdowns = analyze(&store, &refs, &out.timelines);
        assert_eq!(
            sorted(&breakdowns),
            sorted(&analyze_sequentially(&store, &refs, &out.timelines)),
            "the per-page parallel pass must classify like one sequential pass"
        );

        // CloudFlare on-demand customers are NS-managed (NsOnly ↔
        // NsDelegation in the scenario); Neustar's are CNAME flips;
        // CenturyLink's are A-record flips.
        let dominant = |p: usize| breakdowns[p].histogram.first().map(|&(m, _)| m);
        assert_eq!(
            dominant(2),
            Some(Mechanism::NsManaged),
            "{:?}",
            breakdowns[2]
        );
        assert_eq!(
            dominant(7),
            Some(Mechanism::CnameChange),
            "{:?}",
            breakdowns[7]
        );
        assert_eq!(
            dominant(1),
            Some(Mechanism::ARecordChange),
            "{:?}",
            breakdowns[1]
        );
    }
}
