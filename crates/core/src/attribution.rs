//! Anomaly detection and third-party attribution (§4.4.1).
//!
//! Large day-over-day swings in a provider's use count are located, and
//! the set difference of referencing domains between the two days is
//! summarised by its dominant NS / CNAME SLDs — which is how the paper
//! traces e.g. the April 2016 Incapsula peak to Wix, or the February 2016
//! CloudFlare peak to ~247k Namecheap-hosted names.

use crate::references::CompiledRefs;
use crate::util::mad;
use dps_measure::observation::Row;
use dps_measure::{SnapshotStore, Source};
use std::collections::{HashMap, HashSet};

/// A detected anomaly in a provider's daily series.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Index into the series' day list (the day the level changed *to*).
    pub day_index: usize,
    /// Signed change in referencing domains.
    pub delta: i64,
}

/// Finds day-over-day changes exceeding `mad_factor` robust deviations and
/// `abs_floor` in magnitude.
pub fn find_anomalies(series: &[u32], mad_factor: f64, abs_floor: u32) -> Vec<Anomaly> {
    if series.len() < 3 {
        return Vec::new();
    }
    let deltas: Vec<f64> = series
        .windows(2)
        .map(|w| f64::from(w[1]) - f64::from(w[0]))
        .collect();
    let noise = mad(&deltas).max(0.5);
    deltas
        .iter()
        .enumerate()
        .filter(|(_, d)| d.abs() >= f64::from(abs_floor) && d.abs() > mad_factor * noise)
        .map(|(i, d)| Anomaly {
            day_index: i + 1,
            delta: *d as i64,
        })
        .collect()
}

/// §4.1's transversality observation: "the anomalous trend that is
/// apparent in the largest gTLD, .com, is replicated in .net and .org".
/// For every anomaly day of the first series, checks whether the other
/// series move in the same direction; returns the fraction that do.
pub fn transversality(series: &[&[u32]], mad_factor: f64, abs_floor: u32) -> f64 {
    let Some(first) = series.first() else {
        return 0.0;
    };
    let anomalies = find_anomalies(first, mad_factor, abs_floor);
    if anomalies.is_empty() || series.len() < 2 {
        return 0.0;
    }
    let mut replicated = 0usize;
    let mut total = 0usize;
    for a in &anomalies {
        for other in &series[1..] {
            total += 1;
            let delta = i64::from(other[a.day_index]) - i64::from(other[a.day_index - 1]);
            if delta.signum() == a.delta.signum() && delta != 0 {
                replicated += 1;
            }
        }
    }
    replicated as f64 / total as f64
}

/// The explanation of one anomaly: who joined/left and what they share.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Domains referencing the provider on `day` but not on `prev_day`.
    pub joined: usize,
    /// Domains referencing on `prev_day` but not on `day`.
    pub left: usize,
    /// Most common NS SLDs among the changed domains, with counts.
    pub top_ns_slds: Vec<(String, usize)>,
    /// Most common CNAME SLDs among the changed domains.
    pub top_cname_slds: Vec<(String, usize)>,
}

impl Attribution {
    /// The single most plausible responsible party, if one SLD dominates
    /// the changed set (≥ half of it).
    pub fn dominant_party(&self) -> Option<&str> {
        let changed = self.joined + self.left;
        self.top_ns_slds
            .first()
            .filter(|(_, c)| *c * 2 >= changed && changed > 0)
            .map(|(s, _)| s.as_str())
    }
}

fn referencing_entries(
    store: &SnapshotStore,
    refs: &CompiledRefs,
    provider: u8,
    day: u32,
) -> HashMap<u32, (u32, u32)> {
    // entry → (ns1, cname1) for attribution histograms.
    let mut out = HashMap::new();
    for source in [Source::Com, Source::Net, Source::Org] {
        if let Some(table) = store.table(day, source) {
            let cols: Vec<&[u32]> = (0..table.schema().width())
                .map(|c| table.column(c))
                .collect();
            for i in 0..table.rows() {
                let row = Row::unpack(&cols, i);
                if refs.classify(&row).iter().any(|&(p, _)| p == provider) {
                    out.insert(row.entry, (row.ns1, row.cname1));
                }
            }
        }
    }
    out
}

/// Explains the change in `provider`'s population between two days.
pub fn explain(
    store: &SnapshotStore,
    refs: &CompiledRefs,
    provider: u8,
    prev_day: u32,
    day: u32,
) -> Attribution {
    let before = referencing_entries(store, refs, provider, prev_day);
    let after = referencing_entries(store, refs, provider, day);
    let before_keys: HashSet<&u32> = before.keys().collect();
    let after_keys: HashSet<&u32> = after.keys().collect();

    let mut ns_hist: HashMap<u32, usize> = HashMap::new();
    let mut cname_hist: HashMap<u32, usize> = HashMap::new();
    let mut joined = 0usize;
    let mut left = 0usize;
    for &&e in after_keys.difference(&before_keys) {
        joined += 1;
        let (ns, cn) = after[&e];
        *ns_hist.entry(ns).or_default() += 1;
        *cname_hist.entry(cn).or_default() += 1;
    }
    for &&e in before_keys.difference(&after_keys) {
        left += 1;
        let (ns, cn) = before[&e];
        *ns_hist.entry(ns).or_default() += 1;
        *cname_hist.entry(cn).or_default() += 1;
    }

    let top = |hist: HashMap<u32, usize>| -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = hist
            .into_iter()
            .filter(|&(id, _)| id != 0)
            .map(|(id, c)| (store.dict.resolve(id).unwrap_or("?").to_string(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(5);
        v
    };

    Attribution {
        joined,
        left,
        top_ns_slds: top(ns_hist),
        top_cname_slds: top(cname_hist),
    }
}

#[cfg(test)]
// Index-based loops keep the day arithmetic explicit in fixtures.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn quiet_series_has_no_anomalies() {
        let series: Vec<u32> = (0..100).map(|i| 1000 + i % 3).collect();
        assert!(find_anomalies(&series, 8.0, 10).is_empty());
    }

    #[test]
    fn spike_is_detected_with_sign() {
        let mut series: Vec<u32> = vec![1000; 100];
        for day in 40..45 {
            series[day] = 2500;
        }
        let found = find_anomalies(&series, 8.0, 100);
        assert_eq!(found.len(), 2);
        assert_eq!(
            found[0],
            Anomaly {
                day_index: 40,
                delta: 1500
            }
        );
        assert_eq!(
            found[1],
            Anomaly {
                day_index: 45,
                delta: -1500
            }
        );
    }

    #[test]
    fn transversality_detects_correlated_swings() {
        let mut com: Vec<u32> = vec![8000; 100];
        let mut net: Vec<u32> = vec![1000; 100];
        let mut org: Vec<u32> = vec![700; 100];
        for day in 40..45 {
            com[day] += 900; // the same event hits all three zones
            net[day] += 110;
            org[day] += 80;
        }
        let t = transversality(&[&com, &net, &org], 8.0, 100);
        assert_eq!(t, 1.0);

        // Uncorrelated noise in the small zones: replication breaks.
        let flat = vec![1000u32; 100];
        let t = transversality(&[&com, &flat], 8.0, 100);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn floor_suppresses_small_blips() {
        let mut series: Vec<u32> = vec![100; 50];
        series[20] = 140;
        assert!(find_anomalies(&series, 4.0, 100).is_empty());
        assert!(!find_anomalies(&series, 4.0, 10).is_empty());
    }
}
