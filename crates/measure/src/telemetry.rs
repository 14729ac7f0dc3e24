//! Persisting pipeline telemetry into the measurement archive.
//!
//! Every measured day gets one page under the reserved
//! [`TELEMETRY_SOURCE`] id holding that day's [`Snapshot`] delta — the
//! counters, gauges and histograms the sweep accumulated while producing
//! the day's data pages. Like quality pages, telemetry rides in the same
//! single-file archive and is rehydrated on resume, so an aborted-and-
//! resumed sweep persists byte-identical telemetry to an uninterrupted
//! one.
//!
//! Metric names are not stored as strings: the page schema is numeric
//! (`dps-columnar` tables hold `u32` cells), so each row carries the
//! metric's index into the fixed [`CATALOG`] below. Encoding writes the
//! *entire* catalog every time — zero-valued counters and gauges
//! included — so two runs always persist the same row skeleton and a
//! telemetry page's bytes are a pure function of the recorded values.
//! Histogram buckets are the exception: only nonzero buckets get rows
//! (ascending), mirroring [`dps_telemetry::HistogramSnapshot`], which
//! keeps `decode ∘ encode` exactly the identity.

use dps_columnar::{Schema, Table, TableBuilder};
use dps_telemetry::{Snapshot, HISTOGRAM_BUCKETS};

/// Reserved archive source id for telemetry pages. Data sources occupy
/// `0..=4`, quality pages `5` (see [`crate::quality::QUALITY_SOURCE`]).
pub const TELEMETRY_SOURCE: u8 = 6;

/// Column order of telemetry tables (all u32).
pub const TELEMETRY_COLUMNS: [&str; 5] = ["metric", "kind", "bucket", "lo", "hi"];

/// Row kinds in the `kind` column.
const KIND_COUNTER: u32 = 0;
const KIND_GAUGE: u32 = 1;
const KIND_HIST_BUCKET: u32 = 2;
const KIND_HIST_COUNT: u32 = 3;
const KIND_HIST_SUM: u32 = 4;

/// Instrument kind of a catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Signed level.
    Gauge,
    /// Log₂-bucketed histogram.
    Histogram,
}

/// Every metric the pipeline records, in persisted id order (the row
/// `metric` column is an index into this table). Append-only: reordering
/// or removing entries changes the meaning of archived pages.
pub const CATALOG: &[(&str, MetricKind)] = &[
    ("health.breaker.probes", MetricKind::Counter),
    ("health.breaker.skips", MetricKind::Counter),
    ("health.breaker.trips", MetricKind::Counter),
    ("measure.data.points", MetricKind::Counter),
    ("measure.days", MetricKind::Counter),
    ("measure.rows", MetricKind::Counter),
    ("net.chaos.degraded", MetricKind::Counter),
    ("net.latency.us", MetricKind::Histogram),
    ("net.packets.blackholed", MetricKind::Counter),
    ("net.packets.corrupted", MetricKind::Counter),
    ("net.packets.delivered", MetricKind::Counter),
    ("net.packets.dropped", MetricKind::Counter),
    ("net.packets.duplicated", MetricKind::Counter),
    ("net.packets.sent", MetricKind::Counter),
    ("net.packets.unroutable", MetricKind::Counter),
    ("recursor.answer.expired", MetricKind::Counter),
    ("recursor.answer.hits", MetricKind::Counter),
    ("recursor.answer.misses", MetricKind::Counter),
    ("recursor.infra.hits", MetricKind::Counter),
    ("recursor.iteration.depth", MetricKind::Histogram),
    ("recursor.queries", MetricKind::Counter),
    // Always 0 since the recursor resolves on one thread and coalesces
    // nothing; kept so the ids after it keep their archived meaning.
    ("recursor.singleflight.coalesced", MetricKind::Counter),
    ("store.bytes.read", MetricKind::Counter),
    ("store.cache.hits", MetricKind::Counter),
    ("store.cache.misses", MetricKind::Counter),
    ("store.footer.chain", MetricKind::Histogram),
    ("store.footer.walks", MetricKind::Counter),
    ("store.pages.decoded", MetricKind::Counter),
    // Nothing records these two since the store's query-scan engine was
    // deleted; kept so the ids after them keep their archived meaning.
    ("store.scan.pages", MetricKind::Histogram),
    ("store.scans", MetricKind::Counter),
    ("stream.checkpoint.bytes", MetricKind::Counter),
    ("stream.refs", MetricKind::Counter),
    ("stream.rows", MetricKind::Counter),
    ("stream.sketch.hashes", MetricKind::Counter),
    ("sweep.attempted", MetricKind::Counter),
    ("sweep.day.us", MetricKind::Histogram),
    ("sweep.deadletter.passes", MetricKind::Counter),
    ("sweep.failed", MetricKind::Counter),
    ("sweep.failures.corrupt", MetricKind::Counter),
    ("sweep.failures.other", MetricKind::Counter),
    ("sweep.failures.servfail", MetricKind::Counter),
    ("sweep.failures.timeout", MetricKind::Counter),
    ("sweep.failures.unreachable", MetricKind::Counter),
    ("sweep.recovered", MetricKind::Counter),
    ("sweep.retries", MetricKind::Counter),
];

/// Builds the telemetry-table schema.
pub fn telemetry_schema() -> Schema {
    Schema::new(&TELEMETRY_COLUMNS)
}

fn split(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

fn join(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// Maps i64 gauge levels onto u64 so small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a snapshot as a columnar table for an archive page
/// `(day, TELEMETRY_SOURCE)`. Only catalogued names persist; the whole
/// catalog is written (zeros included) so equal snapshots always encode
/// to identical bytes.
pub fn encode_telemetry(snapshot: &Snapshot) -> Table {
    let mut b = TableBuilder::new(telemetry_schema());
    for (id, &(name, kind)) in CATALOG.iter().enumerate() {
        let id = id as u32;
        match kind {
            MetricKind::Counter => {
                let (lo, hi) = split(snapshot.counters.get(name).copied().unwrap_or(0));
                b.push_row(&[id, KIND_COUNTER, 0, lo, hi]);
            }
            MetricKind::Gauge => {
                let (lo, hi) = split(zigzag(snapshot.gauges.get(name).copied().unwrap_or(0)));
                b.push_row(&[id, KIND_GAUGE, 0, lo, hi]);
            }
            MetricKind::Histogram => {
                let hist = snapshot.histograms.get(name).cloned().unwrap_or_default();
                let (lo, hi) = split(hist.count);
                b.push_row(&[id, KIND_HIST_COUNT, 0, lo, hi]);
                let (lo, hi) = split(hist.sum);
                b.push_row(&[id, KIND_HIST_SUM, 0, lo, hi]);
                for &(bucket, count) in &hist.buckets {
                    let (lo, hi) = split(count);
                    b.push_row(&[id, KIND_HIST_BUCKET, u32::from(bucket), lo, hi]);
                }
            }
        }
    }
    b.finish()
}

/// Decodes a telemetry table back into a snapshot. `None` on a schema
/// mismatch, an unknown metric id, a kind that contradicts the catalog,
/// or an out-of-range bucket index.
pub fn decode_telemetry(table: &Table) -> Option<Snapshot> {
    if table.schema().names() != telemetry_schema().names() {
        return None;
    }
    let ids = table.column(0);
    let kinds = table.column(1);
    let buckets = table.column(2);
    let los = table.column(3);
    let his = table.column(4);
    let mut snap = Snapshot::default();
    for (i, &id) in ids.iter().enumerate() {
        let (name, kind) = *CATALOG.get(id as usize)?;
        let value = join(*los.get(i)?, *his.get(i)?);
        match (*kinds.get(i)?, kind) {
            (KIND_COUNTER, MetricKind::Counter) => {
                snap.counters.insert(name, value);
            }
            (KIND_GAUGE, MetricKind::Gauge) => {
                snap.gauges.insert(name, unzigzag(value));
            }
            (KIND_HIST_COUNT, MetricKind::Histogram) => {
                snap.histograms.entry(name).or_default().count = value;
            }
            (KIND_HIST_SUM, MetricKind::Histogram) => {
                snap.histograms.entry(name).or_default().sum = value;
            }
            (KIND_HIST_BUCKET, MetricKind::Histogram) => {
                let bucket = u8::try_from(*buckets.get(i)?).ok()?;
                if usize::from(bucket) >= HISTOGRAM_BUCKETS {
                    return None;
                }
                snap.histograms
                    .entry(name)
                    .or_default()
                    .buckets
                    .push((bucket, value));
            }
            _ => return None,
        }
    }
    Some(snap)
}

/// The catalogued names, useful for reporting loops.
pub fn catalog_names() -> impl Iterator<Item = &'static str> {
    CATALOG.iter().map(|&(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_telemetry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("recursor.queries").add(12_345_678_901);
        r.counter("sweep.failed").add(3);
        r.gauge("net.chaos.degraded"); // kind clash: stays a counter at 0
        r.histogram("net.latency.us").observe(0);
        r.histogram("net.latency.us").observe(1500);
        r.histogram("sweep.day.us").observe(u64::MAX);
        r.snapshot()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let table = encode_telemetry(&snap);
        let back = decode_telemetry(&table).expect("decodes");
        assert_eq!(
            back.counters.get("recursor.queries"),
            Some(&12_345_678_901),
            "u64 values survive the lo/hi split"
        );
        assert_eq!(back.counters.get("sweep.failed"), Some(&3));
        let lat = back.histograms.get("net.latency.us").expect("histogram");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 1500);
        assert_eq!(lat.buckets, vec![(0, 1), (11, 1)]);
        let day = back.histograms.get("sweep.day.us").expect("histogram");
        assert_eq!(day.sum, u64::MAX);
        assert_eq!(day.buckets, vec![(64, 1)]);
        // Re-encoding the decoded snapshot is byte-identical: the page is
        // a pure function of the recorded values.
        assert_eq!(encode_telemetry(&back).to_bytes(), table.to_bytes());
    }

    #[test]
    fn encoding_writes_the_full_catalog_skeleton() {
        let empty = encode_telemetry(&Snapshot::default());
        let nonzero = encode_telemetry(&sample());
        // Same skeleton: only histogram bucket rows may differ in count.
        let hist_buckets = 3; // sample() fills 2 latency buckets + 1 day bucket
        assert_eq!(empty.rows() + hist_buckets, nonzero.rows());
        let decoded = decode_telemetry(&empty).expect("decodes");
        assert_eq!(
            decoded.counters.len() + decoded.histograms.len(),
            CATALOG.len()
        );
        assert!(decoded.counters.values().all(|&v| v == 0));
    }

    #[test]
    fn gauges_roundtrip_negative_levels() {
        for v in [i64::MIN, -17, 0, 1, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn decode_rejects_unknown_ids_and_kind_clashes() {
        let mut b = TableBuilder::new(telemetry_schema());
        b.push_row(&[u32::MAX, KIND_COUNTER, 0, 1, 0]);
        assert!(decode_telemetry(&b.finish()).is_none(), "unknown metric id");
        let mut b = TableBuilder::new(telemetry_schema());
        b.push_row(&[0, KIND_GAUGE, 0, 1, 0]); // id 0 is a counter
        assert!(decode_telemetry(&b.finish()).is_none(), "kind clash");
        let mut b = TableBuilder::new(telemetry_schema());
        b.push_row(&[7, KIND_HIST_BUCKET, 65, 1, 0]); // net.latency.us
        assert!(decode_telemetry(&b.finish()).is_none(), "bucket overflow");
    }

    #[test]
    fn catalog_is_sorted_and_distinct() {
        assert!(catalog_names()
            .zip(catalog_names().skip(1))
            .all(|(a, b)| a < b));
    }

    #[test]
    fn telemetry_schema_has_no_unique_key_column() {
        assert!(!TELEMETRY_COLUMNS.contains(&crate::snapshot::UNIQUE_KEY_COLUMN));
    }
}
