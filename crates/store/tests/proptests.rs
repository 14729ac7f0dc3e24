//! Property: archive write→open→projected-scan roundtrips exactly — for
//! random day/source/column subsets, what comes back from the file equals
//! the in-memory tables it was built from.

use dps_columnar::{Schema, StringDict, Table, TableBuilder};
use dps_store::{Archive, ArchiveWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const COLS: [&str; 5] = ["day", "entry", "v4", "asn", "failed"];

fn temp_archive() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "dps-store-prop-{}-{}.dps",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn build_table(day: u32, rows: &[[u32; 5]]) -> Table {
    let mut b = TableBuilder::new(Schema::new(&COLS));
    for row in rows {
        let mut r = *row;
        r[0] = day;
        b.push_row(&r);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn projected_scan_equals_in_memory(
        // (day, source, rows) triples; duplicates collapse via the map.
        specs in proptest::collection::vec(
            (
                (0u32..6),
                (0u8..3),
                proptest::collection::vec(
                    (any::<u32>(), any::<u32>(), any::<u32>(), (0u32..2))
                        .prop_map(|(a, b, c, d)| [0u32, a, b, c, d]),
                    0..25,
                ),
            ),
            1..10,
        ),
        // Random projection: non-empty subset of column indices.
        proj_mask in 1u8..32,
        day_lo in 0u32..6,
        day_span in 0u32..6,
        // 0..3 pins one source; 3 scans all of them.
        pick_source in 0u8..4,
    ) {
        let mut expected: BTreeMap<(u32, u8), Table> = BTreeMap::new();
        for (day, source, rows) in &specs {
            expected
                .entry((*day, *source))
                .or_insert_with(|| build_table(*day, rows));
        }

        let path = temp_archive();
        let mut dict = StringDict::new();
        dict.intern("incapdns.net");
        let mut writer = ArchiveWriter::create(&path, Some("entry")).unwrap();
        for ((day, source), table) in &expected {
            writer
                .append_table(*day, *source, table, u64::from(table.rows() as u32) * 5)
                .unwrap();
        }
        writer.commit(&dict).unwrap();

        let archive = Archive::open(&path).unwrap();
        prop_assert!(archive.verify().unwrap().all_ok());

        let projection: Vec<&str> = COLS
            .iter()
            .enumerate()
            .filter(|(i, _)| proj_mask & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        // The catalog's day range, narrowed to one source unless
        // `pick_source` is 3, read under the projection.
        let keys: Vec<(u32, u8)> = archive
            .catalog()
            .pages
            .range((day_lo, 0)..=(day_lo + day_span, u8::MAX))
            .map(|(&key, _)| key)
            .filter(|&(_, s)| pick_source == 3 || pick_source == s)
            .collect();
        for &(day, source) in &keys {
            let table = archive.project(day, source, &projection).unwrap().unwrap();
            let mem = &expected[&(day, source)];
            prop_assert_eq!(table.rows(), mem.rows());
            for col in &projection {
                prop_assert_eq!(
                    table.column_by_name(col).unwrap(),
                    mem.column_by_name(col).unwrap(),
                    "column {} of (day {}, source {})", col, day, source
                );
            }
        }
        // And the read is complete: exactly the pages the predicate admits.
        let expected_keys: Vec<(u32, u8)> = expected
            .keys()
            .copied()
            .filter(|&(d, s)| {
                d >= day_lo && d <= day_lo + day_span && (pick_source == 3 || pick_source == s)
            })
            .collect();
        prop_assert_eq!(keys, expected_keys);

        std::fs::remove_file(&path).ok();
    }
}
