//! The run-wide string dictionary holds infrastructure names only: CNAME
//! and NS SLDs, NS hosts and infrastructure apexes. Customer rows store
//! `sld = 0` (their apex is derived from `entry`), so the dictionary does
//! not grow with the population or the calendar.

use dps_ecosystem::{parse_domain_label, DomainId, ScenarioParams, World};
use dps_measure::observation::{is_customer_entry, Row};
use dps_measure::{SnapshotStore, Study, StudyConfig, SOURCES};

/// Sweeps the first `days` days of a 6-day world.
fn sweep(seed: u64, scale: f64, days: u32) -> (World, SnapshotStore) {
    let mut world = World::imc2016(ScenarioParams {
        seed,
        scale,
        gtld_days: 6,
        cc_start_day: 2,
    });
    let store = Study::new(StudyConfig {
        days,
        cc_start_day: 2,
        stride: 1,
    })
    .run(&mut world);
    (world, store)
}

#[test]
fn dictionary_size_is_independent_of_population_and_calendar() {
    // From scale 0.1 on, customers use every provider NS host (at 0.05
    // nobody is delegated to `ns4.akam.net`), so the set is complete.
    let mut sizes = Vec::new();
    for scale in [0.1, 0.25] {
        for days in [3, 6] {
            let (_, store) = sweep(4, scale, days);
            sizes.push(((scale, days), store.dict.len()));
        }
    }
    let first = sizes[0].1;
    assert!(
        sizes.iter().all(|&(_, len)| len == first),
        "dictionary sizes differ: {sizes:?}"
    );
    assert!(first < 200, "{first} dictionary strings");
}

#[test]
fn no_customer_apex_is_ever_interned() {
    let (world, store) = sweep(6, 0.01, 4);
    for s in (0..store.dict.len() as u32).filter_map(|id| store.dict.resolve(id)) {
        let label = s.split('.').next().unwrap_or(s);
        assert!(
            parse_domain_label(label.as_bytes()).is_none(),
            "customer apex {s:?} was interned"
        );
    }
    for id in 0..world.domains().len() as u32 {
        let apex = world.domain_name(DomainId(id)).to_string();
        let apex = apex.trim_end_matches('.');
        assert_eq!(store.dict.get(apex), None, "{apex} was interned");
    }
    // Customer rows carry `sld = 0`; infrastructure rows name their apex.
    let (mut customers, mut infra) = (0, 0);
    for source in SOURCES {
        for (_, table) in store.scan(source) {
            let cols: Vec<&[u32]> = (0..table.schema().width())
                .map(|c| table.column(c))
                .collect();
            for i in 0..table.rows() {
                let (_, _, row) = Row::unpack(&cols, i);
                if is_customer_entry(row.entry) {
                    assert_eq!(row.sld, 0, "customer entry {}", row.entry);
                    customers += 1;
                } else if !row.failed {
                    assert_ne!(row.sld, 0, "infrastructure entry {}", row.entry);
                    infra += 1;
                }
            }
        }
    }
    assert!(
        customers > 0 && infra > 0,
        "{customers} customer / {infra} infra rows"
    );
}
