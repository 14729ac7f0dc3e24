//! Golden analysis output for a small fixed scenario: the Table 1 day,
//! SLD and data-point columns and the whole Table 2 (reference discovery)
//! text. Storage sizes are left out on purpose: they follow the archive
//! format, which may change, while these analysis results may not.

use dps_core::discovery::{discover, seeds_from_registry, DiscoveryConfig};
use dps_core::report;
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{Study, StudyConfig, SOURCES};

/// The marketing keywords an analyst would search AS-to-name data for.
const PROVIDER_KEYWORDS: [&str; 9] = [
    "Akamai",
    "CenturyLink",
    "CloudFlare",
    "DOSarrest",
    "F5",
    "Incapsula",
    "Level 3",
    "Neustar",
    "VeriSign",
];

/// Table 1 up to and including the `#DPs` column (the `size` and `(raw)`
/// columns follow).
const TABLE1_COUNT_COLUMNS: usize = 48;

const TABLE1: &str = "\
Source          start   days     #SLDs      #DPs
.com       2015-03-01     28      3.3k    278.6k
.net       2015-03-01     28     439.0     38.5k
.org       2015-03-01     28     280.0     24.1k
.nl        2015-03-22      7     119.0      3.3k
Alexa 1M   2015-03-22      7      40.0      1.0k
Total                             4.2k    345.5k
";

const TABLE1_EXACT: &str = "\
.com days=28 slds=3288 dps=278556
.net days=28 slds=439 dps=38466
.org days=28 slds=280 dps=24128
.nl days=7 slds=119 dps=3344
Alexa 1M days=7 slds=40 dps=1015
";

const TABLE2: &str = "\
Provider       AS number(s)                 CNAME SLD(s)                                 NS SLD(s)
Akamai         16625, 20940, 32787          akamaiedge.net, edgekey.net                  akam.net, akamai.net
CenturyLink    209                          —                                            savvis.net, savvisdirect.net
CloudFlare     13335                        cloudflare.net                               cloudflare.com
DOSarrest      19324                        —                                            —
F5             55002                        —                                            —
Incapsula      19551                        incapdns.net                                 incapsecuredns.net
Level 3        3356, 3549                   —                                            l3.net, level3.net
Neustar        7786, 12008, 19905           ultradns.net                                 ultradns.biz, ultradns.com, ultradns.net
VeriSign       26415, 30060                 —                                            verisigndns.com
";

#[test]
fn table1_counts_and_table2_match_the_pinned_output() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 1,
        scale: 0.02,
        gtld_days: 28,
        cc_start_day: 21,
    });
    let store = Study::new(StudyConfig {
        days: 28,
        cc_start_day: 21,
        stride: 1,
    })
    .run(&mut world);

    let table1: String = report::table1(&store)
        .lines()
        .map(|line| {
            let counts: String = line.chars().take(TABLE1_COUNT_COLUMNS).collect();
            format!("{}\n", counts.trim_end())
        })
        .collect();
    let exact: String = SOURCES
        .iter()
        .map(|&source| {
            let st = store.stats(source);
            format!(
                "{} days={} slds={} dps={}\n",
                source.label(),
                st.days,
                st.unique_slds.len(),
                st.data_points
            )
        })
        .collect();

    let seeds = seeds_from_registry(world.as_registry(), &PROVIDER_KEYWORDS);
    let config = DiscoveryConfig {
        day_stride: 7,
        ..DiscoveryConfig::default()
    };
    let table2 = report::table2(&discover(&store, &seeds, &config));

    assert_eq!(table1, TABLE1);
    assert_eq!(exact, TABLE1_EXACT);
    assert_eq!(table2, TABLE2);
}
