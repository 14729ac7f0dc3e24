//! # dps-scope
//!
//! A full reproduction of *"Measuring the Adoption of DDoS Protection
//! Services"* (Jonker et al., ACM IMC 2016) as a Rust workspace: the
//! detection methodology, an OpenINTEL-style active-DNS measurement
//! pipeline, a columnar storage + MapReduce analysis substrate, a
//! from-scratch DNS implementation, a simulated Internet (prefixes, BGP
//! origins, lossy UDP), and a calibrated synthetic domain ecosystem that
//! stands in for the 2015–2016 namespace.
//!
//! The pieces compose like this:
//!
//! ```text
//! ecosystem (World)  ──zone files / DNS answers / pfx2as──►  measure (Study)
//!        │                                                        │
//!        │ ground truth                                           ▼
//!        ▼                                                 archive (dps-store)
//!   validation                                                    │
//!                                                                 ▼
//!                                                        SnapshotStore (columnar)
//!                                                                 │
//!                                                                 ▼
//!                              core (Scanner → series/timelines → growth,
//!                                    peaks, flux, discovery, attribution)
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use dps_scope::prelude::*;
//!
//! // A small world: ~1/100 000 of the real namespace, 30 days.
//! let params = ScenarioParams { seed: 7, scale: 0.02, gtld_days: 30, cc_start_day: 20 };
//! let mut world = World::imc2016(params);
//!
//! // Run the measurement study (stage I–III) over the whole window into
//! // an archive, then load the archive for analysis.
//! let path = std::env::temp_dir().join("dps-scope-doctest.dps");
//! std::fs::remove_file(&path).ok();
//! let config = StudyConfig { days: 30, cc_start_day: 20, stride: 1 };
//! Study::new(config).run_archived(&mut world, &path, None)?;
//! let store = SnapshotStore::load_archive(&path)?;
//! std::fs::remove_file(&path)?;
//!
//! // Classify every domain-day against the paper's Table 2 references.
//! let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
//! let out = Scanner::new(&refs).run(&store);
//! assert_eq!(out.series.days.len(), 30);
//! assert!(out.series.combined_any()[0] > 0);
//! # Ok::<(), std::io::Error>(())
//! ```

pub use dps_authdns as authdns;
pub use dps_cluster as cluster;
pub use dps_columnar as columnar;
pub use dps_core as core;
pub use dps_dns as dns;
pub use dps_ecosystem as ecosystem;
pub use dps_fuzz as fuzz;
pub use dps_measure as measure;
pub use dps_netsim as netsim;
pub use dps_recursor as recursor;
pub use dps_serve as serve;
pub use dps_store as store;
pub use dps_stream as stream;
pub use dps_telemetry as telemetry;

/// The things almost every user needs, in one import.
pub mod prelude {
    pub use dps_authdns::{HealthConfig, HealthTracker};
    pub use dps_core::discovery::{discover, seeds_from_registry, DiscoveryConfig};
    pub use dps_core::growth::{analyze as growth_analyze, GrowthConfig};
    pub use dps_core::{CompiledRefs, ProviderRefs, QualityMask, ScanOutput, Scanner};
    pub use dps_dns::{Message, Name, Question, RData, Rcode, Record, RrType};
    pub use dps_ecosystem::{Diversion, DomainId, ScenarioParams, Tld, World};
    pub use dps_measure::{
        DayQuality, SnapshotStore, Source, Study, StudyConfig, SupervisorConfig,
    };
    pub use dps_netsim::{ChaosSchedule, Day, FaultProfile, Network, Prefix};
    pub use dps_recursor::{Recursor, RecursorConfig};
    pub use dps_store::{Archive, ArchiveWriter, StoreReader, StoreWriter};
    pub use dps_stream::{KmvSketch, StreamEngine};
}

/// The nine provider marketing names, used to seed reference discovery.
pub const PROVIDER_KEYWORDS: [&str; 9] = [
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
