//! # dps-ecosystem — the synthetic domain-name ecosystem
//!
//! The paper measured the live 2015–2016 Internet; this crate is the
//! substitute required to reproduce it offline (see DESIGN.md §2). It
//! generates and evolves, day by day:
//!
//! * TLD registries (.com/.net/.org/.nl) with calibrated growth and churn,
//! * the nine DPS providers with the exact AS numbers and CNAME/NS SLDs of
//!   the paper's Table 2 (the ground truth the discovery experiment must
//!   rediscover),
//! * hosting companies, registrars and parking platforms,
//! * third-party baskets scripting the paper's §4.4.1 anomalies (Wix,
//!   SiteMatrix, ENOM, ZOHO, Namecheap, Sedo, Fabulous),
//! * organic always-on adopters driving the 1.24× adoption trend, and
//! * attack-driven on-demand customers with per-provider peak-duration
//!   distributions (Fig. 8).
//!
//! The [`World`] answers DNS queries directly (bulk path) and hands out
//! each day's authoritative servers for the simulated network (wire path,
//! [`DayAuthority`]); both produce identical resolutions. It can also
//! materialise real zones and servers, the small-world oracle the
//! authority is tested against.

pub mod authority;
pub mod domain;
pub mod ids;
pub mod scenario;
pub mod schedule;
pub mod spec;
pub mod world;

pub use authority::{servers, AuthorityServer, DayAuthority};
pub use domain::{
    domain_apex, domain_label, parse_domain_label, Diversion, DomainState, GroundTruth,
};
pub use ids::{BasketId, DomainId, HosterId, ProviderId, Tld, GTLDS, MEASURED_TLDS};
pub use scenario::{Scenario, ScenarioParams};
pub use schedule::{Action, Event, Schedule};
pub use world::{World, ZoneEntry};
