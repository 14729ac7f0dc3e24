//! # dps-authdns — authoritative serving and iterative resolution
//!
//! The DNS half of the simulated Internet:
//!
//! * [`zone`] — in-memory zones with RRsets, delegation points (zone cuts)
//!   and RFC 1034 §4.3.2-style lookup semantics (answers, CNAMEs,
//!   referrals, NXDOMAIN vs NODATA, empty non-terminals),
//! * [`catalog`] — the global collection of zones with the addresses of the
//!   name servers that serve each of them,
//! * [`server`] — turns a set of zones into a request handler bound on the
//!   [`dps_netsim::Network`],
//! * [`zonefile`] — RFC 1035 §5 master-file text (what registries publish
//!   and the measurement platform parses),
//! * [`health`] — a per-nameserver circuit breaker (consecutive-failure
//!   trip, half-open probing) consulted by server selection,
//! * [`resolver`] — the exchange layer of iterative resolution: validated
//!   UDP exchanges with hedged second attempts, the exponential backoff
//!   between retry rounds, and a per-cause failure taxonomy. The referral
//!   walk over it is `dps-recursor`'s `Recursor`.
//!
//! Bulk sweeps skip the wire and ask the world model (`World::resolve`);
//! `tests/wire_bulk_equivalence.rs` holds the two paths equal.

pub mod catalog;
pub mod health;
pub mod resolver;
pub mod server;
pub mod zone;
pub mod zonefile;

pub use catalog::Catalog;
pub use health::{HealthConfig, HealthMetrics, HealthTracker, ServerHealth};
pub use resolver::{
    ExchangeOutcome, FailureCause, Resolution, ResolveError, Resolver, ResolverConfig,
};
pub use server::{answer_from, AuthServer};
pub use zone::{LookupOutcome, Zone};
