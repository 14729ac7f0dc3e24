//! dps-recursor: a caching recursive resolver.
//!
//! Sits between `dps-authdns` (validated exchanges over the simulated
//! network) and `dps-measure` (the sweep pipeline). Its [`Recursor`] is
//! the workspace's one referral walk, from the root hints through glue
//! and glueless referrals and CNAME restarts, with the pieces a real
//! resolver adds to it (both caches off give the uncached baseline):
//!
//! * a sharded, TTL-aware **answer cache** (positive + RFC 2308 negative),
//! * an **infrastructure cache** of referral NS sets and glue so sibling
//!   queries skip the root,
//! * a **virtual clock** that jumps at day boundaries, so a day's cache
//!   expires before the next daily sweep.
//!
//! A [`Recursor`] owns its socket, caches, clock and counters and resolves
//! through `&mut self`: a wire day resolves every name through one of them
//! on one thread, so cache fills never depend on thread interleaving.

pub mod cache;
mod clock;
pub mod infra;
pub mod recursor;

pub use cache::{AnswerCache, CacheConfig, CacheStats, CachedAnswer};
pub use infra::InfraCache;
pub use recursor::{Recursor, RecursorConfig, RecursorStats};
