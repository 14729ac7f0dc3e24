//! Per-nameserver health tracking: a consecutive-failure circuit breaker
//! with half-open probing.
//!
//! Long-running sweeps keep hammering dead authoritatives unless server
//! selection learns from failures. The tracker keeps one tiny state machine
//! per server address:
//!
//! * **Closed** — healthy; failures increment a consecutive counter.
//! * **Open** — the counter hit the threshold; the breaker *trips* and the
//!   server is deprioritised until `open_duration_us` of virtual time has
//!   passed.
//! * **Half-open** — the cool-down elapsed; exactly one in-flight probe is
//!   allowed through. Success closes the breaker, failure re-trips it.
//!
//! The tracker never *removes* a server from candidate lists — it only
//! reorders them ([`HealthTracker::order`]), so a sweep where every server
//! of a zone is down still makes (and accounts for) its attempts. All
//! methods take the caller's virtual clock; the tracker holds no clock of
//! its own, which keeps multi-worker sweeps deterministic.

use dps_telemetry::{Counter, Registry};
use parking_lot::Mutex;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tunables for [`HealthTracker`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Consecutive failures that trip the breaker. `0` disables tracking
    /// (every server always reports healthy).
    pub failure_threshold: u32,
    /// Virtual time an open breaker deprioritises its server before
    /// allowing a half-open probe.
    pub open_duration_us: u64,
}

impl Default for HealthConfig {
    /// Trip after 5 consecutive failures, cool down for 30 virtual seconds.
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            open_duration_us: 30_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { until_us: u64 },
    HalfOpen { probing: bool },
}

#[derive(Debug)]
struct Entry {
    consecutive: u32,
    state: State,
}

impl Entry {
    fn new() -> Self {
        Self {
            consecutive: 0,
            state: State::Closed,
        }
    }
}

/// One [`Entry`] per tracked server, sorted by address: a sweep talks to
/// a few dozen servers, so a binary search finds one without hashing.
#[derive(Debug, Default)]
struct Entries(Vec<(IpAddr, Entry)>);

impl Entries {
    /// `server`'s entry, created closed on first contact.
    fn get(&mut self, server: IpAddr) -> &mut Entry {
        let at = match self.0.binary_search_by(|(addr, _)| addr.cmp(&server)) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (server, Entry::new()));
                at
            }
        };
        &mut self.0[at].1
    }
}

/// How a server looks to selection right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Breaker closed; use freely.
    Available,
    /// Breaker half-open and this caller holds the single probe slot.
    Probe,
    /// Breaker open (or another caller is already probing); avoid if any
    /// alternative exists.
    Open,
}

/// Telemetry handles for breaker events (`health.breaker.*`). `Default`
/// handles are detached — they count, but belong to no registry.
#[derive(Clone, Default)]
pub struct HealthMetrics {
    trips: Counter,
    skips: Counter,
    probes: Counter,
}

impl std::fmt::Debug for HealthMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMetrics")
            .field("trips", &self.trips.value())
            .field("skips", &self.skips.value())
            .field("probes", &self.probes.value())
            .finish()
    }
}

impl HealthMetrics {
    /// Instruments registered under the `health.breaker.*` names.
    pub fn new(registry: &Registry) -> Self {
        Self {
            trips: registry.counter("health.breaker.trips"),
            skips: registry.counter("health.breaker.skips"),
            probes: registry.counter("health.breaker.probes"),
        }
    }
}

/// Shared, thread-safe circuit-breaker state for a set of nameservers.
#[derive(Debug, Default)]
pub struct HealthTracker {
    config: HealthConfig,
    entries: Mutex<Entries>,
    trips: AtomicU64,
    skips: AtomicU64,
    metrics: HealthMetrics,
}

impl HealthTracker {
    /// Creates a tracker with the given breaker tunables (telemetry
    /// detached; see [`HealthTracker::with_telemetry`]).
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            entries: Mutex::new(Entries::default()),
            trips: AtomicU64::new(0),
            skips: AtomicU64::new(0),
            metrics: HealthMetrics::default(),
        }
    }

    /// Routes this tracker's breaker events into `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.metrics = HealthMetrics::new(registry);
        self
    }

    /// Records a successful exchange with `server`: resets the failure
    /// counter and closes the breaker.
    pub fn record_success(&self, server: IpAddr) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let mut entries = self.entries.lock();
        let e = entries.get(server);
        e.consecutive = 0;
        e.state = State::Closed;
    }

    /// Records a failed exchange with `server` at virtual time `now_us`.
    /// Trips the breaker when the consecutive-failure threshold is hit, or
    /// re-trips it when a half-open probe fails.
    pub fn record_failure(&self, server: IpAddr, now_us: u64) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let mut entries = self.entries.lock();
        let e = entries.get(server);
        e.consecutive = e.consecutive.saturating_add(1);
        let reopen = match e.state {
            State::Closed => e.consecutive >= self.config.failure_threshold,
            State::HalfOpen { .. } => true,
            State::Open { .. } => false,
        };
        if reopen {
            e.state = State::Open {
                until_us: now_us + self.config.open_duration_us,
            };
            self.trips.fetch_add(1, Ordering::Relaxed);
            self.metrics.trips.inc();
        }
    }

    /// Classifies `server` for selection at virtual time `now_us`. An open
    /// breaker whose cool-down has elapsed transitions to half-open, and
    /// the *first* caller to observe it claims the probe slot.
    pub fn check(&self, server: IpAddr, now_us: u64) -> ServerHealth {
        if self.config.failure_threshold == 0 {
            return ServerHealth::Available;
        }
        let mut entries = self.entries.lock();
        let e = entries.get(server);
        match e.state {
            State::Closed => ServerHealth::Available,
            State::Open { until_us } if now_us >= until_us => {
                e.state = State::HalfOpen { probing: true };
                self.metrics.probes.inc();
                ServerHealth::Probe
            }
            State::Open { .. } => ServerHealth::Open,
            State::HalfOpen { probing: false } => {
                e.state = State::HalfOpen { probing: true };
                self.metrics.probes.inc();
                ServerHealth::Probe
            }
            State::HalfOpen { probing: true } => ServerHealth::Open,
        }
    }

    /// Orders `servers` for a query at virtual time `now_us` into `out`
    /// (cleared first; the caller keeps it across queries): available
    /// servers first, then half-open probes, then open breakers — each
    /// group keeping its original order. Nothing is dropped: if every
    /// breaker is open the caller still gets the full list.
    pub fn order(&self, servers: &[IpAddr], now_us: u64, out: &mut Vec<IpAddr>) {
        out.clear();
        if self.config.failure_threshold == 0 || servers.len() <= 1 {
            out.extend_from_slice(servers);
            return;
        }
        // `out` grows as [available.., probes.., open..]; each server is
        // checked once, in order, and slotted at the end of its group.
        let (mut available, mut probes) = (0usize, 0usize);
        for &s in servers {
            match self.check(s, now_us) {
                ServerHealth::Available => {
                    out.insert(available, s);
                    available += 1;
                }
                ServerHealth::Probe => {
                    out.insert(available + probes, s);
                    probes += 1;
                }
                ServerHealth::Open => out.push(s),
            }
        }
        // Count a skip only when an open server was actually deprioritised
        // behind *some* healthier alternative.
        let open = (out.len() - available - probes) as u64;
        if open > 0 && available + probes > 0 {
            self.skips.fetch_add(open, Ordering::Relaxed);
            self.metrics.skips.add(open);
        }
    }

    /// Times the breaker tripped (including half-open probe failures).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Open servers deprioritised behind a healthy alternative.
    pub fn skips(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn tracker() -> HealthTracker {
        HealthTracker::new(HealthConfig {
            failure_threshold: 3,
            open_duration_us: 1_000_000,
        })
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let t = tracker();
        let s = ip("10.0.0.1");
        for _ in 0..2 {
            t.record_failure(s, 0);
            assert_eq!(t.check(s, 0), ServerHealth::Available);
        }
        t.record_failure(s, 0);
        assert_eq!(t.check(s, 0), ServerHealth::Open);
        assert_eq!(t.trips(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t = tracker();
        let s = ip("10.0.0.1");
        t.record_failure(s, 0);
        t.record_failure(s, 0);
        t.record_success(s);
        t.record_failure(s, 0);
        t.record_failure(s, 0);
        assert_eq!(t.check(s, 0), ServerHealth::Available);
        assert_eq!(t.trips(), 0);
    }

    #[test]
    fn cooldown_allows_exactly_one_probe() {
        let t = tracker();
        let s = ip("10.0.0.1");
        for _ in 0..3 {
            t.record_failure(s, 0);
        }
        assert_eq!(t.check(s, 999_999), ServerHealth::Open);
        // Cool-down elapsed: first caller probes, second waits.
        assert_eq!(t.check(s, 1_000_000), ServerHealth::Probe);
        assert_eq!(t.check(s, 1_000_000), ServerHealth::Open);
        // A successful probe closes the breaker for everyone.
        t.record_success(s);
        assert_eq!(t.check(s, 1_000_001), ServerHealth::Available);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let t = tracker();
        let s = ip("10.0.0.1");
        for _ in 0..3 {
            t.record_failure(s, 0);
        }
        assert_eq!(t.check(s, 1_000_000), ServerHealth::Probe);
        t.record_failure(s, 1_000_000);
        assert_eq!(t.trips(), 2);
        assert_eq!(t.check(s, 1_500_000), ServerHealth::Open);
        assert_eq!(t.check(s, 2_000_000), ServerHealth::Probe);
    }

    #[test]
    fn order_puts_healthy_servers_first_and_drops_nothing() {
        let t = tracker();
        let (a, b, c) = (ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3"));
        for _ in 0..3 {
            t.record_failure(a, 0);
        }
        let mut ordered = Vec::new();
        t.order(&[a, b, c], 0, &mut ordered);
        assert_eq!(ordered, vec![b, c, a]);
        assert_eq!(t.skips(), 1);
        // All open: original order survives (and the buffer is refilled,
        // not appended to).
        for _ in 0..3 {
            t.record_failure(b, 0);
            t.record_failure(c, 0);
        }
        t.order(&[a, b, c], 0, &mut ordered);
        assert_eq!(ordered, vec![a, b, c]);
    }

    #[test]
    fn order_groups_keep_their_original_order() {
        let t = tracker();
        let s: Vec<IpAddr> = (1..=6).map(|i| ip(&format!("10.0.0.{i}"))).collect();
        // s[0] and s[4] tripped late (still open at 1 s); s[2] and s[5]
        // tripped at 0 and are due a probe at 1 s; s[1] and s[3] healthy.
        for &(server, at) in &[(s[2], 0), (s[5], 0), (s[0], 500_000), (s[4], 500_000)] {
            for _ in 0..3 {
                t.record_failure(server, at);
            }
        }
        let mut ordered = vec![ip("192.0.2.1")];
        t.order(&s, 1_000_000, &mut ordered);
        assert_eq!(ordered, vec![s[1], s[3], s[2], s[5], s[0], s[4]]);
        assert_eq!(t.skips(), 2);
    }

    #[test]
    fn telemetry_counts_trips_skips_and_probes() {
        let registry = Registry::new();
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 3,
            open_duration_us: 1_000_000,
        })
        .with_telemetry(&registry);
        let (a, b) = (ip("10.0.0.1"), ip("10.0.0.2"));
        for _ in 0..3 {
            t.record_failure(a, 0);
        }
        t.order(&[a, b], 0, &mut Vec::new());
        t.check(a, 1_000_000); // cool-down over: claims the probe slot
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("health.breaker.trips"), Some(&1));
        assert_eq!(snap.counters.get("health.breaker.skips"), Some(&1));
        assert_eq!(snap.counters.get("health.breaker.probes"), Some(&1));
        assert_eq!(t.trips(), 1);
        assert_eq!(t.skips(), 1);
    }

    #[test]
    fn zero_threshold_disables_tracking() {
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 0,
            open_duration_us: 1,
        });
        let s = ip("10.0.0.1");
        for _ in 0..100 {
            t.record_failure(s, 0);
        }
        assert_eq!(t.check(s, 0), ServerHealth::Available);
        assert_eq!(t.trips(), 0);
    }
}
