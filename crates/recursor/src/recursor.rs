//! The recursor itself: cache-assisted iterative resolution.
//!
//! A [`Recursor`] is the shared service — caches, coalescing table, clock,
//! per-server gate, statistics. Each thread resolves through its own
//! [`RecursorWorker`], which owns a socket-backed [`Resolver`] for the
//! validated wire exchanges and consults the shared state around it:
//!
//! 1. answer cache (TTL-aware, positive + RFC 2308 negative; it also
//!    holds the addresses of glueless name servers resolved mid-descent),
//! 2. singleflight table (identical concurrent questions coalesce),
//! 3. infrastructure cache (start the descent at the deepest known cut
//!    instead of the root),
//! 4. the wire, with `ResolverConfig` retry/timeout policy and per-server
//!    concurrency bounds.
//!
//! Cache hits replay the original [`Resolution`] verbatim — same rcode,
//! same records, same TTL fields — so measurement observations are
//! byte-identical with and without the cache (asserted by the three-way
//! equivalence test).

use crate::cache::{AnswerCache, CacheConfig};
use crate::clock::SharedClock;
use crate::infra::InfraCache;
use crate::scheduler::ServerGate;
use crate::singleflight::Singleflight;
use dps_authdns::health::{HealthConfig, HealthTracker};
use dps_authdns::resolver::{FailureCause, Resolution, ResolveError, Resolver, ResolverConfig};
use dps_dns::{Message, Name, RData, Rcode, Record, RrType};
use dps_netsim::{Day, Network};
use dps_telemetry::{Counter, Histogram, Registry};
use std::net::IpAddr;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tunables for the whole service.
#[derive(Debug, Clone, Copy)]
pub struct RecursorConfig {
    /// Wire policy: per-attempt timeout, retries, loop guards, backoff,
    /// hedging.
    pub resolver: ResolverConfig,
    /// Answer-cache sizing and negative-TTL fallback.
    pub cache: CacheConfig,
    /// Maximum cached zone cuts in the infrastructure cache.
    pub infra_capacity: usize,
    /// Concurrent in-flight exchanges allowed per authoritative server.
    pub max_inflight_per_server: u32,
    /// Per-nameserver circuit-breaker policy, shared across workers.
    pub health: HealthConfig,
}

impl Default for RecursorConfig {
    fn default() -> Self {
        Self {
            resolver: ResolverConfig::default(),
            cache: CacheConfig::default(),
            infra_capacity: 10_000,
            max_inflight_per_server: 4,
            health: HealthConfig::default(),
        }
    }
}

/// Service-wide counters (monotonic; snapshot via [`Recursor::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecursorStats {
    /// Questions asked.
    pub queries: u64,
    /// Served from the answer cache.
    pub cache_hits: u64,
    /// Needed network work (or a coalesced wait).
    pub cache_misses: u64,
    /// Coalesced onto an identical in-flight question.
    pub coalesced: u64,
    /// Exchange attempts beyond the first within one server-set query.
    pub retries: u64,
    /// Descents that started below the root thanks to the infra cache.
    pub infra_starts: u64,
    /// Network resolutions that failed with silence until the deadline.
    pub failed_timeout: u64,
    /// Network resolutions that failed with ICMP-style unreachable.
    pub failed_unreachable: u64,
    /// Network resolutions that failed on corrupt/invalid replies.
    pub failed_corrupt: u64,
    /// Network resolutions that failed with an error RCODE.
    pub failed_servfail: u64,
    /// Network resolutions that failed for structural reasons.
    pub failed_other: u64,
    /// Hedge datagrams sent for straggling exchanges.
    pub hedges: u64,
    /// Circuit-breaker trips across all tracked servers.
    pub breaker_trips: u64,
}

impl Sub for RecursorStats {
    type Output = RecursorStats;
    fn sub(self, rhs: RecursorStats) -> RecursorStats {
        RecursorStats {
            queries: self.queries - rhs.queries,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            coalesced: self.coalesced - rhs.coalesced,
            retries: self.retries - rhs.retries,
            infra_starts: self.infra_starts - rhs.infra_starts,
            failed_timeout: self.failed_timeout - rhs.failed_timeout,
            failed_unreachable: self.failed_unreachable - rhs.failed_unreachable,
            failed_corrupt: self.failed_corrupt - rhs.failed_corrupt,
            failed_servfail: self.failed_servfail - rhs.failed_servfail,
            failed_other: self.failed_other - rhs.failed_other,
            hedges: self.hedges - rhs.hedges,
            breaker_trips: self.breaker_trips - rhs.breaker_trips,
        }
    }
}

#[derive(Default)]
struct AtomicStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    infra_starts: AtomicU64,
    failed_timeout: AtomicU64,
    failed_unreachable: AtomicU64,
    failed_corrupt: AtomicU64,
    failed_servfail: AtomicU64,
    failed_other: AtomicU64,
    hedges: AtomicU64,
}

impl AtomicStats {
    fn record_failure_cause(&self, cause: FailureCause) {
        let counter = match cause {
            FailureCause::Timeout => &self.failed_timeout,
            FailureCause::Unreachable => &self.failed_unreachable,
            FailureCause::Corrupt => &self.failed_corrupt,
            FailureCause::ServerFailure => &self.failed_servfail,
            FailureCause::Other => &self.failed_other,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Telemetry handles for the resolution path (`recursor.*` names).
/// `Default` handles are detached — they count, but belong to no registry.
#[derive(Clone, Default)]
struct RecursorMetrics {
    queries: Counter,
    coalesced: Counter,
    infra_hits: Counter,
    iteration_depth: Histogram,
}

impl RecursorMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            queries: registry.counter("recursor.queries"),
            coalesced: registry.counter("recursor.singleflight.coalesced"),
            infra_hits: registry.counter("recursor.infra.hits"),
            iteration_depth: registry.histogram("recursor.iteration.depth"),
        }
    }
}

struct Shared {
    config: RecursorConfig,
    root_hints: Vec<IpAddr>,
    answers: AnswerCache,
    infra: InfraCache,
    flight: Singleflight<(Name, RrType), Result<Resolution, ResolveError>>,
    clock: SharedClock,
    gate: ServerGate,
    health: Arc<HealthTracker>,
    stats: AtomicStats,
    metrics: RecursorMetrics,
}

impl Shared {
    fn stats_snapshot(&self) -> RecursorStats {
        let s = &self.stats;
        RecursorStats {
            queries: s.queries.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            infra_starts: s.infra_starts.load(Ordering::Relaxed),
            failed_timeout: s.failed_timeout.load(Ordering::Relaxed),
            failed_unreachable: s.failed_unreachable.load(Ordering::Relaxed),
            failed_corrupt: s.failed_corrupt.load(Ordering::Relaxed),
            failed_servfail: s.failed_servfail.load(Ordering::Relaxed),
            failed_other: s.failed_other.load(Ordering::Relaxed),
            hedges: s.hedges.load(Ordering::Relaxed),
            breaker_trips: self.health.trips(),
        }
    }
}

/// The shared caching-recursor service. Cloning is cheap (an `Arc` bump);
/// all clones share caches, clock and statistics.
#[derive(Clone)]
pub struct Recursor {
    shared: Arc<Shared>,
}

impl Recursor {
    /// A fresh service resolving from `root_hints` (telemetry detached;
    /// see [`Recursor::with_telemetry`]).
    pub fn new(root_hints: Vec<IpAddr>, config: RecursorConfig) -> Self {
        Self::with_telemetry(root_hints, config, &Registry::new())
    }

    /// A fresh service whose `recursor.*` and `health.breaker.*`
    /// instruments live in `registry`.
    pub fn with_telemetry(
        root_hints: Vec<IpAddr>,
        config: RecursorConfig,
        registry: &Registry,
    ) -> Self {
        Self {
            shared: Arc::new(Shared {
                answers: AnswerCache::new(&config.cache).with_telemetry(registry),
                infra: InfraCache::new(config.infra_capacity),
                flight: Singleflight::new(),
                clock: SharedClock::new(),
                gate: ServerGate::new(config.max_inflight_per_server),
                health: Arc::new(HealthTracker::new(config.health).with_telemetry(registry)),
                stats: AtomicStats::default(),
                metrics: RecursorMetrics::new(registry),
                config,
                root_hints,
            }),
        }
    }

    /// Opens a worker bound to its own deterministic netsim stream.
    pub fn worker(&self, net: &Arc<Network>, src: IpAddr, stream: u64) -> RecursorWorker {
        let resolver = Resolver::new(net, src, stream, self.shared.root_hints.clone())
            .with_config(self.shared.config.resolver)
            .with_health(Arc::clone(&self.shared.health));
        let day_anchor_us = self.shared.clock.day_start_us();
        let socket_anchor_us = resolver.now_us();
        RecursorWorker {
            shared: Arc::clone(&self.shared),
            resolver,
            day_anchor_us,
            socket_anchor_us,
        }
    }

    /// Jumps the shared clock to the start of `day`; entries whose TTLs
    /// ended on earlier days expire on their next lookup.
    pub fn begin_day(&self, day: Day) {
        self.shared.clock.advance_to_day(day);
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.shared.clock
    }

    /// The answer cache (for inspection; workers populate it).
    pub fn answer_cache(&self) -> &AnswerCache {
        &self.shared.answers
    }

    /// The infrastructure cache.
    pub fn infra_cache(&self) -> &InfraCache {
        &self.shared.infra
    }

    /// The shared per-nameserver health tracker.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.shared.health
    }

    /// Counter snapshot across all workers.
    pub fn stats(&self) -> RecursorStats {
        self.shared.stats_snapshot()
    }
}

/// One thread's handle on the service: a socket plus the shared caches.
pub struct RecursorWorker {
    shared: Arc<Shared>,
    resolver: Resolver,
    /// The shared-clock day start this worker's socket time is anchored to.
    day_anchor_us: u64,
    /// Socket time when the current day's anchor was taken.
    socket_anchor_us: u64,
}

impl RecursorWorker {
    /// Resolves `(qname, qtype)`, serving from cache when possible and
    /// coalescing with identical in-flight questions otherwise.
    pub fn resolve(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let shared = Arc::clone(&self.shared);
        shared.stats.queries.fetch_add(1, Ordering::Relaxed);
        shared.metrics.queries.inc();

        if let Some(hit) = shared.answers.get(qname, qtype, shared.clock.now_us()) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

        let key = (qname.clone(), qtype);
        let (result, coalesced) = shared.flight.run(key, || {
            let r = self.resolve_network(qname, qtype);
            if let Err(e) = &r {
                // A failure still spent socket time (timeouts, backoff).
                self.sync_clock();
                // Leader-only: one count per network resolution, not per
                // coalesced waiter.
                shared.stats.record_failure_cause(e.cause());
            }
            r
        });
        if coalesced {
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            shared.metrics.coalesced.inc();
        }
        result
    }

    /// UDP queries this worker's socket has sent.
    pub fn queries_sent(&self) -> u64 {
        self.resolver.queries_sent()
    }

    /// This worker's socket virtual clock (µs since creation).
    pub fn now_us(&self) -> u64 {
        self.resolver.now_us()
    }

    /// Service-wide counter snapshot (shared across all workers).
    pub fn service_stats(&self) -> RecursorStats {
        self.shared.stats_snapshot()
    }

    /// Advances this worker's socket clock without sending — a pause
    /// between supervised retry passes (lets scripted outages end and
    /// open breakers cool, since the pause reaches the shared clock).
    pub fn sleep_us(&mut self, dt_us: u64) {
        self.resolver.sleep_us(dt_us);
        self.sync_clock();
    }

    /// Folds this worker's socket time into the shared clock and returns
    /// the shared now. Virtual time is the *max* over workers of (day
    /// start + that worker's own work since the day began), not the sum of
    /// all workers' work — summing would expire entries N× too fast as the
    /// worker count grows.
    fn sync_clock(&mut self) -> u64 {
        let clock = &self.shared.clock;
        let socket_now = self.resolver.now_us();
        let day_start = clock.day_start_us();
        if day_start != self.day_anchor_us {
            self.day_anchor_us = day_start;
            self.socket_anchor_us = socket_now;
        }
        clock.advance_to(self.day_anchor_us + (socket_now - self.socket_anchor_us));
        clock.now_us()
    }

    /// Full resolution over the network (the singleflight leader's path).
    /// Mirrors `Resolver::resolve`'s CNAME-restart loop, with the answer
    /// cache consulted at each restart and results cached on the way out.
    fn resolve_network(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let shared = Arc::clone(&self.shared);
        let started = self.resolver.now_us();
        let mut chain: Vec<Record> = Vec::new();
        let mut current = qname.clone();

        for _ in 0..=shared.config.resolver.max_indirections {
            // A restarted alias target may itself be cached (shared CDN
            // edges are hit by many apexes).
            if current != *qname {
                let now = shared.clock.now_us();
                if let Some((hit, expires_at_us)) =
                    shared.answers.get_with_expiry(&current, qtype, now)
                {
                    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    // The replayed records keep their original ttl fields,
                    // so the re-cached chain must not outlive the entry it
                    // was derived from: cap by the remaining lifetime.
                    let remaining_secs = (expires_at_us.saturating_sub(now) / 1_000_000) as u32;
                    chain.extend(hit.answers);
                    return Ok(self.finish(
                        qname,
                        qtype,
                        hit.rcode,
                        chain,
                        started,
                        None,
                        Some(remaining_secs),
                    ));
                }
            }

            let resp = self.resolve_once(&current, qtype, 0)?;
            match resp.header.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => {
                    chain.extend(resp.answers.iter().cloned());
                    let soa = soa_minimum(&resp);
                    if current != *qname {
                        self.cache_segment(&current, qtype, Rcode::NxDomain, &resp.answers, soa);
                    }
                    return Ok(self.finish(
                        qname,
                        qtype,
                        Rcode::NxDomain,
                        chain,
                        started,
                        soa,
                        None,
                    ));
                }
                rc => return Err(ResolveError::ServerFailure(rc)),
            }

            chain.extend(resp.answers.iter().cloned());

            // Follow the CNAME chain inside this response.
            let mut tip = current.clone();
            loop {
                let next = resp.answers.iter().find_map(|r| match &r.rdata {
                    RData::Cname(t) if r.name == tip => Some(t.clone()),
                    _ => None,
                });
                match next {
                    Some(t) => tip = t,
                    None => break,
                }
            }

            let have_final = qtype == RrType::Cname
                || resp
                    .answers
                    .iter()
                    .any(|r| r.name == tip && r.rtype() == qtype);
            if have_final || tip == current {
                let soa = soa_minimum(&resp);
                if current != *qname {
                    // Terminal segment of a restarted chase: cacheable under
                    // its own name, so other apexes aliased onto the same
                    // target (shared CDN edges) hit without a descent.
                    self.cache_segment(&current, qtype, Rcode::NoError, &resp.answers, soa);
                }
                return Ok(self.finish(qname, qtype, Rcode::NoError, chain, started, soa, None));
            }
            current = tip;
        }
        Err(ResolveError::TooManyIndirections)
    }

    /// Caches a terminal resolution segment under its own name. Only
    /// complete segments may be stored: a mid-chain response (a CNAME whose
    /// target lives elsewhere) would replay as a truncated answer.
    fn cache_segment(
        &self,
        qname: &Name,
        qtype: RrType,
        rcode: Rcode,
        answers: &[Record],
        soa_minimum: Option<u32>,
    ) {
        let shared = &self.shared;
        let negative = rcode == Rcode::NxDomain || !answers.iter().any(|r| r.rtype() == qtype);
        let ttl = if negative {
            soa_minimum.unwrap_or(shared.config.cache.negative_ttl_fallback)
        } else {
            answers.iter().map(|r| r.ttl).min().unwrap_or(0)
        };
        let resolution = Resolution {
            rcode,
            answers: answers.to_vec(),
            elapsed_us: 0,
        };
        shared.answers.insert(
            qname,
            qtype,
            resolution,
            ttl,
            negative,
            shared.clock.now_us(),
        );
    }

    /// Folds elapsed socket time into the shared clock, caches the result
    /// (negative entries live for the SOA `minimum`, per RFC 2308), and
    /// builds the final [`Resolution`]. `ttl_cap` bounds the cached
    /// lifetime when the chain replayed an already-cached entry, so a
    /// derived answer never outlives its source.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        qname: &Name,
        qtype: RrType,
        rcode: Rcode,
        answers: Vec<Record>,
        started_us: u64,
        soa_minimum: Option<u32>,
        ttl_cap: Option<u32>,
    ) -> Resolution {
        let elapsed_us = self.resolver.now_us() - started_us;
        let now = self.sync_clock();
        let shared = &self.shared;

        let resolution = Resolution {
            rcode,
            answers,
            elapsed_us,
        };
        let negative =
            rcode == Rcode::NxDomain || !resolution.answers.iter().any(|r| r.rtype() == qtype);
        let ttl = if negative {
            soa_minimum.unwrap_or(shared.config.cache.negative_ttl_fallback)
        } else {
            resolution.answers.iter().map(|r| r.ttl).min().unwrap_or(0)
        };
        let ttl = ttl_cap.map_or(ttl, |cap| ttl.min(cap));
        shared
            .answers
            .insert(qname, qtype, resolution.clone(), ttl, negative, now);
        resolution
    }

    /// One referral descent for a single owner name, starting from the
    /// deepest cached cut (the root hints when the infra cache is cold).
    /// `depth` guards nested glue resolutions.
    fn resolve_once(
        &mut self,
        qname: &Name,
        qtype: RrType,
        depth: u32,
    ) -> Result<Message, ResolveError> {
        let shared = Arc::clone(&self.shared);
        if depth > 2 {
            return Err(ResolveError::NoNameservers);
        }
        let servers = match shared.infra.deepest(qname, shared.clock.now_us()) {
            Some((_, cached)) => {
                shared.stats.infra_starts.fetch_add(1, Ordering::Relaxed);
                shared.metrics.infra_hits.inc();
                cached
            }
            None => shared.root_hints.clone(),
        };

        let mut rounds = 0u64;
        let result = self.descend(qname, qtype, depth, servers, &mut rounds);
        shared.metrics.iteration_depth.observe(rounds);
        result
    }

    /// The referral walk of [`RecursorWorker::resolve_once`], split out so
    /// the number of query rounds lands in the iteration-depth histogram
    /// on every exit path.
    fn descend(
        &mut self,
        qname: &Name,
        qtype: RrType,
        depth: u32,
        mut servers: Vec<IpAddr>,
        rounds: &mut u64,
    ) -> Result<Message, ResolveError> {
        let shared = Arc::clone(&self.shared);
        for _ in 0..=shared.config.resolver.max_referrals {
            *rounds += 1;
            let resp = self.query_gated(&servers, qname, qtype)?;
            match resp.header.rcode {
                Rcode::NoError => {}
                _ => return Ok(resp),
            }
            if !resp.answers.is_empty() || resp.header.aa {
                return Ok(resp);
            }

            // Referral: learn the cut, gather NS targets + glue.
            let ns_records: Vec<&Record> = resp
                .authorities
                .iter()
                .filter(|r| matches!(r.rdata, RData::Ns(_)))
                .collect();
            let Some(cut) = ns_records.first().map(|r| r.name.clone()) else {
                return Err(ResolveError::NoNameservers);
            };
            let ns_ttl = ns_records.iter().map(|r| r.ttl).min().unwrap_or(0);
            let ns_targets: Vec<Name> = ns_records
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(t) => Some(t.clone()),
                    _ => None,
                })
                .collect();

            let mut next: Vec<IpAddr> = resp
                .additionals
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::A(a) if ns_targets.contains(&r.name) => Some(IpAddr::V4(*a)),
                    _ => None,
                })
                .collect();
            if next.is_empty() {
                // Glueless delegation: resolve the first NS names, via the
                // answer cache when their addresses are already known.
                for target in ns_targets.iter().take(2) {
                    let cached = shared.answers.get(target, RrType::A, shared.clock.now_us());
                    let from_cache = cached.is_some();
                    let answers = match cached {
                        Some(hit) => {
                            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                            hit.answers
                        }
                        None => match self.resolve_once(target, RrType::A, depth + 1) {
                            Ok(m) => m.answers,
                            Err(_) => continue,
                        },
                    };
                    let known = next.len();
                    next.extend(answers.iter().filter_map(|r| match &r.rdata {
                        RData::A(a) if r.name == *target => Some(IpAddr::V4(*a)),
                        _ => None,
                    }));
                    if !from_cache && next.len() > known {
                        // Cache the NS host's address, so the next cut it
                        // serves skips this lookup.
                        self.sync_clock();
                        self.cache_segment(target, RrType::A, Rcode::NoError, &answers, None);
                    }
                }
            }
            if next.is_empty() {
                return Err(ResolveError::NoNameservers);
            }
            shared
                .infra
                .put(cut, next.clone(), ns_ttl, shared.clock.now_us());
            servers = next;
        }
        Err(ResolveError::TooManyReferrals)
    }

    /// `Resolver`-style retry/failover over `servers`, one gated validated
    /// exchange at a time. Server order consults the shared circuit
    /// breakers; retry rounds back off exponentially (if configured); a
    /// straggling exchange hedges onto the next candidate when that
    /// server's politeness gate has a free slot.
    fn query_gated(
        &mut self,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let shared = Arc::clone(&self.shared);
        let hedging = shared.config.resolver.hedge_after_us > 0;
        let mut last_err = ResolveError::Timeout;
        let mut attempts = 0u64;
        for round in 0..shared.config.resolver.retries.max(1) {
            self.resolver.backoff_sleep(round);
            let now = self.sync_clock();
            let ordered = shared.health.order(servers, now);
            for (i, &server) in ordered.iter().enumerate() {
                if attempts > 0 {
                    shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                }
                attempts += 1;
                let hedges_before = self.resolver.hedges_sent();
                let exchanged = {
                    let _permit = shared.gate.acquire(server);
                    // Hedge only onto a candidate with a free politeness
                    // slot; never block on a second permit (deadlock-free:
                    // each worker blocks on at most its primary).
                    let hedge_permit = if hedging {
                        ordered
                            .get(i + 1)
                            .and_then(|&h| shared.gate.try_acquire(h).map(|p| (h, p)))
                    } else {
                        None
                    };
                    let hedge = hedge_permit.as_ref().map(|&(h, _)| h);
                    self.resolver.exchange_hedged(server, hedge, qname, qtype)
                };
                let hedged = self.resolver.hedges_sent() - hedges_before;
                if hedged > 0 {
                    shared.stats.hedges.fetch_add(hedged, Ordering::Relaxed);
                }
                match exchanged {
                    Ok(out) => {
                        shared.health.record_success(out.responder);
                        return Ok(out.message);
                    }
                    Err(e) => {
                        let now = self.sync_clock();
                        shared.health.record_failure(server, now);
                        last_err = e;
                    }
                }
            }
        }
        Err(last_err)
    }
}

/// RFC 2308 negative TTL: the SOA `minimum` attached to the authority
/// section of a negative answer.
fn soa_minimum(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(soa.minimum),
        _ => None,
    })
}
