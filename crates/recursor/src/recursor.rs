//! The recursor itself: cache-assisted iterative resolution.
//!
//! A [`Recursor`] is one resolver with everything it resolves through:
//! its socket-backed [`Resolver`] for the validated wire exchanges, its
//! caches, its virtual clock and its counters. It resolves through
//! `&mut self` on one thread, so no question waits on a lock. A
//! resolution consults, in order:
//!
//! 1. the answer cache (TTL-aware, positive + RFC 2308 negative; it also
//!    holds the addresses of glueless name servers resolved mid-descent),
//! 2. the infrastructure cache (start the descent at the deepest known cut
//!    instead of the root),
//! 3. the wire, with `ResolverConfig` retry/timeout policy, circuit
//!    breakers and hedging.
//!
//! With both caches off (`CacheConfig::capacity` and `infra_capacity`
//! zero) every question descends from the root: the uncached wire
//! baseline.
//!
//! Cache hits replay the original [`Resolution`] verbatim — same rcode,
//! same records, same TTL fields — so measurement observations are
//! byte-identical with and without the cache (asserted by the three-way
//! equivalence test).

use crate::cache::{AnswerCache, CacheConfig};
use crate::clock::Clock;
use crate::infra::InfraCache;
use dps_authdns::health::{HealthConfig, HealthTracker};
use dps_authdns::resolver::{FailureCause, Resolution, ResolveError, Resolver, ResolverConfig};
use dps_dns::{Message, Name, RData, Rcode, Record, RrType};
use dps_netsim::{Day, Network};
use dps_telemetry::{Counter, Histogram, Registry};
use std::net::IpAddr;
use std::sync::Arc;

/// Tunables for the whole service.
#[derive(Debug, Clone, Copy)]
pub struct RecursorConfig {
    /// Wire policy: per-attempt timeout, retries, loop guards, backoff,
    /// hedging.
    pub resolver: ResolverConfig,
    /// Answer-cache sizing and negative-TTL fallback.
    pub cache: CacheConfig,
    /// Maximum cached zone cuts in the infrastructure cache (`0` caches
    /// none).
    pub infra_capacity: usize,
    /// Per-nameserver circuit-breaker policy.
    pub health: HealthConfig,
}

impl Default for RecursorConfig {
    fn default() -> Self {
        Self {
            resolver: ResolverConfig::default(),
            cache: CacheConfig::default(),
            infra_capacity: 10_000,
            health: HealthConfig::default(),
        }
    }
}

/// Monotonic counters (snapshot via [`Recursor::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecursorStats {
    /// Questions asked.
    pub queries: u64,
    /// Served from the answer cache.
    pub cache_hits: u64,
    /// Needed network work.
    pub cache_misses: u64,
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

impl RecursorStats {
    fn record_failure_cause(&mut self, cause: FailureCause) {
        let counter = match cause {
            FailureCause::Timeout => &mut self.failed_timeout,
            FailureCause::Unreachable => &mut self.failed_unreachable,
            FailureCause::Corrupt => &mut self.failed_corrupt,
            FailureCause::ServerFailure => &mut self.failed_servfail,
            FailureCause::Other => &mut self.failed_other,
        };
        *counter += 1;
    }
}

/// Telemetry handles for the resolution path (`recursor.*` names).
/// `Default` handles are detached — they count, but belong to no registry.
#[derive(Clone, Default)]
struct RecursorMetrics {
    queries: Counter,
    infra_hits: Counter,
    iteration_depth: Histogram,
}

impl RecursorMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            queries: registry.counter("recursor.queries"),
            infra_hits: registry.counter("recursor.infra.hits"),
            iteration_depth: registry.histogram("recursor.iteration.depth"),
        }
    }
}

/// A caching recursive resolver that owns its socket, caches, clock and
/// counters. Its root hints, wire policy and health tracker are its
/// [`Resolver`]'s.
pub struct Recursor {
    resolver: Resolver,
    answers: AnswerCache,
    infra: InfraCache,
    /// RFC 2308 fallback lifetime of negative answers without an SOA.
    negative_ttl_fallback: u32,
    clock: Clock,
    stats: RecursorStats,
    metrics: RecursorMetrics,
    /// Server lists of finished descents, reused by the next ones.
    spare_servers: Vec<Vec<IpAddr>>,
    /// The breaker-ordered server list of the current query.
    ordered: Vec<IpAddr>,
}

impl Recursor {
    /// A fresh resolver sending from `src` on its own deterministic netsim
    /// `stream`, resolving from `root_hints` (telemetry detached; see
    /// [`Recursor::with_telemetry`]).
    pub fn new(
        net: &Arc<Network>,
        src: IpAddr,
        stream: u64,
        root_hints: Vec<IpAddr>,
        config: RecursorConfig,
    ) -> Self {
        Self::with_telemetry(net, src, stream, root_hints, config, &Registry::new())
    }

    /// Like [`Recursor::new`], with the `recursor.*` and
    /// `health.breaker.*` instruments in `registry`.
    pub fn with_telemetry(
        net: &Arc<Network>,
        src: IpAddr,
        stream: u64,
        root_hints: Vec<IpAddr>,
        config: RecursorConfig,
        registry: &Registry,
    ) -> Self {
        let health = HealthTracker::new(config.health).with_telemetry(registry);
        let resolver = Resolver::new(net, src, stream, root_hints)
            .with_config(config.resolver)
            .with_health(Arc::new(health));
        Self::over(resolver, config.cache, config.infra_capacity, registry)
    }

    /// A recursor resolving through `resolver`, whose root hints, wire
    /// policy and health tracker it uses, with an answer cache sized by
    /// `cache` and an infrastructure cache of `infra_capacity` cuts, and
    /// its `recursor.*` instruments in `registry`. Zero for both
    /// capacities gives the uncached baseline: every question descends
    /// from the root.
    pub fn over(
        resolver: Resolver,
        cache: CacheConfig,
        infra_capacity: usize,
        registry: &Registry,
    ) -> Self {
        Self {
            answers: AnswerCache::new(&cache).with_telemetry(registry),
            infra: InfraCache::new(infra_capacity),
            negative_ttl_fallback: cache.negative_ttl_fallback,
            clock: Clock::new(resolver.now_us()),
            metrics: RecursorMetrics::new(registry),
            stats: RecursorStats::default(),
            resolver,
            spare_servers: Vec::new(),
            ordered: Vec::new(),
        }
    }

    /// Jumps the virtual clock to the start of `day`; entries whose TTLs
    /// ended on earlier days expire on their next lookup.
    pub fn begin_day(&mut self, day: Day) {
        self.clock.begin_day(day, self.resolver.now_us());
    }

    /// The virtual time caches and breakers are read against (µs).
    pub fn clock_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The answer cache.
    pub fn answer_cache(&mut self) -> &mut AnswerCache {
        &mut self.answers
    }

    /// The infrastructure cache.
    pub fn infra_cache(&self) -> &InfraCache {
        &self.infra
    }

    /// The per-nameserver health tracker.
    pub fn health(&self) -> &Arc<HealthTracker> {
        self.resolver.health()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RecursorStats {
        RecursorStats {
            breaker_trips: self.health().trips(),
            ..self.stats
        }
    }

    /// This resolver's socket virtual clock (µs since creation).
    pub fn now_us(&self) -> u64 {
        self.resolver.now_us()
    }

    /// Resolves `(qname, qtype)`, serving from cache when possible.
    pub fn resolve(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        self.stats.queries += 1;
        self.metrics.queries.inc();

        if let Some(hit) = self.answers.get(qname, qtype, self.clock.now_us()) {
            self.stats.cache_hits += 1;
            return Ok(hit);
        }
        self.stats.cache_misses += 1;

        let result = self.resolve_network(qname, qtype);
        if let Err(e) = &result {
            // A failure still spent socket time (timeouts, backoff).
            self.sync_clock();
            self.stats.record_failure_cause(e.cause());
        }
        result
    }

    /// Advances the socket clock without sending — a pause between
    /// supervised retry passes (lets scripted outages end and open
    /// breakers cool, since the pause reaches the virtual clock).
    pub fn sleep_us(&mut self, dt_us: u64) {
        self.resolver.sleep_us(dt_us);
        self.sync_clock();
    }

    /// Folds the socket time spent since the last call into the virtual
    /// clock and returns the new now.
    fn sync_clock(&mut self) -> u64 {
        self.clock.sync(self.resolver.now_us())
    }

    /// Full resolution over the network: one descent per CNAME restart
    /// (an alias target outside the answering zone starts a new one),
    /// with the answer cache consulted at each restart and results cached
    /// on the way out.
    fn resolve_network(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let started = self.resolver.now_us();
        let mut chain: Vec<Record> = Vec::new();
        // The alias target the chase restarted at, once it has.
        let mut restarted: Option<Name> = None;

        for _ in 0..=self.resolver.config().max_indirections {
            let current = restarted.as_ref().unwrap_or(qname);
            let is_restart = current != qname;
            // A restarted alias target may itself be cached (shared CDN
            // edges are hit by many apexes).
            if is_restart {
                let now = self.clock.now_us();
                if let Some((hit, expires_at_us)) = self.answers.peek(current, qtype, now) {
                    self.stats.cache_hits += 1;
                    // The replayed records keep their original ttl fields,
                    // so the re-cached chain must not outlive the entry it
                    // was derived from: cap by the remaining lifetime.
                    let remaining_secs = (expires_at_us.saturating_sub(now) / 1_000_000) as u32;
                    let rcode = hit.rcode;
                    chain.extend(hit.answers.iter().cloned());
                    return Ok(self.finish(
                        qname,
                        qtype,
                        rcode,
                        chain,
                        started,
                        None,
                        Some(remaining_secs),
                    ));
                }
            }

            let resp = self.resolve_once(current, qtype, 0)?;
            let soa = soa_minimum(&resp);
            match resp.header.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => {
                    if is_restart {
                        self.cache_segment(current, qtype, Rcode::NxDomain, &resp.answers, soa);
                    }
                    append(&mut chain, resp.answers);
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

            // Follow the CNAME chain inside this response. A chain without
            // a repeat has fewer links than the response has records, so
            // the bound only cuts a loop (a server may answer with one).
            let mut tip = current;
            for _ in 0..resp.answers.len() {
                match resp.answers.iter().find_map(|r| match &r.rdata {
                    RData::Cname(t) if r.name == *tip => Some(t),
                    _ => None,
                }) {
                    Some(next) => tip = next,
                    None => break,
                }
            }

            let have_final = qtype == RrType::Cname
                || resp
                    .answers
                    .iter()
                    .any(|r| r.name == *tip && r.rtype() == qtype);
            if have_final || tip == current {
                if is_restart {
                    // Terminal segment of a restarted chase: cacheable under
                    // its own name, so other apexes aliased onto the same
                    // target (shared CDN edges) hit without a descent.
                    self.cache_segment(current, qtype, Rcode::NoError, &resp.answers, soa);
                }
                append(&mut chain, resp.answers);
                return Ok(self.finish(qname, qtype, Rcode::NoError, chain, started, soa, None));
            }
            let tip = tip.clone();
            append(&mut chain, resp.answers);
            restarted = Some(tip);
        }
        Err(ResolveError::TooManyIndirections)
    }

    /// Caches a terminal resolution segment under its own name. Only
    /// complete segments may be stored: a mid-chain response (a CNAME whose
    /// target lives elsewhere) would replay as a truncated answer.
    fn cache_segment(
        &mut self,
        qname: &Name,
        qtype: RrType,
        rcode: Rcode,
        answers: &[Record],
        soa_minimum: Option<u32>,
    ) {
        let negative = rcode == Rcode::NxDomain || !answers.iter().any(|r| r.rtype() == qtype);
        let ttl = if negative {
            soa_minimum.unwrap_or(self.negative_ttl_fallback)
        } else {
            answers.iter().map(|r| r.ttl).min().unwrap_or(0)
        };
        if ttl == 0 {
            // Uncacheable: do not copy the records for nothing.
            return;
        }
        let resolution = Resolution {
            rcode,
            answers: answers.to_vec(),
            elapsed_us: 0,
        };
        let now = self.clock.now_us();
        self.answers
            .insert(qname, qtype, resolution, ttl, negative, now);
    }

    /// Folds elapsed socket time into the virtual clock, caches the result
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

        let resolution = Resolution {
            rcode,
            answers,
            elapsed_us,
        };
        let negative =
            rcode == Rcode::NxDomain || !resolution.answers.iter().any(|r| r.rtype() == qtype);
        let ttl = if negative {
            soa_minimum.unwrap_or(self.negative_ttl_fallback)
        } else {
            resolution.answers.iter().map(|r| r.ttl).min().unwrap_or(0)
        };
        let ttl = ttl_cap.map_or(ttl, |cap| ttl.min(cap));
        if ttl > 0 {
            self.answers
                .insert(qname, qtype, resolution.clone(), ttl, negative, now);
        }
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
        if depth > 2 {
            return Err(ResolveError::NoNameservers);
        }
        // Nested glue resolutions each take a server list of their own.
        let mut servers = self.spare_servers.pop().unwrap_or_default();
        servers.clear();
        match self.infra.deepest(qname, self.clock.now_us()) {
            Some(cached) => {
                servers.extend_from_slice(cached);
                self.stats.infra_starts += 1;
                self.metrics.infra_hits.inc();
            }
            None => servers.extend_from_slice(self.resolver.root_hints()),
        }

        let mut rounds = 0u64;
        let result = self.descend(qname, qtype, depth, &mut servers, &mut rounds);
        self.spare_servers.push(servers);
        self.metrics.iteration_depth.observe(rounds);
        result
    }

    /// The referral walk of [`Recursor::resolve_once`], split out so
    /// the number of query rounds lands in the iteration-depth histogram
    /// on every exit path. `servers` holds the current cut's addresses;
    /// each referral refills it with the next cut's.
    fn descend(
        &mut self,
        qname: &Name,
        qtype: RrType,
        depth: u32,
        servers: &mut Vec<IpAddr>,
        rounds: &mut u64,
    ) -> Result<Message, ResolveError> {
        for _ in 0..=self.resolver.config().max_referrals {
            *rounds += 1;
            let resp = self.query(servers, qname, qtype)?;
            match resp.header.rcode {
                Rcode::NoError => {}
                _ => return Ok(resp),
            }
            if !resp.answers.is_empty() || resp.header.aa {
                return Ok(resp);
            }

            // Referral: learn the cut, gather NS targets + glue.
            let ns_records = || {
                resp.authorities.iter().filter_map(|r| match &r.rdata {
                    RData::Ns(target) => Some((r, target)),
                    _ => None,
                })
            };
            let Some(cut) = ns_records().next().map(|(r, _)| &r.name) else {
                return Err(ResolveError::NoNameservers);
            };
            let ns_ttl = ns_records().map(|(r, _)| r.ttl).min().unwrap_or(0);
            servers.clear();
            servers.extend(resp.additionals.iter().filter_map(|r| match &r.rdata {
                RData::A(a) if ns_records().any(|(_, t)| *t == r.name) => Some(IpAddr::V4(*a)),
                _ => None,
            }));
            if servers.is_empty() {
                // Glueless delegation: resolve the first NS names, via the
                // answer cache when their addresses are already known.
                for (_, target) in ns_records().take(2) {
                    let now = self.clock.now_us();
                    if let Some((hit, _)) = self.answers.peek(target, RrType::A, now) {
                        self.stats.cache_hits += 1;
                        servers.extend(addresses_of(&hit.answers, target));
                        continue;
                    }
                    let Ok(m) = self.resolve_once(target, RrType::A, depth + 1) else {
                        continue;
                    };
                    let known = servers.len();
                    servers.extend(addresses_of(&m.answers, target));
                    if servers.len() > known {
                        // Cache the NS host's address, so the next cut it
                        // serves skips this lookup.
                        self.sync_clock();
                        self.cache_segment(target, RrType::A, Rcode::NoError, &m.answers, None);
                    }
                }
            }
            if servers.is_empty() {
                return Err(ResolveError::NoNameservers);
            }
            self.infra.put(cut, servers, ns_ttl, self.clock.now_us());
        }
        Err(ResolveError::TooManyReferrals)
    }

    /// Retry/failover over `servers`, one validated exchange at a time. Server order consults the circuit breakers;
    /// retry rounds back off exponentially (if configured); a straggling
    /// exchange hedges onto the next candidate.
    fn query(
        &mut self,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let hedging = self.resolver.config().hedge_after_us > 0;
        let mut last_err = ResolveError::Timeout;
        let mut attempts = 0u64;
        // One ordering buffer serves every round (a query never nests).
        let mut ordered = std::mem::take(&mut self.ordered);
        let result = 'rounds: {
            for round in 0..self.resolver.config().retries.max(1) {
                self.resolver.backoff_sleep(round);
                let now = self.sync_clock();
                self.resolver.health().order(servers, now, &mut ordered);
                for (i, &server) in ordered.iter().enumerate() {
                    if attempts > 0 {
                        self.stats.retries += 1;
                    }
                    attempts += 1;
                    let hedges_before = self.resolver.hedges_sent();
                    let hedge = if hedging {
                        ordered.get(i + 1).copied()
                    } else {
                        None
                    };
                    let exchanged = self.resolver.exchange_hedged(server, hedge, qname, qtype);
                    self.stats.hedges += self.resolver.hedges_sent() - hedges_before;
                    match exchanged {
                        Ok(out) => {
                            self.resolver.health().record_success(out.responder);
                            break 'rounds Ok(out.message);
                        }
                        Err(e) => {
                            let now = self.sync_clock();
                            self.resolver.health().record_failure(server, now);
                            last_err = e;
                        }
                    }
                }
            }
            Err(last_err)
        };
        self.ordered = ordered;
        result
    }
}

/// Appends a response's answer records to a resolution chain (taking
/// the records whole when the chain is still empty).
fn append(chain: &mut Vec<Record>, answers: Vec<Record>) {
    if chain.is_empty() {
        *chain = answers;
    } else {
        chain.extend(answers);
    }
}

/// The addresses `answers` gives for `host`.
fn addresses_of<'a>(answers: &'a [Record], host: &'a Name) -> impl Iterator<Item = IpAddr> + 'a {
    answers.iter().filter_map(move |r| match &r.rdata {
        RData::A(a) if r.name == *host => Some(IpAddr::V4(*a)),
        _ => None,
    })
}

/// RFC 2308 negative TTL: the SOA `minimum` attached to the authority
/// section of a negative answer.
fn soa_minimum(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(soa.minimum),
        _ => None,
    })
}
