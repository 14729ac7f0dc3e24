//! Iterative resolution: the wire path and the bulk (direct) path.
//!
//! [`Resolver`] talks real (simulated) UDP: it starts from root hints,
//! chases referrals using glue, restarts on out-of-zone CNAMEs, validates
//! transaction ids, retries over loss, and rotates servers — the behaviour
//! an active measurement platform needs on the open Internet.
//!
//! [`DirectResolver`] evaluates the *same* delegation-following semantics
//! against the [`Catalog`] without encoding a single byte. The measurement
//! pipeline uses it for full-zone daily sweeps (10⁸ lookups), after tests
//! establish it agrees with the wire path.

use crate::catalog::Catalog;
use crate::health::HealthTracker;
use crate::zone::LookupOutcome;
use dps_dns::{Message, Name, RData, Rcode, Record, RrType, WireError};
use dps_netsim::{Network, RecvError, Socket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

/// Tunables for the wire resolver.
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfig {
    /// Per-attempt receive timeout (virtual µs).
    pub attempt_timeout_us: u64,
    /// Send attempts per server before failing over.
    pub retries: u32,
    /// Maximum CNAME restarts per resolution.
    pub max_indirections: u32,
    /// Maximum referral hops per restart.
    pub max_referrals: u32,
    /// Base of the exponential backoff between retry rounds (virtual µs);
    /// round `n` sleeps `base << (n-1)`, jittered. `0` disables backoff.
    pub backoff_base_us: u64,
    /// Cap on a single backoff sleep.
    pub backoff_max_us: u64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter]` (own RNG stream, so fault
    /// sequences stay comparable across configs).
    pub backoff_jitter: f64,
    /// Hedging threshold: if a reply is this late (virtual µs), the same
    /// query is sent to a second server and the first valid answer wins.
    /// `0` disables hedging.
    pub hedge_after_us: u64,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        Self {
            attempt_timeout_us: 500_000,
            retries: 3,
            max_indirections: 8,
            max_referrals: 12,
            backoff_base_us: 0,
            backoff_max_us: 2_000_000,
            backoff_jitter: 0.0,
            hedge_after_us: 0,
        }
    }
}

impl ResolverConfig {
    /// A fault-tolerant preset for supervised sweeps: exponential backoff
    /// (50 ms base, 25% jitter) and hedged second attempts for stragglers.
    pub fn resilient() -> Self {
        Self {
            backoff_base_us: 50_000,
            backoff_max_us: 2_000_000,
            backoff_jitter: 0.25,
            hedge_after_us: 150_000,
            ..Self::default()
        }
    }
}

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// Every server/retry combination timed out.
    Timeout,
    /// Every queried server bounced an ICMP-style unreachable notice.
    Unreachable,
    /// Replies arrived before the deadline but none survived validation
    /// (bit flips, transaction-id mismatches, unparsable wire data).
    CorruptReply,
    /// A server answered with a non-recoverable RCODE (SERVFAIL, REFUSED…).
    ServerFailure(Rcode),
    /// More CNAME restarts than allowed.
    TooManyIndirections,
    /// More referral hops than allowed (delegation loop).
    TooManyReferrals,
    /// A referral gave no usable name servers.
    NoNameservers,
    /// The response was malformed beyond use.
    Malformed(WireError),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => write!(f, "all servers timed out"),
            Self::Unreachable => write!(f, "all servers unreachable"),
            Self::CorruptReply => write!(f, "replies arrived but none survived validation"),
            Self::ServerFailure(rc) => write!(f, "server failure: {rc}"),
            Self::TooManyIndirections => write!(f, "CNAME chain too long"),
            Self::TooManyReferrals => write!(f, "referral chain too long"),
            Self::NoNameservers => write!(f, "referral without usable name servers"),
            Self::Malformed(e) => write!(f, "malformed response: {e}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// The coarse failure taxonomy used by quality accounting (one counter per
/// variant, stable across [`ResolveError`] refinements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// Silence until the deadline.
    Timeout,
    /// ICMP-style unreachable.
    Unreachable,
    /// Corrupt, truncated, or otherwise invalid replies.
    Corrupt,
    /// An explicit error RCODE (SERVFAIL, REFUSED…).
    ServerFailure,
    /// Everything else (delegation loops, missing nameservers…).
    Other,
}

impl FailureCause {
    /// Stable label, used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Timeout => "timeout",
            Self::Unreachable => "unreachable",
            Self::Corrupt => "corrupt",
            Self::ServerFailure => "servfail",
            Self::Other => "other",
        }
    }
}

impl ResolveError {
    /// Maps the error onto the coarse failure taxonomy.
    pub fn cause(&self) -> FailureCause {
        match self {
            Self::Timeout => FailureCause::Timeout,
            Self::Unreachable => FailureCause::Unreachable,
            Self::CorruptReply | Self::Malformed(_) => FailureCause::Corrupt,
            Self::ServerFailure(_) => FailureCause::ServerFailure,
            Self::TooManyIndirections | Self::TooManyReferrals | Self::NoNameservers => {
                FailureCause::Other
            }
        }
    }

    /// True if a later retry could plausibly succeed: network-induced
    /// failures are transient, structural ones (delegation loops, CNAME
    /// chains too long) are not. `NoNameservers` counts as transient
    /// because a blacked-out parent zone produces it for glueless
    /// delegations.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Timeout
            | Self::Unreachable
            | Self::CorruptReply
            | Self::ServerFailure(_)
            | Self::Malformed(_)
            | Self::NoNameservers => true,
            Self::TooManyIndirections | Self::TooManyReferrals => false,
        }
    }
}

/// The result of a successful resolution.
///
/// `answers` holds the full chain in resolution order: every CNAME record
/// traversed (the paper stores "CNAMEs and their full expansions") followed
/// by the records of the requested type, if any. An authoritative *negative*
/// answer (NXDOMAIN / NODATA) is a success at this level; check `rcode` and
/// `answers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// Final response code (NoError or NxDomain).
    pub rcode: Rcode,
    /// CNAME chain + final RRset, in chase order.
    pub answers: Vec<Record>,
    /// Virtual time the resolution took (wire path only; 0 for direct).
    pub elapsed_us: u64,
}

impl Resolution {
    /// Records of the requested type in the answer chain.
    pub fn records_of(&self, rtype: RrType) -> impl Iterator<Item = &Record> {
        self.answers.iter().filter(move |r| r.rtype() == rtype)
    }

    /// The CNAME expansion: each target name in chase order.
    pub fn cname_chain(&self) -> Vec<&Name> {
        self.answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Cname(t) => Some(t),
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Wire path
// ---------------------------------------------------------------------------

/// An iterative resolver over the simulated network.
pub struct Resolver {
    socket: Socket,
    root_hints: Vec<IpAddr>,
    config: ResolverConfig,
    health: Option<Arc<HealthTracker>>,
    /// Jitter RNG, deliberately separate from the socket's fault RNG so
    /// enabling backoff does not perturb the simulated fault sequence.
    rng: SmallRng,
    next_id: u16,
    sent: u64,
    hedges: u64,
    /// The breaker-ordered server list of the current query.
    ordered: Vec<IpAddr>,
    /// The current exchange's query datagram.
    query: Vec<u8>,
}

impl Resolver {
    /// Creates a resolver sending from `src`; `stream` keeps parallel
    /// resolvers deterministic (see [`Network::socket`]).
    pub fn new(net: &Arc<Network>, src: IpAddr, stream: u64, root_hints: Vec<IpAddr>) -> Self {
        let jitter_seed = net
            .seed()
            .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ 0x0005_EED0_FBAC_C0FF;
        Self {
            socket: net.socket(src, stream),
            root_hints,
            config: ResolverConfig::default(),
            health: None,
            rng: SmallRng::seed_from_u64(jitter_seed),
            next_id: 1,
            sent: 0,
            hedges: 0,
            ordered: Vec::new(),
            query: Vec::new(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ResolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a (shared) per-nameserver health tracker; server selection
    /// will deprioritise servers whose circuit breaker is open.
    pub fn with_health(mut self, health: Arc<HealthTracker>) -> Self {
        self.health = Some(health);
        self
    }

    /// The attached health tracker, if any.
    pub fn health(&self) -> Option<&Arc<HealthTracker>> {
        self.health.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Virtual time consumed by this resolver so far.
    pub fn now_us(&self) -> u64 {
        self.socket.now_us()
    }

    /// UDP queries sent by this resolver so far (including retries).
    pub fn queries_sent(&self) -> u64 {
        self.sent
    }

    /// Hedge datagrams sent so far.
    pub fn hedges_sent(&self) -> u64 {
        self.hedges
    }

    /// Advances this resolver's virtual clock without sending (a pause
    /// between supervised retry passes).
    pub fn sleep_us(&mut self, dt_us: u64) {
        self.socket.sleep(dt_us);
    }

    /// Sleeps the exponential-backoff delay for retry round `round`
    /// (1-based; round 0 is the initial attempt and never sleeps).
    pub fn backoff_sleep(&mut self, round: u32) {
        let base = self.config.backoff_base_us;
        if base == 0 || round == 0 {
            return;
        }
        let exp = base
            .checked_shl(round.saturating_sub(1).min(20))
            .unwrap_or(u64::MAX);
        let mut delay = exp.min(self.config.backoff_max_us);
        let jitter = self.config.backoff_jitter.clamp(0.0, 1.0);
        if jitter > 0.0 {
            let factor = 1.0 + jitter * (self.rng.gen::<f64>() * 2.0 - 1.0);
            delay = ((delay as f64) * factor) as u64;
        }
        self.socket.sleep(delay);
    }

    /// Resolves `(qname, qtype)` iteratively from the root.
    pub fn resolve(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let started = self.socket.now_us();
        let mut chain: Vec<Record> = Vec::new();
        let mut current = qname.clone();

        for _ in 0..=self.config.max_indirections {
            let resp = self.resolve_once(&current, qtype, 0)?;
            match resp.header.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => {
                    chain.extend(resp.answers);
                    return Ok(Resolution {
                        rcode: Rcode::NxDomain,
                        answers: chain,
                        elapsed_us: self.socket.now_us() - started,
                    });
                }
                rc => return Err(ResolveError::ServerFailure(rc)),
            }

            chain.extend(resp.answers.iter().cloned());

            // Follow the CNAME chain inside this response to find where we
            // stand now. A chain without a repeat has fewer links than the
            // response has records, so the bound only cuts a loop (a server
            // may answer with one).
            let mut tip = current.clone();
            for _ in 0..resp.answers.len() {
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
                // Done: either we have the records, or an authoritative
                // empty answer (NODATA).
                return Ok(Resolution {
                    rcode: Rcode::NoError,
                    answers: chain,
                    elapsed_us: self.socket.now_us() - started,
                });
            }
            // Restart at the alias target.
            current = tip;
        }
        Err(ResolveError::TooManyIndirections)
    }

    /// One referral descent from the root for a single owner name. `depth`
    /// guards nested glue resolutions.
    fn resolve_once(
        &mut self,
        qname: &Name,
        qtype: RrType,
        depth: u32,
    ) -> Result<Message, ResolveError> {
        if depth > 2 {
            return Err(ResolveError::NoNameservers);
        }
        let mut servers = self.root_hints.clone();
        for _ in 0..=self.config.max_referrals {
            let resp = self.query_any(&servers, qname, qtype)?;
            match resp.header.rcode {
                Rcode::NoError => {}
                _ => return Ok(resp),
            }
            if !resp.answers.is_empty() || resp.header.aa {
                return Ok(resp);
            }
            // Referral: gather NS targets + glue.
            let ns_targets: Vec<Name> = resp
                .authorities
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(t) => Some(t.clone()),
                    _ => None,
                })
                .collect();
            if ns_targets.is_empty() {
                return Err(ResolveError::NoNameservers);
            }
            let mut next: Vec<IpAddr> = resp
                .additionals
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::A(a) if ns_targets.contains(&r.name) => Some(IpAddr::V4(*a)),
                    _ => None,
                })
                .collect();
            if next.is_empty() {
                // Glueless delegation: resolve the first NS names ourselves.
                for target in ns_targets.iter().take(2) {
                    if let Ok(m) = self.resolve_once(target, RrType::A, depth + 1) {
                        next.extend(m.answers.iter().filter_map(|r| match &r.rdata {
                            RData::A(a) if r.name == *target => Some(IpAddr::V4(*a)),
                            _ => None,
                        }));
                    }
                }
            }
            if next.is_empty() {
                return Err(ResolveError::NoNameservers);
            }
            servers = next;
        }
        Err(ResolveError::TooManyReferrals)
    }

    /// Sends to each server in turn with retries (exponential backoff
    /// between rounds, health-aware ordering, optional hedging), returning
    /// the first validated response.
    fn query_any(
        &mut self,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let mut last_err = ResolveError::Timeout;
        // One ordering buffer serves every round (a query never nests).
        let mut ordered = std::mem::take(&mut self.ordered);
        let result = 'rounds: {
            for round in 0..self.config.retries.max(1) {
                self.backoff_sleep(round);
                match &self.health {
                    Some(h) => h.order(servers, self.socket.now_us(), &mut ordered),
                    None => {
                        ordered.clear();
                        ordered.extend_from_slice(servers);
                    }
                }
                for (i, &server) in ordered.iter().enumerate() {
                    let hedge = if self.config.hedge_after_us > 0 {
                        ordered.get(i + 1).copied()
                    } else {
                        None
                    };
                    match self.exchange_hedged(server, hedge, qname, qtype) {
                        Ok(out) => {
                            if let Some(h) = &self.health {
                                h.record_success(out.responder);
                            }
                            break 'rounds Ok(out.message);
                        }
                        Err(e) => {
                            if let Some(h) = &self.health {
                                h.record_failure(server, self.socket.now_us());
                            }
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

    /// One validated request/response exchange: a single attempt against a
    /// single server within `attempt_timeout_us`. Retry and failover policy
    /// stay with the caller, which lets services with their own scheduling
    /// (e.g. a caching recursor) reuse the wire handling — id allocation,
    /// response validation, truncation detection — without adopting this
    /// resolver's descent loop.
    pub fn exchange(
        &mut self,
        server: IpAddr,
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        self.exchange_hedged(server, None, qname, qtype)
            .map(|out| out.message)
    }

    /// Like [`exchange`](Self::exchange), but if `hedge` is given and no
    /// reply arrived within `config.hedge_after_us`, the *same* query is
    /// sent to the hedge server and the first valid answer (from either)
    /// wins — the classic tail-latency mitigation. Failure taxonomy:
    /// unreachable notices from every queried server yield
    /// [`ResolveError::Unreachable`]; invalid datagrams that arrive without
    /// a valid one yield [`ResolveError::CorruptReply`]; silence yields
    /// [`ResolveError::Timeout`].
    pub fn exchange_hedged(
        &mut self,
        server: IpAddr,
        hedge: Option<IpAddr>,
        qname: &Name,
        qtype: RrType,
    ) -> Result<ExchangeOutcome, ResolveError> {
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let id = self.next_id;
        Message::write_query(id, qname, qtype, &mut self.query);
        self.socket.drain();
        self.socket.send_to(server, &self.query);
        self.sent += 1;

        let deadline_budget = self.config.attempt_timeout_us;
        let hedge_at = match hedge {
            Some(_)
                if self.config.hedge_after_us > 0
                    && self.config.hedge_after_us < deadline_budget =>
            {
                Some(self.config.hedge_after_us)
            }
            _ => None,
        };
        let start = self.socket.now_us();
        let mut hedge_sent = false;
        let mut saw_garbage = false;
        let mut primary_dead = false;
        let mut hedge_dead = false;
        loop {
            let spent = self.socket.now_us() - start;
            if spent >= deadline_budget {
                return Err(if saw_garbage {
                    ResolveError::CorruptReply
                } else {
                    ResolveError::Timeout
                });
            }
            // Wake up at the hedge threshold if it has not fired yet.
            let mut wait = deadline_budget - spent;
            if let Some(at) = hedge_at.filter(|_| !hedge_sent) {
                if spent >= at {
                    let h = hedge.expect("hedge_at implies hedge");
                    self.socket.send_to(h, &self.query);
                    self.sent += 1;
                    self.hedges += 1;
                    hedge_sent = true;
                } else {
                    wait = wait.min(at - spent);
                }
            }
            match self.socket.recv(wait) {
                Ok((from, data)) => {
                    let expected = from == server || (hedge_sent && Some(from) == hedge);
                    if !expected {
                        continue;
                    }
                    match Message::parse(&data) {
                        Ok(m)
                            if m.header.qr
                                && m.header.id == id
                                && m.questions.first().map(|q| (&q.qname, q.qtype))
                                    == Some((qname, qtype)) =>
                        {
                            if m.header.tc {
                                return Err(ResolveError::Malformed(WireError::TruncatedResponse));
                            }
                            return Ok(ExchangeOutcome {
                                message: m,
                                responder: from,
                                hedged: hedge_sent,
                            });
                        }
                        // Wrong id / corrupted / unparsable: remember the
                        // garbage, keep listening until the deadline.
                        _ => {
                            saw_garbage = true;
                            continue;
                        }
                    }
                }
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Unreachable(from)) => {
                    if from == server {
                        primary_dead = true;
                    }
                    if hedge_sent && Some(from) == hedge {
                        hedge_dead = true;
                    }
                    // Fast-fail once every path we actually queried bounced.
                    if primary_dead && (!hedge_sent || hedge_dead) {
                        return Err(ResolveError::Unreachable);
                    }
                }
            }
        }
    }
}

/// A successful [`Resolver::exchange_hedged`]: the validated message, who
/// sent it, and whether a hedge datagram went out during the exchange.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// The validated response.
    pub message: Message,
    /// The server whose answer won.
    pub responder: IpAddr,
    /// True if the hedge fired before the answer arrived.
    pub hedged: bool,
}

// ---------------------------------------------------------------------------
// Bulk path
// ---------------------------------------------------------------------------

/// Delegation-following resolution evaluated directly on the [`Catalog`].
pub struct DirectResolver {
    catalog: Arc<Catalog>,
    max_indirections: u32,
    max_referrals: u32,
}

impl DirectResolver {
    /// Creates a direct resolver over `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self {
            catalog,
            max_indirections: 8,
            max_referrals: 12,
        }
    }

    /// Resolves `(qname, qtype)`, producing the same `Resolution` the wire
    /// path would (with zero elapsed time).
    pub fn resolve(&self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let mut chain: Vec<Record> = Vec::new();
        let mut current = qname.clone();

        'restart: for _ in 0..=self.max_indirections {
            // Descend from the root by following delegations.
            let Some((mut origin, mut zone)) = self.catalog.find_zone(&Name::root()) else {
                return Err(ResolveError::NoNameservers);
            };
            // Fast path: jump straight to the deepest registered zone; the
            // catalog only contains properly delegated zones (asserted by the
            // wire/direct equivalence tests).
            if let Some((o, z)) = self.catalog.find_zone(&current) {
                origin = o;
                zone = z;
            }
            let _ = origin;

            for _ in 0..=self.max_referrals {
                let outcome = zone.read().lookup(&current, qtype);
                match outcome {
                    LookupOutcome::Answer(recs) => {
                        chain.extend(recs);
                        return Ok(Resolution {
                            rcode: Rcode::NoError,
                            answers: chain,
                            elapsed_us: 0,
                        });
                    }
                    LookupOutcome::Cname(rec) => {
                        let target = match &rec.rdata {
                            RData::Cname(t) => t.clone(),
                            _ => unreachable!(),
                        };
                        chain.push(rec);
                        current = target;
                        continue 'restart;
                    }
                    LookupOutcome::Referral { ns, .. } => {
                        // Move into the child zone if it is registered.
                        let cut = ns
                            .first()
                            .map(|r| r.name.clone())
                            .ok_or(ResolveError::NoNameservers)?;
                        match self.catalog.zone(&cut) {
                            Some(z) => zone = z,
                            None => return Err(ResolveError::NoNameservers),
                        }
                    }
                    LookupOutcome::NoData => {
                        return Ok(Resolution {
                            rcode: Rcode::NoError,
                            answers: chain,
                            elapsed_us: 0,
                        });
                    }
                    LookupOutcome::NxDomain => {
                        return Ok(Resolution {
                            rcode: Rcode::NxDomain,
                            answers: chain,
                            elapsed_us: 0,
                        });
                    }
                }
            }
            return Err(ResolveError::TooManyReferrals);
        }
        Err(ResolveError::TooManyIndirections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::AuthServer;
    use crate::zone::Zone;
    use dps_dns::Class;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn a(s: &str) -> RData {
        RData::A(s.parse::<Ipv4Addr>().unwrap())
    }

    /// Builds a tiny world: root, `le` TLD, `examp.le` customer zone hosted
    /// on a DPS server that also serves `foob.ar` with the CNAME target.
    fn build_world(net: &Arc<Network>) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());

        let root_addr = ip("10.255.0.1");
        let tld_addr = ip("10.255.1.1");
        let dps_addr = ip("10.255.2.1");

        let mut root = Zone::new(Name::root());
        root.add(n("le"), RData::Ns(n("ns.le")));
        root.add(n("ns.le"), a("10.255.1.1"));
        root.add(n("ar"), RData::Ns(n("ns.ar")));
        root.add(n("ns.ar"), a("10.255.1.1"));
        let root_handle = catalog.add_zone(root, vec![root_addr]);

        let mut le = Zone::new(n("le"));
        le.add(n("examp.le"), RData::Ns(n("ns.foob.ar")));
        // Glueless: ns.foob.ar must be resolved via .ar.
        let le_handle = catalog.add_zone(le, vec![tld_addr]);

        let mut ar = Zone::new(n("ar"));
        ar.add(n("foob.ar"), RData::Ns(n("ns.foob.ar")));
        ar.add(n("ns.foob.ar"), a("10.255.2.1"));
        let ar_handle = catalog.add_zone(ar, vec![tld_addr]);

        let mut examp = Zone::new(n("examp.le"));
        examp.add(n("examp.le"), a("203.0.113.10"));
        examp.add(n("www.examp.le"), RData::Cname(n("edge.foob.ar")));
        examp.add(n("examp.le"), RData::Ns(n("ns.foob.ar")));
        let examp_handle = catalog.add_zone(examp, vec![dps_addr]);

        let mut foob = Zone::new(n("foob.ar"));
        foob.add(n("edge.foob.ar"), a("198.51.100.7"));
        foob.add(n("foob.ar"), RData::Ns(n("ns.foob.ar")));
        foob.add(n("ns.foob.ar"), a("10.255.2.1"));
        let foob_handle = catalog.add_zone(foob, vec![dps_addr]);

        let root_srv = AuthServer::new();
        root_srv.serve_zone(root_handle);
        root_srv.bind(net, root_addr);

        let tld_srv = AuthServer::new();
        tld_srv.serve_zone(le_handle);
        tld_srv.serve_zone(ar_handle);
        tld_srv.bind(net, tld_addr);

        let dps_srv = AuthServer::new();
        dps_srv.serve_zone(examp_handle);
        dps_srv.serve_zone(foob_handle);
        dps_srv.bind(net, dps_addr);

        catalog.set_root_hints(vec![root_addr]);
        catalog
    }

    fn wire_resolver(net: &Arc<Network>, catalog: &Catalog) -> Resolver {
        Resolver::new(net, ip("172.16.0.1"), 0, catalog.root_hints())
    }

    #[test]
    fn wire_resolves_apex_a() {
        let net = Network::new(11);
        let catalog = build_world(&net);
        let mut r = wire_resolver(&net, &catalog);
        let res = r.resolve(&n("examp.le"), RrType::A).unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(res.records_of(RrType::A).count(), 1);
        assert!(res.elapsed_us > 0);
    }

    #[test]
    fn wire_follows_cname_across_zones() {
        let net = Network::new(12);
        let catalog = build_world(&net);
        let mut r = wire_resolver(&net, &catalog);
        let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
        let chain = res.cname_chain();
        assert_eq!(chain, vec![&n("edge.foob.ar")]);
        let a_rec = res.records_of(RrType::A).next().unwrap();
        assert_eq!(a_rec.rdata, a("198.51.100.7"));
    }

    /// A server may answer with a CNAME loop inside one response (its own
    /// expansion is bounded, not loop-free): the resolver must still return.
    #[test]
    fn wire_cname_loop_in_one_response_terminates() {
        let net = Network::new(17);
        let catalog = Catalog::new();
        let root_addr = ip("10.9.0.1");
        let mut root = Zone::new(Name::root());
        root.add(n("examp.le"), RData::Ns(n("ns.examp.le")));
        root.add(n("ns.examp.le"), a("10.9.2.1"));
        let root_handle = catalog.add_zone(root, vec![root_addr]);
        let mut examp = Zone::new(n("examp.le"));
        examp.add(n("a.examp.le"), RData::Cname(n("b.examp.le")));
        examp.add(n("b.examp.le"), RData::Cname(n("a.examp.le")));
        let examp_handle = catalog.add_zone(examp, vec![ip("10.9.2.1")]);
        let root_srv = AuthServer::new();
        root_srv.serve_zone(root_handle);
        root_srv.bind(&net, root_addr);
        let examp_srv = AuthServer::new();
        examp_srv.serve_zone(examp_handle);
        examp_srv.bind(&net, ip("10.9.2.1"));

        // On a separate thread, so a regression fails instead of hanging.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut r = Resolver::new(&net, ip("172.16.0.1"), 0, vec![root_addr]);
            done.send(r.resolve(&n("a.examp.le"), RrType::A)).ok();
        });
        let res = outcome
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("resolution of a CNAME loop returned")
            .expect("the loop is answered, not an error");
        assert!(res
            .answers
            .iter()
            .all(|r| matches!(r.rdata, RData::Cname(_))));
    }

    #[test]
    fn wire_nxdomain_propagates() {
        let net = Network::new(13);
        let catalog = build_world(&net);
        let mut r = wire_resolver(&net, &catalog);
        let res = r.resolve(&n("missing.examp.le"), RrType::A).unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
        assert!(res.answers.is_empty());
    }

    #[test]
    fn wire_nodata_is_noerror_empty() {
        let net = Network::new(14);
        let catalog = build_world(&net);
        let mut r = wire_resolver(&net, &catalog);
        let res = r.resolve(&n("examp.le"), RrType::Mx).unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert!(res.records_of(RrType::Mx).next().is_none());
    }

    #[test]
    fn wire_survives_heavy_loss() {
        let net = Network::new(15);
        let catalog = build_world(&net);
        net.set_faults(dps_netsim::FaultProfile {
            loss: 0.3,
            ..Default::default()
        });
        let mut r = wire_resolver(&net, &catalog).with_config(ResolverConfig {
            retries: 8,
            ..Default::default()
        });
        let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
        assert_eq!(res.records_of(RrType::A).count(), 1);
    }

    #[test]
    fn wire_reports_unbound_server_as_unreachable() {
        let net = Network::new(16);
        let catalog = Arc::new(Catalog::new());
        catalog.set_root_hints(vec![ip("10.255.0.99")]); // nothing bound
        let mut r = Resolver::new(&net, ip("172.16.0.1"), 0, catalog.root_hints()).with_config(
            ResolverConfig {
                retries: 2,
                attempt_timeout_us: 200_000,
                ..Default::default()
            },
        );
        let started = r.now_us();
        assert_eq!(
            r.resolve(&n("x.y"), RrType::A),
            Err(ResolveError::Unreachable)
        );
        // ICMP fast-fail: well under the 2 × 200 ms worth of timeouts.
        assert!(r.now_us() - started < 400_000, "took {}", r.now_us());
    }

    #[test]
    fn wire_times_out_on_blackout() {
        let net = Network::new(16);
        let catalog = build_world(&net);
        net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(None, 0, u64::MAX));
        let mut r = wire_resolver(&net, &catalog).with_config(ResolverConfig {
            retries: 2,
            attempt_timeout_us: 10_000,
            ..Default::default()
        });
        // A blackout is silence, not an ICMP bounce.
        assert_eq!(r.resolve(&n("x.y"), RrType::A), Err(ResolveError::Timeout));
    }

    #[test]
    fn wire_classifies_pure_garbage_as_corrupt_reply() {
        let net = Network::new(19);
        let addr = ip("10.255.0.1");
        // A server that answers every query with noise.
        net.bind_service(addr, Arc::new(|_, _| Some(vec![0xFF; 24])));
        let catalog = Arc::new(Catalog::new());
        catalog.set_root_hints(vec![addr]);
        let mut r = Resolver::new(&net, ip("172.16.0.1"), 0, catalog.root_hints()).with_config(
            ResolverConfig {
                retries: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            r.resolve(&n("x.y"), RrType::A),
            Err(ResolveError::CorruptReply)
        );
    }

    #[test]
    fn backoff_advances_clock_without_changing_answers() {
        let net = Network::new(20);
        let catalog = build_world(&net);
        net.set_faults(dps_netsim::FaultProfile {
            loss: 0.3,
            ..Default::default()
        });
        let mut r = wire_resolver(&net, &catalog).with_config(ResolverConfig {
            retries: 8,
            backoff_base_us: 50_000,
            backoff_jitter: 0.25,
            ..Default::default()
        });
        let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
        assert_eq!(res.records_of(RrType::A).count(), 1);
    }

    #[test]
    fn hedged_exchange_wins_via_the_second_server() {
        let net = Network::new(21);
        let catalog = build_world(&net);
        let dead = ip("10.255.9.9"); // bound to nothing — but blacked out,
                                     // so it stays silent instead of bouncing.
        net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(Some(dead), 0, u64::MAX));
        let mut r = wire_resolver(&net, &catalog).with_config(ResolverConfig {
            hedge_after_us: 100_000,
            ..Default::default()
        });
        let root = catalog.root_hints()[0];
        let out = r
            .exchange_hedged(dead, Some(root), &n("le"), RrType::Ns)
            .unwrap();
        assert!(out.hedged);
        assert_eq!(out.responder, root);
        assert_eq!(r.hedges_sent(), 1);
    }

    #[test]
    fn health_tracker_deprioritises_a_dead_server() {
        use crate::health::{HealthConfig, HealthTracker};
        let net = Network::new(22);
        let catalog = build_world(&net);
        let tracker = Arc::new(HealthTracker::new(HealthConfig {
            failure_threshold: 2,
            open_duration_us: 60_000_000,
        }));
        // Blackout one of two root replicas: after the breaker trips, the
        // resolver should stop burning timeouts on it.
        let dead = ip("10.255.0.77");
        net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(Some(dead), 0, u64::MAX));
        let mut r = Resolver::new(
            &net,
            ip("172.16.0.1"),
            0,
            vec![dead, catalog.root_hints()[0]],
        )
        .with_health(Arc::clone(&tracker));
        for _ in 0..4 {
            r.resolve(&n("examp.le"), RrType::A).unwrap();
        }
        assert_eq!(tracker.trips(), 1);
        assert!(tracker.skips() > 0, "open breaker never skipped");
    }

    #[test]
    fn direct_matches_wire_on_all_cases() {
        let net = Network::new(17);
        let catalog = build_world(&net);
        let direct = DirectResolver::new(Arc::clone(&catalog));
        let mut wire = wire_resolver(&net, &catalog);
        for (qname, qtype) in [
            ("examp.le", RrType::A),
            ("examp.le", RrType::Ns),
            ("www.examp.le", RrType::A),
            ("missing.examp.le", RrType::A),
            ("examp.le", RrType::Mx),
            ("edge.foob.ar", RrType::A),
        ] {
            let d = direct.resolve(&n(qname), qtype).unwrap();
            let w = wire.resolve(&n(qname), qtype).unwrap();
            assert_eq!(d.rcode, w.rcode, "{qname} {qtype}");
            assert_eq!(d.answers, w.answers, "{qname} {qtype}");
        }
    }

    #[test]
    fn direct_ns_answer_contains_records() {
        let net = Network::new(18);
        let catalog = build_world(&net);
        let direct = DirectResolver::new(catalog);
        let res = direct.resolve(&n("examp.le"), RrType::Ns).unwrap();
        let ns: Vec<_> = res.records_of(RrType::Ns).collect();
        assert_eq!(ns.len(), 1);
        assert_eq!(ns[0].rdata, RData::Ns(n("ns.foob.ar")));
        assert_eq!(ns[0].class, Class::In);
    }
}
