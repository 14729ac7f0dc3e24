//! The exchange layer of iterative resolution over the simulated network.
//!
//! [`Resolver`] talks real (simulated) UDP: it allocates transaction ids,
//! validates replies, detects truncation, backs off between retry rounds
//! and hedges stragglers onto a second server. It carries the root hints,
//! the wire policy ([`ResolverConfig`]) and the per-nameserver health
//! tracker for the one referral walk built on it, `dps-recursor`'s
//! `Recursor`; with both of its caches off, that walk is the uncached
//! baseline. Bulk sweeps never encode a byte: they call the world model's
//! own `World::resolve`.

use crate::health::{HealthConfig, HealthTracker};
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
    /// Virtual time the resolution took (wire path only; 0 for the bulk
    /// path).
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

/// One socket's validated DNS exchanges over the simulated network, with
/// the root hints, wire policy and health tracker a walk over it uses.
pub struct Resolver {
    socket: Socket,
    root_hints: Vec<IpAddr>,
    config: ResolverConfig,
    health: Arc<HealthTracker>,
    /// Jitter RNG, deliberately separate from the socket's fault RNG so
    /// enabling backoff does not perturb the simulated fault sequence.
    rng: SmallRng,
    next_id: u16,
    hedges: u64,
    /// The current exchange's query datagram.
    query: Vec<u8>,
}

impl Resolver {
    /// Creates a resolver sending from `src`; `stream` keeps parallel
    /// resolvers deterministic (see [`Network::socket`]). Its health
    /// tracker never trips (threshold 0) until [`Resolver::with_health`]
    /// replaces it, so server order stays as given.
    pub fn new(net: &Arc<Network>, src: IpAddr, stream: u64, root_hints: Vec<IpAddr>) -> Self {
        let jitter_seed = net
            .seed()
            .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ 0x0005_EED0_FBAC_C0FF;
        Self {
            socket: net.socket(src, stream),
            root_hints,
            config: ResolverConfig::default(),
            health: Arc::new(HealthTracker::new(HealthConfig {
                failure_threshold: 0,
                ..HealthConfig::default()
            })),
            rng: SmallRng::seed_from_u64(jitter_seed),
            next_id: 1,
            hedges: 0,
            query: Vec::new(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ResolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the per-nameserver health tracker: server selection
    /// deprioritises servers whose circuit breaker is open.
    pub fn with_health(mut self, health: Arc<HealthTracker>) -> Self {
        self.health = health;
        self
    }

    /// The per-nameserver health tracker.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// The addresses a descent from the root starts at.
    pub fn root_hints(&self) -> &[IpAddr] {
        &self.root_hints
    }

    /// The active configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Virtual time consumed by this resolver so far.
    pub fn now_us(&self) -> u64 {
        self.socket.now_us()
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

    /// One validated request/response exchange against `server` within
    /// `attempt_timeout_us`: id allocation, response validation and
    /// truncation detection. Retry, failover and the referral walk stay
    /// with the caller (a recursor). If `hedge` is given and no
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::server::AuthServer;
    use crate::zone::Zone;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn hedged_exchange_wins_via_the_second_server() {
        let net = Network::new(21);
        // A root server that delegates `le`.
        let root = ip("10.255.0.1");
        let mut zone = Zone::new(Name::root());
        zone.add(n("le"), RData::Ns(n("ns.le")));
        zone.add(n("ns.le"), RData::A("10.255.1.1".parse().unwrap()));
        let server = AuthServer::new();
        server.serve_zone(Catalog::new().add_zone(zone, vec![root]));
        server.bind(&net, root);
        let dead = ip("10.255.9.9"); // bound to nothing — but blacked out,
                                     // so it stays silent instead of bouncing.
        net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(Some(dead), 0, u64::MAX));
        let mut r =
            Resolver::new(&net, ip("172.16.0.1"), 0, vec![root]).with_config(ResolverConfig {
                hedge_after_us: 100_000,
                ..Default::default()
            });
        let out = r
            .exchange_hedged(dead, Some(root), &n("le"), RrType::Ns)
            .unwrap();
        assert!(out.hedged);
        assert_eq!(out.responder, root);
        assert_eq!(r.hedges_sent(), 1);
    }
}
