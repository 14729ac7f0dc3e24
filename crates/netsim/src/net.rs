//! A deterministic, virtual-time UDP network with fault injection.
//!
//! Services (authoritative name servers) register a request handler at an IP
//! address. Client [`Socket`]s send datagrams and receive responses under a
//! *virtual* clock: latency, loss, duplication and corruption are simulated
//! per-socket with a seeded RNG, so runs are reproducible bit-for-bit and
//! independent of wall-clock scheduling — even when many measurement workers
//! share the network from different threads.
//!
//! The design follows the request/response nature of DNS-over-UDP: a send
//! may synchronously produce zero or more deliveries into the sender's
//! inbox, time-stamped with simulated round-trip latency. `recv` advances
//! the socket's virtual clock. This mirrors smoltcp's poll-driven style and
//! its fault-injecting example devices (`--drop-chance`, `--corrupt-chance`).

use crate::chaos::ChaosSchedule;
use dps_telemetry::{Counter, Histogram, Registry};
use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A registered service: maps a source address and request payload to an
/// optional response payload. Handlers must be pure with respect to the
/// datagram (shared state goes behind its own locks).
pub type Handler = Arc<dyn Fn(IpAddr, &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// Fault-injection parameters, applied independently to the request and the
/// response leg of each exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a datagram is silently dropped, per leg, in `[0, 1]`.
    pub loss: f64,
    /// Probability one octet of the datagram is flipped, per leg.
    pub corrupt: f64,
    /// Probability a datagram is delivered twice, per leg.
    pub duplicate: f64,
    /// One-way latency range in microseconds (uniform).
    pub latency_us: (u64, u64),
}

impl Default for FaultProfile {
    /// A healthy network: no faults, 2–20 ms one-way latency.
    fn default() -> Self {
        Self {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            latency_us: (2_000, 20_000),
        }
    }
}

impl FaultProfile {
    /// A lossy profile in the spirit of smoltcp's example defaults
    /// (15% drop / corrupt chance).
    pub fn lossy() -> Self {
        Self {
            loss: 0.15,
            corrupt: 0.15,
            duplicate: 0.05,
            latency_us: (2_000, 50_000),
        }
    }

    /// A perfect, zero-latency network (useful for micro-benches).
    pub fn ideal() -> Self {
        Self {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            latency_us: (0, 0),
        }
    }
}

/// Aggregate counters across the whole network. Cheap atomics; read them
/// with [`NetworkStats::snapshot`].
#[derive(Debug, Default)]
pub struct NetworkStats {
    /// Datagrams handed to `send_to`.
    pub sent: AtomicU64,
    /// Datagrams dropped by fault injection (either leg).
    pub dropped: AtomicU64,
    /// Datagrams corrupted by fault injection (either leg).
    pub corrupted: AtomicU64,
    /// Extra copies delivered by duplication (either leg).
    pub duplicated: AtomicU64,
    /// Responses delivered into sockets' inboxes.
    pub delivered: AtomicU64,
    /// Requests that reached no registered service.
    pub unroutable: AtomicU64,
    /// Legs swallowed by a scripted chaos blackout (or flap down-phase).
    pub blackholed: AtomicU64,
}

/// A point-in-time copy of [`NetworkStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`NetworkStats::sent`].
    pub sent: u64,
    /// See [`NetworkStats::dropped`].
    pub dropped: u64,
    /// See [`NetworkStats::corrupted`].
    pub corrupted: u64,
    /// See [`NetworkStats::duplicated`].
    pub duplicated: u64,
    /// See [`NetworkStats::delivered`].
    pub delivered: u64,
    /// See [`NetworkStats::unroutable`].
    pub unroutable: u64,
    /// See [`NetworkStats::blackholed`].
    pub blackholed: u64,
}

impl NetworkStats {
    /// Reads all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            unroutable: self.unroutable.load(Ordering::Relaxed),
            blackholed: self.blackholed.load(Ordering::Relaxed),
        }
    }
}

/// Errors from [`Socket::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived before the virtual deadline.
    Timeout,
    /// An ICMP-style port-unreachable notice came back from this address:
    /// the request leg survived the wire but no service is bound there.
    Unreachable(IpAddr),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => write!(f, "receive timed out"),
            Self::Unreachable(addr) => write!(f, "destination {addr} unreachable"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Telemetry handles for the wire hot path, mirroring [`NetworkStats`]
/// into a shared `dps-telemetry` [`Registry`] plus a one-way latency
/// histogram and a chaos-degradation counter. `Default` handles are
/// detached (they count, but belong to no registry).
#[derive(Clone, Default)]
pub struct NetMetrics {
    sent: Counter,
    dropped: Counter,
    corrupted: Counter,
    duplicated: Counter,
    delivered: Counter,
    unroutable: Counter,
    blackholed: Counter,
    degraded: Counter,
    latency_us: Histogram,
}

impl NetMetrics {
    /// Instruments registered under the `net.*` names.
    pub fn new(registry: &Registry) -> Self {
        Self {
            sent: registry.counter("net.packets.sent"),
            dropped: registry.counter("net.packets.dropped"),
            corrupted: registry.counter("net.packets.corrupted"),
            duplicated: registry.counter("net.packets.duplicated"),
            delivered: registry.counter("net.packets.delivered"),
            unroutable: registry.counter("net.packets.unroutable"),
            blackholed: registry.counter("net.packets.blackholed"),
            degraded: registry.counter("net.chaos.degraded"),
            latency_us: registry.histogram("net.latency.us"),
        }
    }
}

/// Everything a send reads about the network: the bound services, the
/// base fault profile and the chaos schedule. A change replaces it
/// whole and bumps [`Network`]'s version, so a [`Socket`] keeps the
/// fabric it last saw and sends through it without taking a lock or
/// touching a reference count per packet.
#[derive(Clone, Default)]
struct Fabric {
    /// Bound services, sorted by address (binary-searched per send).
    services: Vec<(IpAddr, Handler)>,
    faults: FaultProfile,
    chaos: Option<Arc<ChaosSchedule>>,
}

impl Fabric {
    fn service(&self, addr: IpAddr) -> Option<&Handler> {
        self.services
            .binary_search_by(|(bound, _)| bound.cmp(&addr))
            .ok()
            .and_then(|i| self.services.get(i))
            .map(|(_, handler)| handler)
    }
}

/// The shared network fabric.
pub struct Network {
    fabric: RwLock<Arc<Fabric>>,
    /// Bumped under the `fabric` write lock by every change to it.
    version: AtomicU64,
    stats: NetworkStats,
    metrics: NetMetrics,
    seed: u64,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fabric = self.fabric.read();
        f.debug_struct("Network")
            .field("services", &fabric.services.len())
            .field("faults", &fabric.faults)
            .finish()
    }
}

impl Network {
    /// Creates a network with the default (healthy) fault profile and
    /// detached telemetry.
    pub fn new(seed: u64) -> Arc<Self> {
        Self::with_telemetry(seed, &Registry::new())
    }

    /// Creates a network whose `net.*` instruments live in `registry`.
    pub fn with_telemetry(seed: u64, registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            fabric: RwLock::new(Arc::default()),
            version: AtomicU64::new(0),
            stats: NetworkStats::default(),
            metrics: NetMetrics::new(registry),
            seed,
        })
    }

    /// Applies `change` to the fabric; sockets pick it up on their next
    /// send.
    fn update(&self, change: impl FnOnce(&mut Fabric)) {
        let mut fabric = self.fabric.write();
        change(Arc::make_mut(&mut fabric));
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Replaces the fault profile (affects subsequent sends).
    pub fn set_faults(&self, profile: FaultProfile) {
        self.update(|f| f.faults = profile);
    }

    /// Current fault profile.
    pub fn faults(&self) -> FaultProfile {
        self.fabric.read().faults
    }

    /// Installs a scripted chaos schedule, layered on the base fault
    /// profile and evaluated against each sending socket's virtual clock.
    pub fn set_chaos(&self, schedule: ChaosSchedule) {
        let schedule = Arc::new(schedule);
        self.update(|f| f.chaos = Some(schedule));
    }

    /// Removes any installed chaos schedule.
    pub fn clear_chaos(&self) {
        self.update(|f| f.chaos = None);
    }

    /// The installed chaos schedule, if any.
    pub fn chaos(&self) -> Option<Arc<ChaosSchedule>> {
        self.fabric.read().chaos.clone()
    }

    /// The seed this network (and its sockets' RNG streams) derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers a service at `addr`, replacing any previous one.
    pub fn bind_service(&self, addr: IpAddr, handler: Handler) {
        self.update(
            |f| match f.services.binary_search_by(|(bound, _)| bound.cmp(&addr)) {
                Ok(i) => {
                    if let Some(slot) = f.services.get_mut(i) {
                        slot.1 = handler;
                    }
                }
                Err(i) => f.services.insert(i, (addr, handler)),
            },
        );
    }

    /// Removes the service at `addr`.
    pub fn unbind(&self, addr: IpAddr) {
        self.update(|f| f.services.retain(|(bound, _)| *bound != addr));
    }

    /// True if a service is bound at `addr`.
    pub fn is_bound(&self, addr: IpAddr) -> bool {
        self.fabric.read().service(addr).is_some()
    }

    /// Aggregate fault/delivery counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Opens a client socket with its own virtual clock and RNG stream.
    ///
    /// `stream` distinguishes sockets sharing a source address (e.g. one per
    /// measurement worker); sockets with equal `(seed, src, stream)` behave
    /// identically.
    pub fn socket(self: &Arc<Self>, src: IpAddr, stream: u64) -> Socket {
        let mut h = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if let IpAddr::V4(v4) = src {
            h ^= u64::from(u32::from(v4)) << 17;
        }
        let version = self.version.load(Ordering::Acquire);
        Socket {
            net: Arc::clone(self),
            fabric: Arc::clone(&self.fabric.read()),
            version,
            src,
            rng: SmallRng::seed_from_u64(h),
            inbox: BinaryHeap::new(),
            now_us: 0,
            seq: 0,
        }
    }
}

/// A pending delivery: ordered by virtual arrival time, then send order.
/// A `None` payload is an ICMP-style port-unreachable notice.
type Delivery = Reverse<(u64, u64, IpAddr, Option<Vec<u8>>)>;

/// A client UDP socket with a private virtual clock.
pub struct Socket {
    net: Arc<Network>,
    /// The network's fabric as of `version`.
    fabric: Arc<Fabric>,
    version: u64,
    src: IpAddr,
    rng: SmallRng,
    inbox: BinaryHeap<Delivery>,
    now_us: u64,
    seq: u64,
}

/// What fault injection did to one leg: the one-way latency of each copy
/// that arrives (none when lost, two when duplicated) and the bit flipped
/// in transit, as `(octet index, mask)`.
struct LegFate {
    latency_us: [u64; 2],
    copies: usize,
    flip: Option<(usize, u8)>,
}

impl LegFate {
    fn latencies(&self) -> &[u64] {
        self.latency_us.get(..self.copies).unwrap_or(&[])
    }

    /// Draws one leg's fate for a `len`-octet datagram, in the order
    /// loss → corruption → latency → duplication (a duplicate draws its
    /// own latency last), and counts it.
    fn draw(rng: &mut SmallRng, len: usize, profile: &FaultProfile, net: &Network) -> Self {
        let (stats, metrics) = (&net.stats, &net.metrics);
        if rng.gen::<f64>() < profile.loss {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            metrics.dropped.inc();
            return Self {
                latency_us: [0; 2],
                copies: 0,
                flip: None,
            };
        }
        let mut flip = None;
        if rng.gen::<f64>() < profile.corrupt && len > 0 {
            let idx = rng.gen_range(0..len);
            let bit = 1u8 << rng.gen_range(0..8);
            flip = Some((idx, bit));
            stats.corrupted.fetch_add(1, Ordering::Relaxed);
            metrics.corrupted.inc();
        }
        let lat = |rng: &mut SmallRng| -> u64 {
            let (lo, hi) = profile.latency_us;
            let lat = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            metrics.latency_us.observe(lat);
            lat
        };
        let first = lat(rng);
        let dup = (rng.gen::<f64>() < profile.duplicate).then(|| {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            metrics.duplicated.inc();
            lat(rng)
        });
        Self {
            latency_us: [first, dup.unwrap_or(0)],
            copies: 1 + usize::from(dup.is_some()),
            flip,
        }
    }

    /// Flips this leg's corrupted bit in `data`, if it has one.
    fn corrupt(&self, data: &mut [u8]) {
        if let Some((idx, bit)) = self.flip {
            if let Some(byte) = data.get_mut(idx) {
                *byte ^= bit;
            }
        }
    }
}

impl Socket {
    /// The socket's source address.
    pub fn local_addr(&self) -> IpAddr {
        self.src
    }

    /// The socket's virtual clock, microseconds since creation.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Sends `payload` to `dst`. Any responses are scheduled into this
    /// socket's inbox with simulated round-trip latency. An installed
    /// [`ChaosSchedule`] is consulted per leg — the request leg at the
    /// current clock, the response leg at its (virtual) server-arrival
    /// time — so scripted windows cut exchanges mid-flight. Only a
    /// corrupted request or a duplicated response copies the bytes.
    pub fn send_to(&mut self, dst: IpAddr, payload: &[u8]) {
        let version = self.net.version.load(Ordering::Acquire);
        if version != self.version {
            self.fabric = Arc::clone(&self.net.fabric.read());
            self.version = version;
        }
        let Self {
            net,
            fabric,
            src,
            rng,
            inbox,
            now_us,
            seq,
            ..
        } = self;
        let (now, stats, metrics) = (*now_us, &net.stats, &net.metrics);
        stats.sent.fetch_add(1, Ordering::Relaxed);
        metrics.sent.inc();

        // A chaos window that alters (rather than swallows) a leg counts as
        // a degradation activation.
        let base = fabric.faults;
        let effective = |at: u64| -> Option<FaultProfile> {
            match &fabric.chaos {
                Some(sched) => {
                    let profile = sched.effective(at, dst, base);
                    if profile.is_some_and(|p| p != base) {
                        metrics.degraded.inc();
                    }
                    profile
                }
                None => Some(base),
            }
        };
        let blackholed = || {
            stats.blackholed.fetch_add(1, Ordering::Relaxed);
            metrics.blackholed.inc();
        };
        let Some(req_profile) = effective(now) else {
            blackholed();
            return;
        };
        let request = LegFate::draw(rng, payload.len(), &req_profile, net);
        if request.copies == 0 {
            return;
        }
        let Some(handler) = fabric.service(dst) else {
            // No service bound: the host's stack answers with an ICMP
            // port-unreachable notice after a round trip (unless a chaos
            // window swallows the return path too).
            stats.unroutable.fetch_add(1, Ordering::Relaxed);
            metrics.unroutable.inc();
            for &req_lat in request.latencies() {
                if effective(now + req_lat).is_none() {
                    blackholed();
                    continue;
                }
                *seq += 1;
                inbox.push(Reverse((now + req_lat * 2, *seq, dst, None)));
            }
            return;
        };
        let corrupted;
        let req: &[u8] = if request.flip.is_some() {
            let mut data = payload.to_vec();
            request.corrupt(&mut data);
            corrupted = data;
            &corrupted
        } else {
            payload
        };
        for &req_lat in request.latencies() {
            let Some(mut resp) = handler(*src, req) else {
                continue;
            };
            let Some(resp_profile) = effective(now + req_lat) else {
                blackholed();
                continue;
            };
            let response = LegFate::draw(rng, resp.len(), &resp_profile, net);
            response.corrupt(&mut resp);
            let mut deliver = |data: Vec<u8>, resp_lat: u64| {
                *seq += 1;
                inbox.push(Reverse((now + req_lat + resp_lat, *seq, dst, Some(data))));
                stats.delivered.fetch_add(1, Ordering::Relaxed);
                metrics.delivered.inc();
            };
            match *response.latencies() {
                [first] => deliver(resp, first),
                [first, dup] => {
                    deliver(resp.clone(), first);
                    deliver(resp, dup);
                }
                _ => {}
            }
        }
    }

    /// Receives the next datagram, advancing the virtual clock to its
    /// arrival time, or to `now + timeout_us` on timeout. An unreachable
    /// notice surfaces as [`RecvError::Unreachable`] at its arrival time —
    /// earlier than the deadline, like a real ICMP fast-fail.
    pub fn recv(&mut self, timeout_us: u64) -> Result<(IpAddr, Vec<u8>), RecvError> {
        let deadline = self.now_us + timeout_us;
        if let Some(Reverse((arrive, _, _, _))) = self.inbox.peek() {
            if *arrive <= deadline {
                let Reverse((arrive, _, from, data)) = self.inbox.pop().expect("peeked");
                self.now_us = self.now_us.max(arrive);
                return match data {
                    Some(data) => Ok((from, data)),
                    None => Err(RecvError::Unreachable(from)),
                };
            }
        }
        self.now_us = deadline;
        Err(RecvError::Timeout)
    }

    /// Advances the virtual clock by `dt_us` without touching the wire
    /// (a backoff pause between retry attempts).
    pub fn sleep(&mut self, dt_us: u64) {
        self.now_us += dt_us;
    }

    /// Discards everything still in flight toward this socket (used between
    /// logically separate exchanges so late duplicates don't leak across).
    pub fn drain(&mut self) {
        self.inbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_network(seed: u64) -> Arc<Network> {
        let net = Network::new(seed);
        let addr: IpAddr = "192.0.2.1".parse().unwrap();
        net.bind_service(addr, Arc::new(|_src, payload| Some(payload.to_vec())));
        net
    }

    fn client(net: &Arc<Network>) -> Socket {
        net.socket("198.51.100.1".parse().unwrap(), 0)
    }

    #[test]
    fn echo_roundtrip_advances_virtual_time() {
        let net = echo_network(1);
        let mut sock = client(&net);
        sock.send_to("192.0.2.1".parse().unwrap(), b"ping");
        let (from, data) = sock.recv(1_000_000).unwrap();
        assert_eq!(from, "192.0.2.1".parse::<IpAddr>().unwrap());
        assert_eq!(data, b"ping");
        // Default profile has ≥ 2ms per leg.
        assert!(sock.now_us() >= 4_000, "now={}", sock.now_us());
    }

    #[test]
    fn unbound_destination_fast_fails_with_unreachable() {
        let net = echo_network(1);
        let mut sock = client(&net);
        let dst: IpAddr = "203.0.113.9".parse().unwrap();
        sock.send_to(dst, b"ping");
        assert_eq!(sock.recv(100_000), Err(RecvError::Unreachable(dst)));
        // The notice arrives after one round trip (≤ 2 × 20 ms), well
        // before the deadline — an ICMP-style fast failure.
        assert!(sock.now_us() < 100_000, "now={}", sock.now_us());
        assert_eq!(net.stats().snapshot().unroutable, 1);
    }

    #[test]
    fn blacked_out_unbound_destination_stays_silent() {
        use crate::chaos::ChaosSchedule;
        let net = echo_network(1);
        net.set_chaos(ChaosSchedule::new().blackout(None, 0, u64::MAX));
        let mut sock = client(&net);
        sock.send_to("203.0.113.9".parse().unwrap(), b"ping");
        // Blackout swallows the request before it can bounce.
        assert_eq!(sock.recv(50_000), Err(RecvError::Timeout));
        assert_eq!(sock.now_us(), 50_000);
        assert_eq!(net.stats().snapshot().blackholed, 1);
    }

    #[test]
    fn chaos_blackout_window_silences_and_releases() {
        use crate::chaos::ChaosSchedule;
        let net = echo_network(6);
        let dst: IpAddr = "192.0.2.1".parse().unwrap();
        net.set_chaos(ChaosSchedule::new().blackout(Some(dst), 0, 1_000_000));
        let mut sock = client(&net);
        sock.send_to(dst, b"ping");
        assert_eq!(sock.recv(2_000_000), Err(RecvError::Timeout));
        assert_eq!(net.stats().snapshot().blackholed, 1);
        // The clock advanced past the window; the server is back.
        assert!(sock.now_us() >= 1_000_000);
        sock.send_to(dst, b"ping");
        assert!(sock.recv(2_000_000).is_ok());
    }

    #[test]
    fn chaos_degrade_burst_applies_loss_inside_window_only() {
        use crate::chaos::{ChaosSchedule, FaultOverride};
        let net = echo_network(7);
        let dst: IpAddr = "192.0.2.1".parse().unwrap();
        net.set_chaos(ChaosSchedule::new().degrade(
            Some(dst),
            0,
            1_000_000,
            FaultOverride {
                loss: Some(1.0),
                ..FaultOverride::default()
            },
        ));
        let mut sock = client(&net);
        sock.send_to(dst, b"ping");
        assert_eq!(sock.recv(2_000_000), Err(RecvError::Timeout));
        assert!(net.stats().snapshot().dropped >= 1);
        sock.send_to(dst, b"ping");
        assert!(sock.recv(2_000_000).is_ok(), "burst should have ended");
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        use crate::chaos::{ChaosSchedule, FaultOverride};
        let run = |seed: u64| -> Vec<(bool, u64)> {
            let net = echo_network(seed);
            net.set_faults(FaultProfile::lossy());
            net.set_chaos(
                ChaosSchedule::new()
                    .blackout(None, 300_000, 600_000)
                    .degrade(
                        None,
                        600_000,
                        2_000_000,
                        FaultOverride {
                            loss: Some(0.5),
                            ..FaultOverride::default()
                        },
                    ),
            );
            let mut sock = client(&net);
            let mut trace = Vec::new();
            for _ in 0..40 {
                sock.send_to("192.0.2.1".parse().unwrap(), b"probe");
                let got = sock.recv(100_000).is_ok();
                trace.push((got, sock.now_us()));
                sock.drain();
            }
            trace
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(1042));
    }

    #[test]
    fn sleep_advances_the_clock_without_sending() {
        let net = echo_network(8);
        let mut sock = client(&net);
        sock.sleep(123_456);
        assert_eq!(sock.now_us(), 123_456);
        assert_eq!(net.stats().snapshot().sent, 0);
    }

    #[test]
    fn total_loss_drops_everything() {
        let net = echo_network(2);
        net.set_faults(FaultProfile {
            loss: 1.0,
            ..FaultProfile::default()
        });
        let mut sock = client(&net);
        sock.send_to("192.0.2.1".parse().unwrap(), b"ping");
        assert_eq!(sock.recv(10_000), Err(RecvError::Timeout));
        assert!(net.stats().snapshot().dropped >= 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let net = echo_network(3);
        net.set_faults(FaultProfile {
            corrupt: 1.0,
            latency_us: (0, 0),
            ..FaultProfile::default()
        });
        let mut sock = client(&net);
        sock.send_to("192.0.2.1".parse().unwrap(), &[0u8; 8]);
        let (_, data) = sock.recv(1000).unwrap();
        // Two legs, each flipping one bit; they may coincide.
        let flipped: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert!(
            flipped == 2 || flipped == 0,
            "flipped={flipped} data={data:?}"
        );
        assert_eq!(net.stats().snapshot().corrupted, 2);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let net = echo_network(4);
        net.set_faults(FaultProfile {
            duplicate: 1.0,
            latency_us: (0, 0),
            ..FaultProfile::default()
        });
        let mut sock = client(&net);
        sock.send_to("192.0.2.1".parse().unwrap(), b"x");
        // Request duplicated -> handler runs twice; each response duplicated
        // -> 4 deliveries total.
        let mut n = 0;
        while sock.recv(1000).is_ok() {
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = |seed: u64| -> Vec<u64> {
            let net = echo_network(seed);
            net.set_faults(FaultProfile::lossy());
            let mut sock = client(&net);
            let mut arrivals = Vec::new();
            for _ in 0..50 {
                sock.send_to("192.0.2.1".parse().unwrap(), b"probe");
                if sock.recv(100_000).is_ok() {
                    arrivals.push(sock.now_us());
                }
                sock.drain();
            }
            arrivals
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn deliveries_arrive_in_time_order() {
        let net = echo_network(5);
        net.set_faults(FaultProfile {
            latency_us: (1000, 90_000),
            ..FaultProfile::default()
        });
        let mut sock = client(&net);
        for _ in 0..10 {
            sock.send_to("192.0.2.1".parse().unwrap(), b"m");
        }
        let mut last = 0;
        while sock.recv(1_000_000).is_ok() {
            assert!(sock.now_us() >= last);
            last = sock.now_us();
        }
    }

    #[test]
    fn telemetry_mirrors_stats_and_sees_chaos() {
        use crate::chaos::{ChaosSchedule, FaultOverride};
        let registry = Registry::new();
        let net = Network::with_telemetry(11, &registry);
        let addr: IpAddr = "192.0.2.1".parse().unwrap();
        net.bind_service(addr, Arc::new(|_src, payload| Some(payload.to_vec())));
        net.set_chaos(ChaosSchedule::new().degrade(
            None,
            0,
            u64::MAX,
            FaultOverride {
                loss: Some(1.0),
                ..FaultOverride::default()
            },
        ));
        let mut sock = net.socket("198.51.100.1".parse().unwrap(), 0);
        sock.send_to(addr, b"ping");
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("net.packets.sent"), Some(&1));
        assert_eq!(
            snap.counters.get("net.packets.sent").copied(),
            Some(net.stats().snapshot().sent)
        );
        assert_eq!(snap.counters.get("net.packets.dropped"), Some(&1));
        assert!(snap.counters.get("net.chaos.degraded").copied() >= Some(1));
        // The healthy constructor keeps working with detached instruments.
        net.clear_chaos();
        net.set_faults(FaultProfile::ideal());
        sock.send_to(addr, b"ping");
        assert!(sock.recv(1_000).is_ok());
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("net.packets.delivered"), Some(&1));
        let lat = snap.histograms.get("net.latency.us").expect("latency");
        assert_eq!(lat.count, 2, "one latency sample per surviving leg");
    }

    #[test]
    fn rebinding_replaces_service() {
        let net = Network::new(9);
        let addr: IpAddr = "192.0.2.1".parse().unwrap();
        net.bind_service(addr, Arc::new(|_, _| Some(b"one".to_vec())));
        net.bind_service(addr, Arc::new(|_, _| Some(b"two".to_vec())));
        let mut sock = client(&net);
        sock.send_to(addr, b"q");
        assert_eq!(sock.recv(1_000_000).unwrap().1, b"two");
        net.unbind(addr);
        assert!(!net.is_bound(addr));
    }
}
