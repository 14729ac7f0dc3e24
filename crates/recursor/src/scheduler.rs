//! Sweep scheduling: fan a day's query jobs over worker threads while
//! bounding how many exchanges may be in flight against any single
//! authoritative server — a politeness constraint every real measurement
//! platform (including the paper's OpenINTEL-style infrastructure) runs
//! under so daily sweeps do not look like an attack on the TLD servers.

use crate::clock::SharedClock;
use crate::recursor::{Recursor, RecursorStats};
use dps_dns::{Name, RrType};
use dps_netsim::{Day, Network};
use parking_lot::{Condvar, Mutex};
// dps: allow-file(unordered-collection, reason = "the per-server in-flight counts are keyed lookups only, never iterated")
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Caps concurrent in-flight exchanges per destination server.
pub struct ServerGate {
    limit: u32,
    counts: Mutex<HashMap<IpAddr, u32>>,
    freed: Condvar,
}

impl ServerGate {
    /// A gate admitting `limit` concurrent exchanges per server (min 1).
    pub fn new(limit: u32) -> Self {
        Self {
            limit: limit.max(1),
            counts: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
        }
    }

    /// The per-server limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Blocks until a slot for `server` frees up, then claims it. The slot
    /// is released when the returned permit drops.
    pub fn acquire(&self, server: IpAddr) -> ServerPermit<'_> {
        let mut counts = self.counts.lock();
        loop {
            let inflight = counts.entry(server).or_insert(0);
            if *inflight < self.limit {
                *inflight += 1;
                return ServerPermit { gate: self, server };
            }
            self.freed.wait(&mut counts);
        }
    }

    /// Claims a slot for `server` only if one is free right now — never
    /// blocks. Used for hedged second attempts, which must not introduce
    /// a second *blocking* permit acquisition (deadlock risk) and are
    /// worthless if the hedge target is already saturated.
    pub fn try_acquire(&self, server: IpAddr) -> Option<ServerPermit<'_>> {
        let mut counts = self.counts.lock();
        let inflight = counts.entry(server).or_insert(0);
        if *inflight < self.limit {
            *inflight += 1;
            Some(ServerPermit { gate: self, server })
        } else {
            None
        }
    }

    /// In-flight exchanges against `server` right now.
    pub fn inflight(&self, server: IpAddr) -> u32 {
        self.counts.lock().get(&server).copied().unwrap_or(0)
    }
}

/// RAII slot from [`ServerGate::acquire`].
pub struct ServerPermit<'a> {
    gate: &'a ServerGate,
    server: IpAddr,
}

impl Drop for ServerPermit<'_> {
    fn drop(&mut self) {
        let mut counts = self.gate.counts.lock();
        if let Some(inflight) = counts.get_mut(&self.server) {
            *inflight -= 1;
            if *inflight == 0 {
                counts.remove(&self.server);
            }
        }
        self.gate.freed.notify_all();
    }
}

/// What one sweep did, in numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Questions asked of the recursor.
    pub queries: u64,
    /// Questions served from the answer cache.
    pub cache_hits: u64,
    /// Questions that needed network work.
    pub cache_misses: u64,
    /// Questions coalesced onto an identical in-flight one.
    pub coalesced: u64,
    /// Simulated UDP packets sent (network-wide delta over the sweep).
    pub packets_sent: u64,
    /// Exchange attempts beyond the first per question leg.
    pub retries: u64,
    /// Questions that ended in a resolution error.
    pub errors: u64,
    /// Network resolutions failed by silence until the deadline.
    pub failed_timeout: u64,
    /// Network resolutions failed by ICMP-style unreachable.
    pub failed_unreachable: u64,
    /// Network resolutions failed on corrupt/invalid replies.
    pub failed_corrupt: u64,
    /// Network resolutions failed with an error RCODE.
    pub failed_servfail: u64,
    /// Network resolutions failed for structural reasons.
    pub failed_other: u64,
    /// Hedge datagrams sent for straggling exchanges.
    pub hedges: u64,
    /// Circuit-breaker trips during the sweep.
    pub breaker_trips: u64,
}

impl SweepReport {
    /// Fraction of questions served from cache.
    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    fn from_deltas(stats: RecursorStats, packets: u64, errors: u64) -> Self {
        Self {
            queries: stats.queries,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            coalesced: stats.coalesced,
            packets_sent: packets,
            retries: stats.retries,
            errors,
            failed_timeout: stats.failed_timeout,
            failed_unreachable: stats.failed_unreachable,
            failed_corrupt: stats.failed_corrupt,
            failed_servfail: stats.failed_servfail,
            failed_other: stats.failed_other,
            hedges: stats.hedges,
            breaker_trips: stats.breaker_trips,
        }
    }
}

/// Runs daily sweeps through a shared [`Recursor`] with a worker pool.
pub struct SweepScheduler {
    recursor: Recursor,
    workers: usize,
}

impl SweepScheduler {
    /// A scheduler running `workers` threads over `recursor`'s shared
    /// caches (min 1).
    pub fn new(recursor: Recursor, workers: usize) -> Self {
        Self {
            recursor,
            workers: workers.max(1),
        }
    }

    /// The shared clock, for callers that interleave their own queries.
    pub fn clock(&self) -> &SharedClock {
        self.recursor.clock()
    }

    /// Sweeps `jobs` on `day`: jumps the shared clock to the day's start
    /// (expiring the previous day's cache), then resolves every job with
    /// bounded per-server concurrency. Workers send from `source` on
    /// distinct deterministic netsim streams.
    pub fn run_sweep(
        &self,
        net: &Arc<Network>,
        source: IpAddr,
        day: Day,
        jobs: &[(Name, RrType)],
    ) -> SweepReport {
        self.recursor.begin_day(day);
        let packets_before = net.stats().snapshot().sent;
        let stats_before = self.recursor.stats();
        let errors = AtomicU64::new(0);
        let next_job = AtomicUsize::new(0);

        crossbeam::thread::scope(|scope| {
            for stream in 0..self.workers {
                let mut worker = self.recursor.worker(net, source, stream as u64);
                let (errors, next_job) = (&errors, &next_job);
                scope.spawn(move |_| loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some((qname, qtype)) = jobs.get(i) else {
                        break;
                    };
                    if worker.resolve(qname, *qtype).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
        .expect("sweep worker panicked");

        let stats = self.recursor.stats() - stats_before;
        let packets = net.stats().snapshot().sent - packets_before;
        SweepReport::from_deltas(stats, packets, errors.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn gate_bounds_concurrency() {
        let gate = Arc::new(ServerGate::new(2));
        let server: IpAddr = "192.0.2.1".parse().unwrap();
        let peak = Arc::new(AtomicU32::new(0));
        let current = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (gate, peak, current) =
                    (Arc::clone(&gate), Arc::clone(&peak), Arc::clone(&current));
                std::thread::spawn(move || {
                    let _permit = gate.acquire(server);
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    current.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(gate.inflight(server), 0);
    }

    #[test]
    fn gate_is_per_server() {
        let gate = ServerGate::new(1);
        let a: IpAddr = "192.0.2.1".parse().unwrap();
        let b: IpAddr = "192.0.2.2".parse().unwrap();
        let _pa = gate.acquire(a);
        let _pb = gate.acquire(b); // must not block
        assert_eq!((gate.inflight(a), gate.inflight(b)), (1, 1));
    }
}
