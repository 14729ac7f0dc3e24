//! Lease scheduling: the manager-side state machine that hands (day,
//! source-shard) work units to workers and survives worker failure.
//!
//! Pure and deterministic: the scheduler never reads a clock — liveness
//! is driven by the transport layer's read-timeout ticks (a
//! [`silence`](Scheduler::silence) per quiet interval, a
//! [`heartbeat`](Scheduler::heartbeat) per beacon) and those events feed
//! the same circuit-breaker health model the measurement pipeline uses
//! for authoritative servers ([`dps_authdns::HealthTracker`], keyed by a
//! synthetic per-worker address, clocked by an event-count tick).
//!
//! Failure handling mirrors the single-process supervisor's dead-letter
//! queue: every lease a dead worker held is routed through
//! [`dead_letters`](Scheduler::dead_letters) and reassigned ahead of
//! fresh units. Every grant carries an **epoch**: reassigning a unit
//! bumps its epoch, so a zombie worker that rejoins (or was merely slow)
//! and answers an old lease is detected and its stale result rejected —
//! each unit is committed exactly once.

use dps_authdns::{HealthConfig, HealthTracker, ServerHealth};
use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr};

/// Worker identity assigned at admission.
pub type WorkerId = u32;

/// A unit of leasable work: one shard of one source for the current day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnitKey {
    /// Source index.
    pub source: u8,
    /// Shard index within the source.
    pub shard: u32,
}

/// The entry range a unit covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpec {
    /// Unit identity.
    pub key: UnitKey,
    /// First entry offset.
    pub start: u32,
    /// Entry count.
    pub count: u32,
}

/// One granted lease, ready to serialise into a `Lease` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Assigned worker.
    pub worker: WorkerId,
    /// Lease id, unique across the run.
    pub lease: u64,
    /// Grant epoch for the unit.
    pub epoch: u32,
    /// The work range.
    pub unit: UnitSpec,
}

/// Outcome of offering a result to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Fresh result for the current epoch: commit it.
    Accept,
    /// Stale (superseded epoch or unknown lease): discard it.
    Stale,
}

#[derive(Debug, Clone, Copy)]
enum UnitState {
    Pending,
    Assigned {
        worker: WorkerId,
        lease: u64,
        epoch: u32,
        /// Grant order, for oldest-grant-first stealing.
        seq: u64,
    },
    Done,
}

#[derive(Debug)]
struct Unit {
    spec: UnitSpec,
    state: UnitState,
    epoch: u32,
    attempts: u32,
}

#[derive(Debug)]
struct WorkerState {
    alive: bool,
    busy: Vec<UnitKey>,
    silences: u32,
}

/// Scheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Consecutive quiet intervals after which a worker is declared dead.
    pub silence_limit: u32,
    /// Grant attempts per unit before the day is declared failed.
    pub max_attempts: u32,
    /// Breaker: consecutive failure events that open a worker's breaker.
    pub failure_threshold: u32,
    /// Breaker: virtual-ticks a tripped breaker stays open.
    pub open_ticks: u64,
    /// Outstanding leases a worker may hold. Depth 2 keeps the next
    /// lease queued in the transport while a result is in flight, so the
    /// worker never idles waiting for the manager's turnaround.
    pub pipeline_depth: u32,
    /// Grants are withheld until at least this many workers are live, so
    /// a slow-starting fleet all participates instead of the first
    /// arrival sweeping everything alone. 0 disables the gate.
    pub min_workers: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            silence_limit: 10,
            max_attempts: 6,
            failure_threshold: 3,
            open_ticks: 20,
            pipeline_depth: 2,
            min_workers: 0,
        }
    }
}

/// Virtual microseconds per liveness event; the breaker's clock advances
/// by this much on every silence/heartbeat, so breaker cool-down is
/// measured in protocol events, not wall time.
const TICK_US: u64 = 1;

/// The lease scheduler. One instance spans the whole run; units are
/// loaded per day with [`begin_day`](Scheduler::begin_day).
pub struct Scheduler {
    config: SchedulerConfig,
    health: HealthTracker,
    tick: u64,
    workers: BTreeMap<WorkerId, WorkerState>,
    units: BTreeMap<UnitKey, Unit>,
    /// Units awaiting (re)assignment; dead-lettered units jump the line.
    pending: VecDeque<UnitKey>,
    next_lease: u64,
    next_seq: u64,
    /// Whether the `min_workers` admission gate has opened (latches).
    quorum_met: bool,
    /// Units that went through the dead-letter path this day.
    dead_letters: u64,
    /// Results rejected as stale this run.
    stale_rejected: u64,
    /// Leases reassigned (steal or death) this run.
    reassigned: u64,
}

impl Scheduler {
    /// A scheduler with no workers and no units.
    pub fn new(config: SchedulerConfig) -> Self {
        let health = HealthTracker::new(HealthConfig {
            failure_threshold: config.failure_threshold,
            open_duration_us: config.open_ticks.saturating_mul(TICK_US),
        });
        Self {
            config,
            health,
            tick: 0,
            workers: BTreeMap::new(),
            units: BTreeMap::new(),
            pending: VecDeque::new(),
            next_lease: 1,
            next_seq: 1,
            quorum_met: false,
            dead_letters: 0,
            stale_rejected: 0,
            reassigned: 0,
        }
    }

    /// Synthetic breaker address for a worker (the health model is keyed
    /// by server address in the measurement pipeline).
    fn breaker_addr(worker: WorkerId) -> IpAddr {
        IpAddr::V4(Ipv4Addr::from(0x0a00_0000u32 | (worker & 0x00ff_ffff)))
    }

    /// Admits a worker (or re-admits one that rejoined under a new id).
    pub fn worker_joined(&mut self, worker: WorkerId) {
        self.workers.insert(
            worker,
            WorkerState {
                alive: true,
                busy: Vec::new(),
                silences: 0,
            },
        );
        self.health.record_success(Self::breaker_addr(worker));
    }

    /// Removes a worker; every unit it held goes to the dead-letter
    /// queue for reassignment.
    pub fn worker_left(&mut self, worker: WorkerId) {
        let busy = match self.workers.get_mut(&worker) {
            Some(st) => {
                st.alive = false;
                st.silences = 0;
                std::mem::take(&mut st.busy)
            }
            None => Vec::new(),
        };
        for key in busy {
            self.dead_letter(key);
        }
    }

    /// Routes a unit through the dead-letter queue: back to pending, at
    /// the front, with its epoch bumped so the superseded grant's result
    /// is stale on arrival.
    fn dead_letter(&mut self, key: UnitKey) {
        if let Some(unit) = self.units.get_mut(&key) {
            if matches!(unit.state, UnitState::Assigned { .. }) {
                unit.state = UnitState::Pending;
                unit.epoch = unit.epoch.wrapping_add(1);
                self.pending.push_front(key);
                self.dead_letters += 1;
                self.reassigned += 1;
            }
        }
    }

    /// Records a heartbeat (or any frame — traffic proves liveness).
    pub fn heartbeat(&mut self, worker: WorkerId) {
        self.tick += TICK_US;
        if let Some(st) = self.workers.get_mut(&worker) {
            if st.alive {
                st.silences = 0;
                self.health.record_success(Self::breaker_addr(worker));
            }
        }
    }

    /// Records a quiet read interval for a worker. Returns `true` when
    /// this crossed the silence limit and the worker was declared dead
    /// (its unit is then already dead-lettered).
    pub fn silence(&mut self, worker: WorkerId) -> bool {
        self.tick += TICK_US;
        let dead = match self.workers.get_mut(&worker) {
            Some(st) if st.alive => {
                st.silences += 1;
                st.silences >= self.config.silence_limit
            }
            _ => return false,
        };
        self.health
            .record_failure(Self::breaker_addr(worker), self.tick);
        if dead {
            self.worker_left(worker);
        }
        dead
    }

    /// Loads the day's units. Any state from the previous day is gone by
    /// construction (all units were Done).
    pub fn begin_day(&mut self, specs: Vec<UnitSpec>) {
        self.units.clear();
        self.pending.clear();
        for spec in specs {
            self.pending.push_back(spec.key);
            self.units.insert(
                spec.key,
                Unit {
                    spec,
                    state: UnitState::Pending,
                    epoch: 0,
                    attempts: 0,
                },
            );
        }
    }

    /// True once every unit of the day is done.
    pub fn day_done(&self) -> bool {
        self.units
            .values()
            .all(|u| matches!(u.state, UnitState::Done))
    }

    /// True if some unit has exhausted its grant attempts — the cluster
    /// cannot finish the day (e.g. every worker died).
    pub fn day_poisoned(&self) -> bool {
        self.units
            .values()
            .any(|u| !matches!(u.state, UnitState::Done) && u.attempts >= self.config.max_attempts)
    }

    /// Live workers with lease capacity left (fewer than
    /// `pipeline_depth` outstanding), in id order.
    fn hungry_workers(&self) -> Vec<WorkerId> {
        let depth = self.config.pipeline_depth.max(1) as usize;
        self.workers
            .iter()
            .filter(|(_, st)| st.alive && st.busy.len() < depth)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Grants pending units round-robin to workers with pipeline
    /// capacity, then — with nothing pending and a fully idle worker
    /// left — steals the oldest outstanding lease from a worker that has
    /// gone quiet, re-granting it under a bumped epoch (speculative
    /// reassignment; whichever copy answers first wins, the loser is
    /// stale). Stealing never targets a pipelined worker: one with
    /// queued work of its own gains nothing from a duplicate.
    pub fn next_grants(&mut self) -> Vec<LeaseGrant> {
        let mut grants = Vec::new();
        // Admission gate: withhold every grant until `min_workers` have
        // joined, then latch open — a mid-run death falls back to the
        // dead-letter path rather than stalling the day.
        if !self.quorum_met {
            if (self.live_workers() as u32) < self.config.min_workers {
                return grants;
            }
            self.quorum_met = true;
        }
        loop {
            let mut progressed = false;
            for worker in self.hungry_workers() {
                // A tripped breaker sidelines a worker until it cools
                // down.
                if matches!(
                    self.health.check(Self::breaker_addr(worker), self.tick),
                    ServerHealth::Open
                ) {
                    continue;
                }
                let key = match self.pending.pop_front() {
                    Some(k) => k,
                    None => {
                        let idle = self
                            .workers
                            .get(&worker)
                            .is_some_and(|st| st.busy.is_empty());
                        if !idle {
                            continue;
                        }
                        match self.steal_candidate() {
                            Some(k) => {
                                self.reassigned += 1;
                                k
                            }
                            None => continue,
                        }
                    }
                };
                let Some(unit) = self.units.get_mut(&key) else {
                    continue;
                };
                if unit.attempts >= self.config.max_attempts {
                    // Poisoned unit: leave it unassigned; the day loop
                    // surfaces the failure via `day_poisoned`.
                    continue;
                }
                unit.epoch = unit.epoch.wrapping_add(1);
                unit.attempts += 1;
                unit.state = UnitState::Assigned {
                    worker,
                    lease: self.next_lease,
                    epoch: unit.epoch,
                    seq: self.next_seq,
                };
                if let Some(st) = self.workers.get_mut(&worker) {
                    st.busy.push(key);
                }
                grants.push(LeaseGrant {
                    worker,
                    lease: self.next_lease,
                    epoch: unit.epoch,
                    unit: unit.spec,
                });
                self.next_lease += 1;
                self.next_seq += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        grants
    }

    /// The oldest-granted unit held by a worker that has missed at least
    /// one liveness interval (never steals from a worker that is
    /// answering promptly — that would just duplicate work).
    fn steal_candidate(&mut self) -> Option<UnitKey> {
        let mut best: Option<(u64, UnitKey, WorkerId)> = None;
        for (key, unit) in &self.units {
            if let UnitState::Assigned { worker, seq, .. } = unit.state {
                let quiet = !self
                    .workers
                    .get(&worker)
                    .is_some_and(|st| st.alive && st.silences == 0);
                if quiet && best.map_or(true, |(bseq, _, _)| seq < bseq) {
                    best = Some((seq, *key, worker));
                }
            }
        }
        let (_, key, holder) = best?;
        // The holder keeps running; if its (now-superseded) result
        // arrives first it is stale. Free the slot so the holder can be
        // granted other work once it proves liveness again.
        if let Some(st) = self.workers.get_mut(&holder) {
            st.busy.retain(|k| *k != key);
        }
        Some(key)
    }

    /// Offers a worker's result for `(lease, epoch)` on `key`.
    pub fn offer_result(
        &mut self,
        worker: WorkerId,
        key: UnitKey,
        lease: u64,
        epoch: u32,
    ) -> Disposition {
        self.heartbeat(worker);
        if let Some(st) = self.workers.get_mut(&worker) {
            st.busy.retain(|k| *k != key);
        }
        let Some(unit) = self.units.get_mut(&key) else {
            self.stale_rejected += 1;
            return Disposition::Stale;
        };
        match unit.state {
            UnitState::Assigned {
                lease: l, epoch: e, ..
            } if l == lease && e == epoch => {
                unit.state = UnitState::Done;
                Disposition::Accept
            }
            _ => {
                self.stale_rejected += 1;
                Disposition::Stale
            }
        }
    }

    /// A worker refused a lease (bad bounds, unknown source): route the
    /// unit through the dead-letter queue for another worker.
    pub fn reject_lease(&mut self, worker: WorkerId, key: UnitKey, lease: u64, epoch: u32) {
        self.heartbeat(worker);
        if let Some(st) = self.workers.get_mut(&worker) {
            st.busy.retain(|k| *k != key);
        }
        let is_current = matches!(
            self.units.get(&key).map(|u| &u.state),
            Some(UnitState::Assigned { lease: l, epoch: e, .. }) if *l == lease && *e == epoch
        );
        if is_current {
            self.dead_letter(key);
        }
    }

    /// Number of live workers.
    pub fn live_workers(&self) -> usize {
        self.workers.values().filter(|st| st.alive).count()
    }

    /// Units routed through the dead-letter queue so far.
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Stale results rejected so far.
    pub fn stale_rejected(&self) -> u64 {
        self.stale_rejected
    }

    /// Leases reassigned (worker death or steal) so far.
    pub fn reassigned(&self) -> u64 {
        self.reassigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: u32) -> Vec<UnitSpec> {
        (0..n)
            .map(|i| UnitSpec {
                key: UnitKey {
                    source: 0,
                    shard: i,
                },
                start: i * 10,
                count: 10,
            })
            .collect()
    }

    #[test]
    fn grants_cover_all_units_and_day_completes() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.worker_joined(1);
        s.worker_joined(2);
        s.begin_day(specs(4));
        let mut done = 0;
        while !s.day_done() {
            for g in s.next_grants() {
                assert_eq!(
                    s.offer_result(g.worker, g.unit.key, g.lease, g.epoch),
                    Disposition::Accept
                );
                done += 1;
            }
        }
        assert_eq!(done, 4);
        assert_eq!(s.dead_letters(), 0);
    }

    #[test]
    fn pipelining_grants_up_to_depth_and_death_requeues_all() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.worker_joined(1);
        s.begin_day(specs(3));
        let g = s.next_grants();
        assert_eq!(g.len(), 2, "depth-2 pipeline: two outstanding leases");
        assert!(g.iter().all(|g| g.worker == 1));
        // Completing one lease frees a slot for the third unit.
        let first = g.first().copied().unwrap();
        assert_eq!(
            s.offer_result(1, first.unit.key, first.lease, first.epoch),
            Disposition::Accept
        );
        assert_eq!(s.next_grants().len(), 1);
        // Death dead-letters every outstanding unit, not just one.
        s.worker_left(1);
        assert_eq!(s.dead_letters(), 2);
        s.worker_joined(2);
        let g2 = s.next_grants();
        assert_eq!(g2.len(), 2);
        assert!(g2.iter().all(|g| g.worker == 2));
        for g in g2 {
            s.offer_result(2, g.unit.key, g.lease, g.epoch);
        }
        assert!(s.day_done());
    }

    #[test]
    fn min_workers_withholds_grants_until_quorum() {
        let mut s = Scheduler::new(SchedulerConfig {
            min_workers: 2,
            ..SchedulerConfig::default()
        });
        s.begin_day(specs(4));
        s.worker_joined(1);
        assert!(
            s.next_grants().is_empty(),
            "one worker is below the admission quorum"
        );
        s.worker_joined(2);
        let grants = s.next_grants();
        assert_eq!(grants.len(), 4, "quorum reached: full pipeline for both");
        assert!(grants.iter().any(|g| g.worker == 1));
        assert!(grants.iter().any(|g| g.worker == 2));
        // The gate latches open: losing a worker mid-day routes its units
        // through the dead-letter path instead of stalling the survivors.
        s.worker_left(1);
        assert_eq!(s.dead_letters(), 2);
        for g in grants.iter().filter(|g| g.worker == 2) {
            s.offer_result(2, g.unit.key, g.lease, g.epoch);
        }
        let regrants = s.next_grants();
        assert_eq!(
            regrants.len(),
            2,
            "survivor absorbs the dead-lettered units below quorum"
        );
        for g in regrants {
            assert_eq!(g.worker, 2);
            s.offer_result(2, g.unit.key, g.lease, g.epoch);
        }
        assert!(s.day_done());
    }

    #[test]
    fn dead_worker_routes_lease_through_dead_letters() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.worker_joined(1);
        s.worker_joined(2);
        s.begin_day(specs(2));
        let grants = s.next_grants();
        assert_eq!(grants.len(), 2);
        let lost = grants.iter().find(|g| g.worker == 1).copied().unwrap();
        s.worker_left(1);
        assert_eq!(s.dead_letters(), 1);
        // Worker 2 finishes its own unit, then picks up the dead-lettered one.
        let own = grants.iter().find(|g| g.worker == 2).copied().unwrap();
        s.offer_result(2, own.unit.key, own.lease, own.epoch);
        let regrant = s.next_grants();
        assert_eq!(regrant.len(), 1);
        let g = regrant.first().copied().unwrap();
        assert_eq!(g.worker, 2);
        assert_eq!(g.unit.key, lost.unit.key);
        assert!(g.epoch > lost.epoch, "reassignment bumps the epoch");
        s.offer_result(2, g.unit.key, g.lease, g.epoch);
        assert!(s.day_done());
    }

    #[test]
    fn zombie_result_is_stale_after_reassignment() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.worker_joined(1);
        s.worker_joined(2);
        s.begin_day(specs(1));
        let g1 = s.next_grants().first().copied().unwrap();
        // The holder goes quiet; the idle worker steals the unit.
        for _ in 0..1 {
            s.silence(g1.worker);
        }
        let g2 = s.next_grants().first().copied().unwrap();
        assert_ne!(g2.worker, g1.worker);
        assert!(g2.epoch > g1.epoch);
        // The zombie answers late: stale. The thief's result is accepted.
        assert_eq!(
            s.offer_result(g1.worker, g1.unit.key, g1.lease, g1.epoch),
            Disposition::Stale
        );
        assert_eq!(
            s.offer_result(g2.worker, g2.unit.key, g2.lease, g2.epoch),
            Disposition::Accept
        );
        assert_eq!(s.stale_rejected(), 1);
        assert!(s.day_done());
    }

    #[test]
    fn silence_limit_declares_death_and_requeues() {
        let cfg = SchedulerConfig {
            silence_limit: 3,
            ..SchedulerConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        s.worker_joined(1);
        s.begin_day(specs(1));
        let g = s.next_grants().first().copied().unwrap();
        assert!(!s.silence(1));
        assert!(!s.silence(1));
        assert!(s.silence(1), "third quiet interval crosses the limit");
        assert_eq!(s.live_workers(), 0);
        assert_eq!(s.dead_letters(), 1);
        // A fresh worker picks the unit up under a newer epoch.
        s.worker_joined(2);
        let g2 = s.next_grants().first().copied().unwrap();
        assert!(g2.epoch > g.epoch);
    }

    #[test]
    fn no_steal_from_prompt_workers() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.worker_joined(1);
        s.worker_joined(2);
        s.begin_day(specs(1));
        let g = s.next_grants();
        assert_eq!(g.len(), 1);
        // Holder is heartbeating; the idle worker must not duplicate it.
        s.heartbeat(g.first().unwrap().worker);
        assert!(s.next_grants().is_empty());
    }

    #[test]
    fn breaker_sidelines_flapping_worker() {
        let cfg = SchedulerConfig {
            silence_limit: 100,
            failure_threshold: 2,
            open_ticks: 1000,
            ..SchedulerConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        s.worker_joined(1);
        s.begin_day(specs(1));
        s.silence(1);
        s.silence(1);
        assert!(s.next_grants().is_empty(), "breaker open: no grants");
    }

    #[test]
    fn poisoned_day_is_detected() {
        let cfg = SchedulerConfig {
            max_attempts: 1,
            ..SchedulerConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        s.worker_joined(1);
        s.begin_day(specs(1));
        let g = s.next_grants().first().copied().unwrap();
        s.worker_left(g.worker);
        assert!(!s.day_done());
        assert!(s.day_poisoned());
    }
}
