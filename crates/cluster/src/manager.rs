//! The cluster manager: the remote [`DayCollector`], which leases each
//! measured day's entry ranges to worker agents, and [`serve`], which
//! runs it under the one sweep driver.
//!
//! A cluster sweep runs the same day loop as every other sweep,
//! [`Study::run_archived`]; only where the rows come from differs. For
//! each day the driver asks for, `RemoteCollector` splits every due
//! source's entry list into shards, leases them to admitted agents
//! through the [`Scheduler`] and, once every unit is back, feeds the rows
//! into the driver's pages in due-source order, then shard order, then
//! row order within the shard: the order the single-process bulk sweep
//! interns in. Only the driver touches the dictionary and the archive, so
//! dictionary ids and page bytes are independent of worker count, shard
//! completion order and any scheduling decision: the archive is
//! byte-identical to a single-process sweep of the same seed.
//!
//! The collector keeps its scheduler, connections and report across
//! days. Worker failure is absorbed by the scheduler's dead-letter/epoch
//! machinery; the collector only ever sees exactly-once unit completion.
//! Catalog-indexed counter deltas that agents attach to a lease result
//! are the collector's own telemetry; the driver counts days, rows and
//! data points itself.

use crate::scheduler::{Disposition, LeaseGrant, Scheduler, SchedulerConfig, UnitKey, UnitSpec};
use crate::transport::{Conn, FrameTx};
use crate::wire::{self, LeaseResult, Msg, PROTO_VERSION};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::collector::RawRow;
use dps_measure::observation::Source;
use dps_measure::pipeline::{source_entries, DayCollector, DayObserver, DayPages};
use dps_measure::telemetry::CATALOG;
use dps_measure::Study;
use dps_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc;
use std::sync::Arc;

/// Cluster-run configuration: what the remote collector needs beyond
/// the [`Study`] it runs under.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterConfig {
    /// Shards per source per day; 0 = auto (twice the worker count at
    /// day start, so slow shards overlap).
    pub shards_per_source: u32,
    /// Scheduler/liveness tuning.
    pub scheduler: SchedulerConfig,
}

/// One accepted lease in the provenance record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRow {
    /// Day of the unit.
    pub day: u32,
    /// Source index of the unit.
    pub source: u8,
    /// Shard index of the unit.
    pub shard: u32,
    /// Worker display name (from its Hello).
    pub worker: String,
    /// Rows the worker returned.
    pub rows: u32,
    /// Data points in those rows.
    pub data_points: u64,
}

/// What happened during a cluster run, beyond the archive itself.
#[derive(Debug, Default, Clone)]
pub struct ClusterReport {
    /// Every accepted lease, in acceptance order.
    pub accepted: Vec<ProvenanceRow>,
    /// Units routed through the dead-letter queue.
    pub dead_letters: u64,
    /// Stale (superseded-epoch) results rejected.
    pub stale_rejected: u64,
    /// Leases reassigned after worker death or steal.
    pub reassigned: u64,
    /// Workers admitted over the run.
    pub workers_admitted: u32,
}

enum Event {
    Incoming(Conn),
    Frame(u32, Msg),
    Silence(u32),
    Closed(u32),
}

struct WorkerConn {
    tx: Arc<dyn FrameTx>,
    name: String,
    admitted: bool,
}

/// One day's in-flight leases and accepted results.
struct DayLeases {
    day: u32,
    grants: BTreeMap<u64, LeaseGrant>,
    collected: BTreeMap<UnitKey, Vec<RawRow>>,
    telemetry: Snapshot,
}

/// Runs a cluster sweep: `study`'s calendar and archive layout over
/// `world`, with every measured day's rows collected by the agents that
/// connect through `conns`. Committed days at `path` are resumed as in
/// any other sweep. Returns the run's provenance and fault statistics;
/// agents are sent `Drain` once the run ends.
pub fn serve(
    conns: mpsc::Receiver<Conn>,
    config: ClusterConfig,
    study: Study<'_>,
    world: &mut World,
    path: &std::path::Path,
    observer: Option<&mut dyn DayObserver>,
) -> io::Result<ClusterReport> {
    let mut remote = RemoteCollector::new(conns, config);
    let run = study
        .with_collector(&mut remote)
        .run_archived(world, path, observer);
    let report = remote.finish();
    run.map(|()| report)
}

/// The remote [`DayCollector`]: admits agents from a connection stream
/// and leases every due (source, shard) unit of each measured day to
/// them. Its scheduler, connections and report live across days.
struct RemoteCollector {
    config: ClusterConfig,
    sched: Scheduler,
    report: ClusterReport,
    events: mpsc::Receiver<Event>,
    events_tx: mpsc::Sender<Event>,
    workers: BTreeMap<u32, WorkerConn>,
    next_worker: u32,
}

impl RemoteCollector {
    /// A collector that admits agents from `conns` as they arrive.
    fn new(conns: mpsc::Receiver<Conn>, config: ClusterConfig) -> Self {
        let (events_tx, events) = mpsc::channel::<Event>();
        // Admission pump: forwards accepted connections into the event loop.
        let pump = events_tx.clone();
        std::thread::spawn(move || {
            while let Ok(conn) = conns.recv() {
                if pump.send(Event::Incoming(conn)).is_err() {
                    return;
                }
            }
        });
        Self {
            config,
            sched: Scheduler::new(config.scheduler),
            report: ClusterReport::default(),
            events,
            events_tx,
            workers: BTreeMap::new(),
            next_worker: 1,
        }
    }

    /// Sends every connected agent `Drain` and returns the run's report.
    fn finish(mut self) -> ClusterReport {
        for w in self.workers.values() {
            w.tx.send_vec(wire::encode(&Msg::Drain)).ok();
        }
        self.report.workers_admitted = self.next_worker - 1;
        self.report
    }

    /// Forgets worker `id`; its in-flight units dead-letter.
    fn drop_worker(&mut self, id: u32) {
        self.sched.worker_left(id);
        self.workers.remove(&id);
    }

    /// Sends the scheduler's next grants to their workers.
    fn send_grants(&mut self, leases: &mut DayLeases) {
        for grant in self.sched.next_grants() {
            let lease = Msg::Lease {
                lease: grant.lease,
                epoch: grant.epoch,
                day: leases.day,
                source: grant.unit.key.source,
                shard: grant.unit.key.shard,
                start: grant.unit.start,
                count: grant.unit.count,
            };
            let sent = self
                .workers
                .get(&grant.worker)
                .is_some_and(|w| w.tx.send_vec(wire::encode(&lease)).is_ok());
            if sent {
                leases.grants.insert(grant.lease, grant);
            } else {
                self.drop_worker(grant.worker);
            }
        }
    }

    /// Handles one event of the loop.
    fn handle_event(&mut self, event: Event, params: &ScenarioParams, leases: &mut DayLeases) {
        match event {
            Event::Incoming(conn) => {
                let id = self.next_worker;
                self.next_worker += 1;
                self.workers.insert(
                    id,
                    WorkerConn {
                        tx: conn.tx,
                        name: format!("worker-{id}"),
                        admitted: false,
                    },
                );
                spawn_reader(id, conn.rx, self.events_tx.clone());
            }
            Event::Frame(id, msg) => self.handle_frame(id, msg, params, leases),
            Event::Silence(id) => {
                if self.sched.silence(id) {
                    self.workers.remove(&id);
                }
            }
            Event::Closed(id) => self.drop_worker(id),
        }
    }

    /// Handles one decoded frame from worker `id`.
    fn handle_frame(&mut self, id: u32, msg: Msg, params: &ScenarioParams, leases: &mut DayLeases) {
        let admitted = self.workers.get(&id).is_some_and(|w| w.admitted);
        match msg {
            Msg::Hello { proto, name } if !admitted => {
                if proto != PROTO_VERSION {
                    self.workers.remove(&id);
                    return;
                }
                let welcome = Msg::Welcome {
                    proto: PROTO_VERSION,
                    worker: id,
                    seed: params.seed,
                    scale_bits: params.scale.to_bits(),
                    gtld_days: params.gtld_days,
                    cc_start_day: params.cc_start_day,
                };
                let ok = self.workers.get_mut(&id).is_some_and(|w| {
                    if !name.is_empty() {
                        w.name = name.clone();
                    }
                    w.admitted = true;
                    w.tx.send_vec(wire::encode(&welcome)).is_ok()
                });
                if ok {
                    self.sched.worker_joined(id);
                } else {
                    self.workers.remove(&id);
                }
            }
            Msg::Heartbeat { .. } if admitted => self.sched.heartbeat(id),
            Msg::Reject { lease, epoch } if admitted => {
                if let Some(grant) = leases.grants.remove(&lease) {
                    self.sched.reject_lease(id, grant.unit.key, lease, epoch);
                }
            }
            Msg::Result(res) if admitted => self.handle_result(id, *res, leases),
            // A goodbye, or anything else out of protocol order: drop the
            // connection.
            _ => self.drop_worker(id),
        }
    }

    /// Validates and absorbs one lease result.
    fn handle_result(&mut self, id: u32, res: LeaseResult, leases: &mut DayLeases) {
        let Some(&grant) = leases.grants.get(&res.lease) else {
            // Unknown or long-superseded lease: let the scheduler count it
            // as stale liveness traffic.
            self.sched.heartbeat(id);
            return;
        };
        if res.day != leases.day {
            // A previous day's lease answered late — the day is already
            // committed, so the result is stale, not a protocol violation.
            leases.grants.remove(&res.lease);
            self.sched.heartbeat(id);
            return;
        }
        // Rows arrive as decoded `RawRow`s (names validated by the wire
        // layer); only the unit shape needs checking before acceptance —
        // once the scheduler marks a unit Done it will never be re-leased.
        let shape_ok = res.source == grant.unit.key.source
            && res.shard == grant.unit.key.shard
            && res.rows.len() == grant.unit.count as usize;
        if !shape_ok {
            // A malformed unit: treat the worker as faulty; its in-flight
            // unit dead-letters for reassignment.
            self.drop_worker(id);
            return;
        }
        match self
            .sched
            .offer_result(id, grant.unit.key, res.lease, res.epoch)
        {
            Disposition::Stale => {
                leases.grants.remove(&res.lease);
            }
            Disposition::Accept => {
                leases.grants.remove(&res.lease);
                let data_points: u64 = res.rows.iter().map(|r| u64::from(r.data_points)).sum();
                self.report.accepted.push(ProvenanceRow {
                    day: leases.day,
                    source: grant.unit.key.source,
                    shard: grant.unit.key.shard,
                    worker: self
                        .workers
                        .get(&id)
                        .map(|w| w.name.clone())
                        .unwrap_or_else(|| format!("worker-{id}")),
                    rows: grant.unit.count,
                    data_points,
                });
                for (idx, v) in &res.telemetry {
                    if let Some((name, _)) = CATALOG.get(usize::from(*idx)) {
                        *leases.telemetry.counters.entry(name).or_insert(0) += v;
                    }
                }
                leases.collected.insert(grant.unit.key, res.rows);
            }
        }
    }
}

impl DayCollector for RemoteCollector {
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        due: &[Source],
        pages: &mut DayPages<'_>,
    ) -> io::Result<Snapshot> {
        let mut shard_counts = Vec::with_capacity(due.len());
        let mut units = Vec::new();
        for &source in due {
            let len = source_entries(world, source).len() as u32;
            let shards = effective_shards(
                self.config.shards_per_source,
                self.sched.live_workers(),
                len,
            );
            shard_counts.push(shards);
            for shard in 0..shards {
                let start = len * shard / shards;
                let end = len * (shard + 1) / shards;
                units.push(UnitSpec {
                    key: UnitKey {
                        source: source.index() as u8,
                        shard,
                    },
                    start,
                    count: end - start,
                });
            }
        }
        self.sched.begin_day(units);

        let mut leases = DayLeases {
            day,
            grants: BTreeMap::new(),
            collected: BTreeMap::new(),
            telemetry: Snapshot::default(),
        };
        while !self.sched.day_done() {
            self.send_grants(&mut leases);
            if self.sched.day_done() {
                break;
            }
            if self.sched.day_poisoned() {
                return Err(io::Error::other(format!(
                    "cluster: day {day} failed after exhausting lease attempts"
                )));
            }
            let Ok(event) = self.events.recv() else {
                return Err(io::Error::other("cluster: event channel closed"));
            };
            self.handle_event(event, &world.params, &mut leases);
        }
        self.report.dead_letters = self.sched.dead_letters();
        self.report.stale_rejected = self.sched.stale_rejected();
        self.report.reassigned = self.sched.reassigned();

        // Due-source order, shard order, row order: the order the
        // single-process sweep interns in.
        for (page, (&source, &shards)) in due.iter().zip(&shard_counts).enumerate() {
            for shard in 0..shards {
                let key = UnitKey {
                    source: source.index() as u8,
                    shard,
                };
                for raw in leases.collected.remove(&key).unwrap_or_default() {
                    pages.intern_row(page, raw);
                }
            }
        }
        Ok(leases.telemetry)
    }
}

/// Reader thread: turns a connection's frames into events. Exits when
/// the peer vanishes, a frame is malformed, or the event loop is gone.
fn spawn_reader(id: u32, mut rx: Box<dyn crate::transport::FrameRx>, events: mpsc::Sender<Event>) {
    std::thread::spawn(move || loop {
        let event = match rx.recv() {
            Ok(Some(payload)) => match wire::decode(&payload) {
                Some(msg) => Event::Frame(id, msg),
                None => {
                    events.send(Event::Closed(id)).ok();
                    return;
                }
            },
            Ok(None) => Event::Silence(id),
            Err(_) => {
                events.send(Event::Closed(id)).ok();
                return;
            }
        };
        let closing = matches!(event, Event::Closed(_));
        if events.send(event).is_err() || closing {
            return;
        }
    });
}

/// Shard count for a source of `len` entries: the configured count, or
/// twice the live workers (min 1), never more than the entry count.
fn effective_shards(configured: u32, live_workers: usize, len: u32) -> u32 {
    let want = if configured > 0 {
        configured
    } else {
        (live_workers.max(1) as u32) * 2
    };
    want.clamp(1, len.max(1))
}
