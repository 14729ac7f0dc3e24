//! The cluster manager: owns the archive, leases work, merges results.
//!
//! The manager is the only process that touches `archive.dps`. Workers
//! collect raw rows against their own same-seed world and ship them back;
//! the manager interns every row with the **single** run-wide dictionary
//! and interner, in deterministic order — day ascending, then the day's
//! [`due_sources_for`] order, then shard index, then row order within the
//! shard — and funnels each finished day through the same
//! [`append_day`] commit path the single-process sweep uses. Dictionary
//! ids and page bytes are therefore independent of worker count, shard
//! completion order, and any scheduling decision: the archive is
//! byte-identical to `Study::run_archived` for the same seed.
//!
//! Worker telemetry arrives as catalog-indexed counter deltas per lease;
//! the manager merges them (addition, like `Snapshot::merge`) into the
//! day's TELEMETRY_SOURCE page. Worker failure is absorbed by the
//! scheduler's dead-letter/epoch machinery; the manager only ever sees
//! exactly-once unit completion.

use crate::scheduler::{Disposition, LeaseGrant, Scheduler, SchedulerConfig, UnitKey, UnitSpec};
use crate::transport::{Conn, FrameTx};
use crate::wire::{self, LeaseResult, Msg, PROTO_VERSION};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::collector::{RawRow, SldInterner};
use dps_measure::observation::Source;
use dps_measure::pipeline::{
    append_day, day_committed, due_sources_for, replay_checkpoints, DayObserver, PageBuilder,
};
use dps_measure::snapshot::UNIQUE_KEY_COLUMN;
use dps_measure::telemetry::CATALOG;
use dps_measure::StudyConfig;
use dps_netsim::Day;
use dps_store::StoreWriter;
use dps_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc;
use std::sync::Arc;

/// Cluster-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// The measurement calendar (days, cc start, stride).
    pub study: StudyConfig,
    /// The scenario every worker must rebuild (seed ⇒ same world).
    pub params: ScenarioParams,
    /// Shards per source per day; 0 = auto (twice the worker count at
    /// day start, so slow shards overlap).
    pub shards_per_source: u32,
    /// Shard files of a freshly created archive (1 = the single-file
    /// layout); resume keeps the existing layout, as in
    /// [`Study::with_shards`](dps_measure::Study::with_shards).
    pub archive_shards: u32,
    /// Scheduler/liveness tuning.
    pub scheduler: SchedulerConfig,
}

impl ClusterConfig {
    /// Cluster settings matching a single-process study of `params`.
    pub fn for_params(params: ScenarioParams) -> Self {
        Self {
            study: StudyConfig {
                days: params.gtld_days,
                cc_start_day: params.cc_start_day,
                stride: 1,
            },
            params,
            shards_per_source: 0,
            archive_shards: 1,
            scheduler: SchedulerConfig::default(),
        }
    }
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

/// Runs a cluster sweep: admits workers from `conns`, leases every due
/// (day, source-shard) unit, and commits each finished day to the archive
/// at `path` (resuming committed days like the single-process sweep).
/// Returns the run's provenance and fault statistics once every day is
/// durable; workers are sent `Drain`.
///
/// A streaming-analysis `observer` gets exactly the hook
/// [`Study::run_archived`] offers the single-process sweep. It runs
/// manager-side only — it consumes each day's deterministically merged
/// pages, so its state (and checkpoint pages) are independent of worker
/// count and scheduling.
///
/// [`Study::run_archived`]: dps_measure::Study::run_archived
pub fn serve(
    conns: mpsc::Receiver<Conn>,
    config: ClusterConfig,
    path: &std::path::Path,
    mut observer: Option<&mut dyn DayObserver>,
) -> io::Result<ClusterReport> {
    let mut writer =
        StoreWriter::resume_or_create(path, config.archive_shards.max(1), Some(UNIQUE_KEY_COLUMN))?;
    let mut dict = writer.dict().clone();
    if let Some(obs) = observer.as_deref_mut() {
        replay_checkpoints(&writer, path, &config.study, obs)?;
    }
    let mut interner = SldInterner::new();
    let mut world = World::imc2016(config.params);
    let mut sched = Scheduler::new(config.scheduler);
    let mut report = ClusterReport::default();

    let (events_tx, events) = mpsc::channel::<Event>();
    // Admission pump: forwards accepted connections into the event loop.
    {
        let events_tx = events_tx.clone();
        std::thread::spawn(move || {
            while let Ok(conn) = conns.recv() {
                if events_tx.send(Event::Incoming(conn)).is_err() {
                    return;
                }
            }
        });
    }

    let mut workers: BTreeMap<u32, WorkerConn> = BTreeMap::new();
    let mut next_worker: u32 = 1;

    let mut day = 0u32;
    while day < config.study.days {
        // Advance through *every* day — including committed ones — so
        // the manager's world evolves exactly as in a fresh run.
        world.advance_to(Day(day));
        if day_committed(&writer, &config.study, day) {
            day += config.study.stride.max(1);
            continue;
        }
        let due = due_sources_for(&config.study, day);
        let mut shard_counts: BTreeMap<u8, u32> = BTreeMap::new();
        let mut units = Vec::new();
        for &source in &due {
            let len = source_len(&world, source) as u32;
            let shards = effective_shards(config.shards_per_source, sched.live_workers(), len);
            shard_counts.insert(source.index() as u8, shards);
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
        sched.begin_day(units);

        let mut grants: BTreeMap<u64, LeaseGrant> = BTreeMap::new();
        let mut collected: BTreeMap<UnitKey, Vec<RawRow>> = BTreeMap::new();
        let mut day_telemetry = Snapshot::default();
        day_telemetry.counters.insert("measure.days", 1);

        while !sched.day_done() {
            for grant in sched.next_grants() {
                let sent = workers.get(&grant.worker).is_some_and(|w| {
                    let lease = Msg::Lease {
                        lease: grant.lease,
                        epoch: grant.epoch,
                        day,
                        source: grant.unit.key.source,
                        shard: grant.unit.key.shard,
                        start: grant.unit.start,
                        count: grant.unit.count,
                    };
                    w.tx.send_vec(wire::encode(&lease)).is_ok()
                });
                if sent {
                    grants.insert(grant.lease, grant);
                } else {
                    sched.worker_left(grant.worker);
                    workers.remove(&grant.worker);
                }
            }
            if sched.day_done() {
                break;
            }
            if sched.day_poisoned() {
                return Err(io::Error::other(format!(
                    "cluster: day {day} failed after exhausting lease attempts"
                )));
            }
            let Ok(event) = events.recv() else {
                return Err(io::Error::other("cluster: event channel closed"));
            };
            match event {
                Event::Incoming(conn) => {
                    let id = next_worker;
                    next_worker += 1;
                    workers.insert(
                        id,
                        WorkerConn {
                            tx: conn.tx,
                            name: format!("worker-{id}"),
                            admitted: false,
                        },
                    );
                    spawn_reader(id, conn.rx, events_tx.clone());
                }
                Event::Frame(id, msg) => {
                    handle_frame(
                        id,
                        msg,
                        day,
                        &config,
                        &mut sched,
                        &mut workers,
                        &mut grants,
                        &mut collected,
                        &mut day_telemetry,
                        &mut report,
                    );
                }
                Event::Silence(id) => {
                    if sched.silence(id) {
                        workers.remove(&id);
                    }
                }
                Event::Closed(id) => {
                    sched.worker_left(id);
                    workers.remove(&id);
                }
            }
        }
        report.dead_letters = sched.dead_letters();
        report.stale_rejected = sched.stale_rejected();
        report.reassigned = sched.reassigned();

        // Merge in deterministic order: due-source order, shard order,
        // row order — the exact order the single-process sweep interns.
        let mut pages = Vec::new();
        for &source in &due {
            let sid = source.index() as u8;
            let shards = shard_counts.get(&sid).copied().unwrap_or(1);
            let mut page = PageBuilder::new(day, source);
            for shard in 0..shards {
                let key = UnitKey { source: sid, shard };
                for raw in collected.remove(&key).unwrap_or_default() {
                    page.intern_row(raw, &mut dict, &mut interner);
                }
            }
            pages.push(page.finish());
        }
        append_day(
            &mut writer,
            &dict,
            day,
            pages,
            day_telemetry,
            observer.as_deref_mut(),
        )?;
        day += config.study.stride.max(1);
    }

    for w in workers.values() {
        w.tx.send_vec(wire::encode(&Msg::Drain)).ok();
    }
    report.workers_admitted = next_worker - 1;
    Ok(report)
}

/// Handles one decoded frame from worker `id`.
#[allow(clippy::too_many_arguments)] // event-loop plumbing, not an API
fn handle_frame(
    id: u32,
    msg: Msg,
    day: u32,
    config: &ClusterConfig,
    sched: &mut Scheduler,
    workers: &mut BTreeMap<u32, WorkerConn>,
    grants: &mut BTreeMap<u64, LeaseGrant>,
    collected: &mut BTreeMap<UnitKey, Vec<RawRow>>,
    day_telemetry: &mut Snapshot,
    report: &mut ClusterReport,
) {
    let admitted = workers.get(&id).is_some_and(|w| w.admitted);
    match msg {
        Msg::Hello { proto, name } if !admitted => {
            if proto != PROTO_VERSION {
                workers.remove(&id);
                return;
            }
            let welcome = Msg::Welcome {
                proto: PROTO_VERSION,
                worker: id,
                seed: config.params.seed,
                scale_bits: config.params.scale.to_bits(),
                gtld_days: config.params.gtld_days,
                cc_start_day: config.params.cc_start_day,
            };
            let ok = workers.get_mut(&id).is_some_and(|w| {
                if !name.is_empty() {
                    w.name = name.clone();
                }
                w.admitted = true;
                w.tx.send_vec(wire::encode(&welcome)).is_ok()
            });
            if ok {
                sched.worker_joined(id);
            } else {
                workers.remove(&id);
            }
        }
        Msg::Heartbeat { .. } if admitted => sched.heartbeat(id),
        Msg::Reject { lease, epoch } if admitted => {
            if let Some(grant) = grants.remove(&lease) {
                sched.reject_lease(id, grant.unit.key, lease, epoch);
            }
        }
        Msg::Result(res) if admitted => {
            handle_result(
                id,
                *res,
                day,
                sched,
                workers,
                grants,
                collected,
                day_telemetry,
                report,
            );
        }
        Msg::Bye => {
            sched.worker_left(id);
            workers.remove(&id);
        }
        // Anything else out of protocol order: drop the connection.
        _ => {
            sched.worker_left(id);
            workers.remove(&id);
        }
    }
}

/// Validates and absorbs one lease result.
#[allow(clippy::too_many_arguments)] // event-loop plumbing, not an API
fn handle_result(
    id: u32,
    res: LeaseResult,
    day: u32,
    sched: &mut Scheduler,
    workers: &mut BTreeMap<u32, WorkerConn>,
    grants: &mut BTreeMap<u64, LeaseGrant>,
    collected: &mut BTreeMap<UnitKey, Vec<RawRow>>,
    day_telemetry: &mut Snapshot,
    report: &mut ClusterReport,
) {
    let Some(&grant) = grants.get(&res.lease) else {
        // Unknown or long-superseded lease: let the scheduler count it
        // as stale liveness traffic.
        sched.heartbeat(id);
        return;
    };
    if res.day != day {
        // A previous day's lease answered late — the day is already
        // committed, so the result is stale, not a protocol violation.
        grants.remove(&res.lease);
        sched.heartbeat(id);
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
        sched.worker_left(id);
        workers.remove(&id);
        return;
    }
    let raws = res.rows;
    match sched.offer_result(id, grant.unit.key, res.lease, res.epoch) {
        Disposition::Stale => {
            grants.remove(&res.lease);
        }
        Disposition::Accept => {
            grants.remove(&res.lease);
            let data_points: u64 = raws.iter().map(|r| u64::from(r.data_points)).sum();
            report.accepted.push(ProvenanceRow {
                day,
                source: grant.unit.key.source,
                shard: grant.unit.key.shard,
                worker: workers
                    .get(&id)
                    .map(|w| w.name.clone())
                    .unwrap_or_else(|| format!("worker-{id}")),
                rows: grant.unit.count,
                data_points,
            });
            for (idx, v) in &res.telemetry {
                if let Some((name, _)) = CATALOG.get(usize::from(*idx)) {
                    *day_telemetry.counters.entry(name).or_insert(0) += v;
                }
            }
            collected.insert(grant.unit.key, raws);
        }
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

/// Entry count of a source's input list for the world's current day.
fn source_len(world: &World, source: Source) -> usize {
    match source.tld() {
        Some(tld) => world.zone_entries(tld).len(),
        None => world.alexa_entries().len(),
    }
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
