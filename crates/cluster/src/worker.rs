//! The worker agent: connects, rebuilds the world, sweeps leases.
//!
//! An agent carries no configuration of its own — the manager's `Welcome`
//! names the scenario (seed, scale, window), and because the world is a
//! pure function of those parameters every worker evaluates the exact
//! rows the single-process sweep would. Inside a lease the agent collects
//! the entry range with the single-process bulk path's own
//! [`collect_rows`] fan-out, so one agent saturates its machine and extra
//! agents add machines.
//!
//! A heartbeat thread shares the frame sender and beacons liveness; the
//! manager feeds those beacons (and their absence) into its breaker
//! model. The agent never opens the archive.

use crate::transport::Conn;
use crate::wire::{self, LeaseResult, Msg, PROTO_VERSION};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::collector::RawRow;
use dps_measure::observation::Source;
use dps_measure::pipeline::{collect_rows, source_entries};
use dps_netsim::Day;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Agent tuning.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name sent in the Hello (provenance label).
    pub name: String,
    /// Heartbeat interval. Liveness contract: this must be *shorter*
    /// than the manager connection's read timeout, so a healthy worker
    /// never logs a quiet interval (quiet intervals make it a
    /// work-stealing target and count toward its death sentence).
    pub heartbeat: Duration,
    /// Fault-injection hook: disconnect abruptly (a crash, from the
    /// manager's point of view) after completing this many leases.
    pub fail_after_leases: Option<u32>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            name: String::new(),
            heartbeat: Duration::from_millis(100),
            fail_after_leases: None,
        }
    }
}

/// What an agent did before exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Id the manager assigned.
    pub worker: u32,
    /// Leases completed.
    pub leases: u32,
    /// Rows collected.
    pub rows: u64,
    /// True when the agent exited via the fault-injection hook.
    pub crashed: bool,
}

/// Runs one agent over an established connection until the manager
/// drains it (or the fault-injection hook fires).
pub fn run_agent(conn: Conn, opts: WorkerOptions) -> io::Result<WorkerSummary> {
    let Conn { tx, mut rx } = conn;
    tx.send_vec(wire::encode(&Msg::Hello {
        proto: PROTO_VERSION,
        name: opts.name.clone(),
    }))?;

    // Handshake: wait for the Welcome naming the scenario.
    let (worker, params) = loop {
        match rx.recv()? {
            None => continue,
            Some(payload) => match wire::decode(&payload) {
                Some(Msg::Welcome {
                    proto,
                    worker,
                    seed,
                    scale_bits,
                    gtld_days,
                    cc_start_day,
                }) => {
                    if proto != PROTO_VERSION {
                        return Err(io::Error::other("manager speaks a different protocol"));
                    }
                    break (
                        worker,
                        ScenarioParams {
                            seed,
                            scale: f64::from_bits(scale_bits),
                            gtld_days,
                            cc_start_day,
                        },
                    );
                }
                Some(_) => continue,
                None => return Err(io::Error::other("malformed frame during handshake")),
            },
        }
    };

    let mut world = World::imc2016(params);

    // Liveness beacons ride the shared sender from their own thread. A
    // condvar carries the stop signal so shutdown is immediate rather
    // than costing up to one heartbeat interval of sleep.
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let beat = {
        let tx = Arc::clone(&tx);
        let stop = Arc::clone(&stop);
        let interval = opts.heartbeat;
        std::thread::spawn(move || {
            let (flag, wake) = &*stop;
            let mut seq = 0u64;
            let mut stopped = match flag.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            loop {
                let (g, timeout) = match wake.wait_timeout(stopped, interval) {
                    Ok(pair) => pair,
                    Err(_) => return,
                };
                stopped = g;
                if *stopped {
                    return;
                }
                if timeout.timed_out() {
                    seq += 1;
                    if tx.send_vec(wire::encode(&Msg::Heartbeat { seq })).is_err() {
                        return;
                    }
                }
            }
        })
    };

    let mut summary = WorkerSummary {
        worker,
        leases: 0,
        rows: 0,
        crashed: false,
    };
    let outcome = loop {
        let payload = match rx.recv() {
            Ok(Some(p)) => p,
            Ok(None) => continue,
            Err(e) => break Err(e),
        };
        match wire::decode(&payload) {
            Some(Msg::Lease {
                lease,
                epoch,
                day,
                source,
                shard,
                start,
                count,
            }) => {
                if opts.fail_after_leases == Some(summary.leases) {
                    summary.crashed = true;
                    break Ok(());
                }
                let swept = sweep_lease(&mut world, params, day, source, start, count);
                let msg = match swept {
                    None => Msg::Reject { lease, epoch },
                    Some(rows) => {
                        summary.leases += 1;
                        summary.rows += rows.len() as u64;
                        Msg::Result(Box::new(LeaseResult {
                            lease,
                            epoch,
                            day,
                            source,
                            shard,
                            rows,
                            // The manager's driver counts rows and data
                            // points; the bulk path has no telemetry of
                            // its own.
                            telemetry: Vec::new(),
                        }))
                    }
                };
                if let Err(e) = tx.send_vec(wire::encode(&msg)) {
                    break Err(e);
                }
            }
            Some(Msg::Drain) => {
                tx.send_vec(wire::encode(&Msg::Bye)).ok();
                break Ok(());
            }
            Some(_) => continue,
            None => break Err(io::Error::other("malformed frame from manager")),
        }
    };
    if let Ok(mut stopped) = stop.0.lock() {
        *stopped = true;
    }
    stop.1.notify_all();
    // The condvar wakes the heartbeat thread immediately.
    beat.join().ok();
    outcome.map(|()| summary)
}

/// Sweeps one leased entry range; `None` when the lease is out of bounds
/// for the named day/source (the manager dead-letters it).
fn sweep_lease(
    world: &mut World,
    params: ScenarioParams,
    day: u32,
    source: u8,
    start: u32,
    count: u32,
) -> Option<Vec<RawRow>> {
    let source = Source::from_index(u32::from(source))?;
    if day >= params.gtld_days {
        return None;
    }
    world.advance_to(Day(day));
    let entries = source_entries(world, source);
    let end = (start as usize).checked_add(count as usize)?;
    let slice = entries.get(start as usize..end)?;
    Some(collect_rows(world, slice, &world.pfx2as()).collect())
}
