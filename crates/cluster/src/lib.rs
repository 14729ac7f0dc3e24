//! # dps-cluster — the multi-process measurement cluster
//!
//! The paper's Stage I is a cluster manager driving a worker cloud that
//! performs the daily sweeps. This crate supplies that split for the
//! reproduction: a manager process runs the one sweep driver,
//! [`dps_measure::Study::run_archived`], with a remote day collector, and
//! N **worker agents** (threads, local processes, or remote machines)
//! rebuild the same-seed world and sweep leased entry ranges.
//!
//! * [`wire`] — the compact, versioned, length-framed binary protocol
//!   (hello/welcome handshake, work leases, results, heartbeats,
//!   drain/bye). Decoding is checked throughout: socket bytes are
//!   untrusted input.
//! * [`transport`] — frame movement over TCP, Unix domain sockets, or an
//!   in-process loopback pair (protocol and scheduling logic stay
//!   unit-testable without real sockets).
//! * [`scheduler`] — epoch-stamped lease assignment with dead-letter
//!   reassignment, heartbeat-fed circuit breakers, and stale-result
//!   rejection for zombie workers.
//! * [`manager`] / [`worker`] — the two process roles: the remote day
//!   collector [`serve`] runs under the sweep driver, and the agent that
//!   collects the rows.
//! * [`provenance`] — the per-worker attribution sidecar (the archive
//!   itself stays byte-identical to a single-process run).
//!
//! The load-bearing invariant: for the same seed, the archive from a
//! cluster sweep is **byte-for-byte identical** to the single-process
//! sweep's, regardless of worker count, crashes, or completion order.
//! Workers ship raw rows; the collector hands them to the driver in
//! calendar order, and only the driver interns them into the run-wide
//! dictionary and commits.

pub mod manager;
pub mod provenance;
pub mod scheduler;
pub mod transport;
pub mod wire;
pub mod worker;

pub use manager::{serve, ClusterConfig, ClusterReport, ProvenanceRow};
pub use provenance::{
    per_worker_metrics, read_provenance, render_per_worker, write_provenance, PROVENANCE_FILE,
};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use transport::{loopback_conn, tcp_conn, uds_conn, Conn, FrameRx, FrameTx};
pub use wire::{Msg, PROTO_VERSION};
pub use worker::{run_agent, WorkerOptions, WorkerSummary};
