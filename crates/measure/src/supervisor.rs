//! The sweep supervisor: first-pass collection, a dead-letter queue of
//! transiently failed names, bounded end-of-day retry passes, and the
//! day's [`DayQuality`] record.
//!
//! The paper's platform re-ran failed queries at the end of each daily
//! sweep and the authors then *manually* dropped days whose coverage was
//! still bad (§4.2). The supervisor automates both halves: names whose
//! collection hit a transient fault (timeout, unreachable, corrupt reply,
//! SERVFAIL) land in a dead-letter queue and are re-collected after a
//! virtual-time pause — long enough for blackout windows to pass and open
//! circuit breakers to half-open — and whatever remains failed is recorded
//! in the day's quality row so the analysis layer can gate on coverage.
//!
//! Determinism: jobs are collected in input order, retries in queue order,
//! and rows are returned in input order regardless of retry outcomes, so a
//! supervised sweep that fully recovers is byte-identical (post interning)
//! to a sweep on a healthy network.

use crate::collector::{collect_raw, QueryPath, RawRow};
use crate::observation::Source;
use crate::quality::{CauseCounts, DayQuality};
use dps_dns::Name;
use dps_netsim::Pfx2As;
use dps_telemetry::{Counter, Histogram, Registry};

/// Telemetry handles for supervised sweeps. Default handles are detached
/// (no registry), so existing call sites record into thin air at the cost
/// of an uncontended atomic per event.
#[derive(Clone, Default)]
pub struct SweepMetrics {
    /// `sweep.attempted` — names the first pass attempted.
    pub attempted: Counter,
    /// `sweep.retries` — names that entered the dead-letter queue.
    pub retries: Counter,
    /// `sweep.recovered` — dead-letter names whose retry completed.
    pub recovered: Counter,
    /// `sweep.failed` — names still failed after every pass.
    pub failed: Counter,
    /// `sweep.deadletter.passes` — end-of-day retry passes run.
    pub deadletter_passes: Counter,
    /// `sweep.failures.timeout` — timeout tallies across all attempts.
    pub failures_timeout: Counter,
    /// `sweep.failures.unreachable`.
    pub failures_unreachable: Counter,
    /// `sweep.failures.corrupt`.
    pub failures_corrupt: Counter,
    /// `sweep.failures.servfail`.
    pub failures_servfail: Counter,
    /// `sweep.failures.other`.
    pub failures_other: Counter,
    /// `sweep.day.us` — virtual time one supervised sweep took.
    pub day_us: Histogram,
}

impl SweepMetrics {
    /// Handles registered under the `sweep.*` names in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            attempted: registry.counter("sweep.attempted"),
            retries: registry.counter("sweep.retries"),
            recovered: registry.counter("sweep.recovered"),
            failed: registry.counter("sweep.failed"),
            deadletter_passes: registry.counter("sweep.deadletter.passes"),
            failures_timeout: registry.counter("sweep.failures.timeout"),
            failures_unreachable: registry.counter("sweep.failures.unreachable"),
            failures_corrupt: registry.counter("sweep.failures.corrupt"),
            failures_servfail: registry.counter("sweep.failures.servfail"),
            failures_other: registry.counter("sweep.failures.other"),
            day_us: registry.histogram("sweep.day.us"),
        }
    }

    fn record(&self, quality: &DayQuality, elapsed_us: u64) {
        self.attempted.add(u64::from(quality.attempted));
        self.retries.add(u64::from(quality.retried));
        self.recovered.add(u64::from(quality.recovered));
        self.failed.add(u64::from(quality.failed));
        self.deadletter_passes.add(u64::from(quality.retry_passes));
        self.failures_timeout
            .add(u64::from(quality.causes.timeouts));
        self.failures_unreachable
            .add(u64::from(quality.causes.unreachable));
        self.failures_corrupt.add(u64::from(quality.causes.corrupt));
        self.failures_servfail
            .add(u64::from(quality.causes.servfail));
        self.failures_other.add(u64::from(quality.causes.other));
        self.day_us.observe(elapsed_us);
    }
}

/// Tunables for [`sweep_supervised`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Maximum end-of-day retry passes over the dead-letter queue.
    pub retry_passes: u32,
    /// Virtual-time pause before each retry pass (lets blackout windows
    /// end and breaker cool-downs elapse).
    pub retry_pause_us: u64,
}

impl Default for SupervisorConfig {
    /// Two retry passes, 30 virtual seconds apart (matches the default
    /// breaker cool-down in [`dps_authdns::HealthConfig`]).
    fn default() -> Self {
        Self {
            retry_passes: 2,
            retry_pause_us: 30_000_000,
        }
    }
}

/// What a supervised sweep produced.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// One row per job, in job order.
    pub rows: Vec<RawRow>,
    /// The day's quality record for this source.
    pub quality: DayQuality,
}

/// Collects every `(apex, entry_code)` job through `path`, retrying
/// transient failures from a dead-letter queue, and reports quality —
/// in the returned record and, with its virtual-time span, in `metrics`
/// (pass `&SweepMetrics::default()` to record into thin air).
pub fn sweep_supervised(
    path: &mut impl QueryPath,
    jobs: &[(Name, u32)],
    pfx2as: &Pfx2As,
    day: u32,
    source: Source,
    config: &SupervisorConfig,
    metrics: &SweepMetrics,
) -> SupervisedSweep {
    let start_us = path.now_us();
    let before = path.telemetry();
    let mut causes = CauseCounts::default();
    let mut rows = Vec::with_capacity(jobs.len());
    let mut dlq: Vec<usize> = Vec::new();

    for (i, (apex, entry)) in jobs.iter().enumerate() {
        let row = collect_raw(path, apex, *entry, pfx2as);
        causes.merge(&row.causes);
        if row.retryable {
            dlq.push(i);
        }
        rows.push(row);
    }

    let retried = dlq.len() as u32;
    let mut recovered = 0u32;
    let mut passes_run = 0u32;
    for _ in 0..config.retry_passes {
        if dlq.is_empty() {
            break;
        }
        passes_run += 1;
        path.pause_us(config.retry_pause_us);
        let mut still_failing = Vec::new();
        for &i in &dlq {
            let (apex, entry) = &jobs[i];
            let retry = collect_raw(path, apex, *entry, pfx2as);
            causes.merge(&retry.causes);
            if retry.retryable {
                // Keep the original row (it may hold partial data the
                // retry also failed to better) and queue another pass.
                still_failing.push(i);
            } else {
                if !retry.failed {
                    recovered += 1;
                }
                rows[i] = retry;
            }
        }
        dlq = still_failing;
    }

    let telemetry = path.telemetry().since(&before);
    // Unknown-state rows: whatever the dead-letter queue could not clear.
    // Definitive observations (including NXDOMAIN) are usable coverage.
    let failed = dlq.len() as u32;
    let quality = DayQuality {
        day,
        source,
        attempted: jobs.len() as u32,
        failed,
        retried,
        recovered,
        causes,
        retry_passes: passes_run,
        breaker_trips: telemetry.breaker_trips.min(u64::from(u32::MAX)) as u32,
        hedges: telemetry.hedges.min(u64::from(u32::MAX)) as u32,
    };
    metrics.record(&quality, path.now_us().saturating_sub(start_us));
    SupervisedSweep { quality, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::PathTelemetry;
    use dps_authdns::resolver::{Resolution, ResolveError};
    use dps_dns::{Rcode, RrType};
    use std::collections::HashMap;

    /// A scripted path: per-name queues of outcomes, shared across qtypes.
    struct ScriptedPath {
        script: HashMap<String, Vec<Result<Rcode, ResolveError>>>,
        clock_us: u64,
    }

    impl ScriptedPath {
        fn new() -> Self {
            Self {
                script: HashMap::new(),
                clock_us: 0,
            }
        }

        fn on(&mut self, name: &str, outcomes: Vec<Result<Rcode, ResolveError>>) {
            self.script.insert(name.to_string(), outcomes);
        }
    }

    impl QueryPath for ScriptedPath {
        fn query(&mut self, qname: &Name, _qtype: RrType) -> Result<Resolution, ResolveError> {
            let key = qname.to_string();
            let outcome = self
                .script
                .get_mut(&key)
                .and_then(|q| {
                    if q.is_empty() {
                        None
                    } else {
                        Some(q.remove(0))
                    }
                })
                .unwrap_or(Ok(Rcode::NoError));
            outcome.map(|rcode| Resolution {
                rcode,
                answers: vec![],
                elapsed_us: 0,
            })
        }

        fn pause_us(&mut self, dt_us: u64) {
            self.clock_us += dt_us;
        }

        fn now_us(&self) -> u64 {
            self.clock_us
        }
    }

    fn jobs(names: &[&str]) -> Vec<(Name, u32)> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.parse().unwrap(), i as u32 * 2))
            .collect()
    }

    #[test]
    fn transient_failures_are_retried_and_recovered() {
        let mut path = ScriptedPath::new();
        // First apex query times out; the retry pass succeeds.
        path.on(
            "flaky.com.",
            vec![Err(ResolveError::Timeout), Ok(Rcode::NoError)],
        );
        let pfx2as = dps_netsim::Rib::new().snapshot();
        let sweep = sweep_supervised(
            &mut path,
            &jobs(&["flaky.com", "ok.com"]),
            &pfx2as,
            3,
            Source::Com,
            &SupervisorConfig::default(),
            &SweepMetrics::default(),
        );
        assert_eq!(sweep.rows.len(), 2);
        assert!(!sweep.rows[0].failed, "retry recovered the row");
        let q = sweep.quality;
        assert_eq!(
            (q.attempted, q.failed, q.retried, q.recovered),
            (2, 0, 1, 1)
        );
        assert_eq!(q.retry_passes, 1);
        assert_eq!(q.causes.timeouts, 1);
        assert!((q.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(path.clock_us, SupervisorConfig::default().retry_pause_us);
    }

    #[test]
    fn permanent_failures_exhaust_passes_and_lower_coverage() {
        let mut path = ScriptedPath::new();
        path.on(
            "dead.com.",
            vec![
                Err(ResolveError::Timeout),
                Err(ResolveError::Timeout),
                Err(ResolveError::Timeout),
            ],
        );
        let pfx2as = dps_netsim::Rib::new().snapshot();
        let sweep = sweep_supervised(
            &mut path,
            &jobs(&["dead.com", "a.com", "b.com", "c.com"]),
            &pfx2as,
            0,
            Source::Com,
            &SupervisorConfig {
                retry_passes: 2,
                retry_pause_us: 1_000,
            },
            &SweepMetrics::default(),
        );
        assert!(sweep.rows[0].failed);
        let q = sweep.quality;
        assert_eq!((q.failed, q.retried, q.recovered), (1, 1, 0));
        assert_eq!(q.retry_passes, 2);
        assert_eq!(q.causes.timeouts, 3, "every attempt tallied");
        assert!((q.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nxdomain_is_definitive_and_never_queued() {
        let mut path = ScriptedPath::new();
        path.on("gone.com.", vec![Ok(Rcode::NxDomain)]);
        let pfx2as = dps_netsim::Rib::new().snapshot();
        let sweep = sweep_supervised(
            &mut path,
            &jobs(&["gone.com"]),
            &pfx2as,
            0,
            Source::Com,
            &SupervisorConfig::default(),
            &SweepMetrics::default(),
        );
        let q = sweep.quality;
        assert!(sweep.rows[0].failed, "the data row records the NXDOMAIN");
        assert_eq!((q.retried, q.retry_passes), (0, 0));
        assert_eq!(q.failed, 0, "a definitive NXDOMAIN is usable coverage");
        assert!((q.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(path.clock_us, 0, "no retry pause for definitive answers");
    }

    #[test]
    fn telemetry_defaults_to_zero_for_plain_paths() {
        let path = ScriptedPath::new();
        assert_eq!(path.telemetry(), PathTelemetry::default());
    }

    #[test]
    fn metered_sweep_publishes_quality_into_the_registry() {
        let registry = dps_telemetry::Registry::new();
        let metrics = SweepMetrics::new(&registry);
        let mut path = ScriptedPath::new();
        path.on(
            "flaky.com.",
            vec![Err(ResolveError::Timeout), Ok(Rcode::NoError)],
        );
        let pfx2as = dps_netsim::Rib::new().snapshot();
        sweep_supervised(
            &mut path,
            &jobs(&["flaky.com", "ok.com"]),
            &pfx2as,
            3,
            Source::Com,
            &SupervisorConfig::default(),
            &metrics,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sweep.attempted"], 2);
        assert_eq!(snap.counters["sweep.retries"], 1);
        assert_eq!(snap.counters["sweep.recovered"], 1);
        assert_eq!(snap.counters["sweep.failed"], 0);
        assert_eq!(snap.counters["sweep.deadletter.passes"], 1);
        assert_eq!(snap.counters["sweep.failures.timeout"], 1);
        let span = &snap.histograms["sweep.day.us"];
        assert_eq!(span.count, 1);
        assert_eq!(
            span.sum,
            SupervisorConfig::default().retry_pause_us,
            "the span covers the retry pause on the path's virtual clock"
        );
    }
}
