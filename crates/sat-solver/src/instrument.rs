//! The solver's one instrumentation seam, and the JSON forms of its
//! statistics.
//!
//! Every measurement the CDCL search takes goes through the few
//! `pub(crate)` methods this module adds to [`Solver`]:
//!
//! * [`enter`](Solver::enter) / [`leave`](Solver::leave) bracket a
//!   [`Phase`]. A phase's recorded time excludes the phases nested inside
//!   it (minimization inside analysis, inprocessing inside a restart), so
//!   the solver's phase totals never exceed the solve's wall time.
//! * [`on_learned`](Solver::on_learned) and
//!   [`on_reduced`](Solver::on_reduced) are the learned-clause and
//!   reduction events; [`solve_started`](Solver::solve_started) and
//!   [`solve_finished`](Solver::solve_finished) bracket one search.
//! * [`TraceSpan`] and [`on_clause_use`](Solver::on_clause_use) are the
//!   trace-only sites (`import`, `reduce-score`, `import-use`).
//!
//! Three backends sit behind the seam: the opt-in [`SolverTelemetry`]
//! recorder (runtime: a solver without one pays one branch per site and
//! reads no clock), trace spans (`trace` feature) and the live metrics
//! registry (`metrics` feature). All of the solver's `cfg(feature = …)`
//! gating lives in this module, so default builds compile no trace or
//! metrics code into the search. The metrics counters that mirror
//! [`SolverStats`] and [`InprocessStats`] are published as deltas at
//! restart and reduce boundaries and at solve end, not per event.
//!
//! None of it changes the search: the backends only read state the
//! solver maintains anyway. The invariance tests in `tests/telemetry.rs`,
//! `tests/trace.rs` and `tests/metrics.rs` pin that guarantee.
//!
//! This module also gives the solver's public statistics types a stable
//! JSON form ([`ToJson`]/[`FromJson`], the workspace's offline stand-in
//! for serde's `Serialize`/`Deserialize`).

use crate::clause_db::ClauseRef;
#[cfg(feature = "metrics")]
use crate::InprocessStats;
use crate::{DbStats, PolicyKind, SolveResult, Solver, SolverStats};
use std::time::{Duration, Instant};
use telemetry::json::{FromJson, FromJsonError, Json, ToJson};
use telemetry::{Event, Histogram, NullSink, Phase, PhaseTimes, RunRecord, Sink};

/// Per-solve telemetry recorder installed via
/// [`Solver::set_telemetry`](crate::Solver::set_telemetry).
///
/// Collects per-phase wall time, the glue / learned-clause-length /
/// trail-depth-at-conflict distributions, and the peak clause-DB size;
/// emits structured [`Event`]s (solve start/end, reduction snapshots,
/// optional progress heartbeats) to a pluggable [`Sink`].
///
/// # Examples
///
/// ```
/// use sat_solver::{Solver, SolverTelemetry};
/// use telemetry::MemorySink;
///
/// let f = cnf::parse_dimacs_str("p cnf 2 2\n1 2 0\n-1 2 0\n")?;
/// let sink = MemorySink::default();
/// let events = sink.events_handle();
/// let mut solver = Solver::from_cnf(&f);
/// solver.set_telemetry(SolverTelemetry::new("example").with_sink(Box::new(sink)));
/// assert!(solver.solve().is_sat());
/// let record = solver.take_telemetry().unwrap().into_record().unwrap();
/// assert_eq!(record.result, "SAT");
/// assert!(!events.lock().unwrap().is_empty());
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub struct SolverTelemetry {
    instance_id: String,
    sink: Box<dyn Sink>,
    progress_interval: Option<Duration>,
    phases: PhaseTimes,
    /// Running sum of the nanoseconds recorded into `phases`; a phase
    /// subtracts what grew here while it was open (its nested phases).
    recorded_ns: u64,
    glue: Histogram,
    learned_len: Histogram,
    trail_depth: Histogram,
    peak_learned: u64,
    started: Option<Instant>,
    last_progress: Option<Instant>,
    record: Option<RunRecord>,
}

impl std::fmt::Debug for SolverTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverTelemetry")
            .field("instance_id", &self.instance_id)
            .field("phases", &self.phases)
            .field("peak_learned", &self.peak_learned)
            .finish_non_exhaustive()
    }
}

impl SolverTelemetry {
    /// A recorder for the named instance, with no event output
    /// ([`NullSink`]); measurements are still collected for the final
    /// [`RunRecord`].
    pub fn new(instance_id: impl Into<String>) -> Self {
        SolverTelemetry {
            instance_id: instance_id.into(),
            sink: Box::new(NullSink),
            progress_interval: None,
            phases: PhaseTimes::default(),
            recorded_ns: 0,
            // Glue is small (tier-1 threshold is 2, "good" clauses < 8);
            // lengths and trail depths span orders of magnitude.
            glue: Histogram::with_bounds(&[1, 2, 3, 4, 5, 6, 8, 12, 16, 32]),
            learned_len: Histogram::exponential(1, 2, 12),
            trail_depth: Histogram::exponential(1, 2, 16),
            peak_learned: 0,
            started: None,
            last_progress: None,
            record: None,
        }
    }

    /// Routes events into `sink` (JSONL file, in-memory test sink, …).
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sink = sink;
        self
    }

    /// Enables progress heartbeats at roughly this interval. Heartbeats
    /// are checked on conflict boundaries, so an idle interval shorter
    /// than the time between conflicts degrades gracefully.
    pub fn with_progress(mut self, interval: Duration) -> Self {
        self.progress_interval = Some(interval);
        self
    }

    /// Per-phase wall time and call counts collected so far. Each phase's
    /// time excludes the phases nested inside it, so the solver phases
    /// add up to at most the solve's wall time.
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }

    /// Distribution of glue values over learned clauses.
    pub fn glue_histogram(&self) -> &Histogram {
        &self.glue
    }

    /// Distribution of learned-clause lengths.
    pub fn learned_len_histogram(&self) -> &Histogram {
        &self.learned_len
    }

    /// Distribution of trail depth at each conflict.
    pub fn trail_depth_histogram(&self) -> &Histogram {
        &self.trail_depth
    }

    /// Largest number of live learned clauses observed.
    pub fn peak_learned_clauses(&self) -> u64 {
        self.peak_learned
    }

    /// The summary of the most recent completed solve, consuming the
    /// recorder. `None` if no solve finished while installed.
    pub fn into_record(mut self) -> Option<RunRecord> {
        self.sink.flush();
        self.record.take()
    }

    // ---- recorder backend of the seam ----------------------------------

    fn on_solve_start(&mut self, policy: &'static str, num_vars: u64, num_clauses: u64) {
        self.started = Some(Instant::now());
        self.last_progress = None;
        self.sink.emit(&Event::SolveStart {
            instance_id: self.instance_id.clone(),
            policy: policy.to_string(),
            num_vars,
            num_clauses,
        });
    }

    /// Records `phase` as `inclusive` wall time minus the nested phases
    /// recorded since `mark` (the [`recorded_ns`](Self::recorded_ns) value
    /// when the phase was entered).
    #[inline]
    fn add_phase(&mut self, phase: Phase, inclusive: Duration, mark: u64) {
        let nested = self.recorded_ns - mark;
        let own = (inclusive.as_nanos() as u64).saturating_sub(nested);
        self.phases.add(phase, Duration::from_nanos(own));
        self.recorded_ns += own;
    }

    #[inline]
    fn on_learned(
        &mut self,
        glue: u32,
        learned_len: usize,
        trail_depth: usize,
        stats: &SolverStats,
        live_learned: usize,
    ) {
        self.glue.record(u64::from(glue));
        self.learned_len.record(learned_len as u64);
        self.trail_depth.record(trail_depth as u64);
        self.peak_learned = self.peak_learned.max(live_learned as u64);
        self.maybe_progress(stats, live_learned);
    }

    /// Emits a heartbeat when the configured interval has elapsed. Called
    /// on conflict boundaries only, and only when heartbeats are enabled.
    fn maybe_progress(&mut self, stats: &SolverStats, live_learned: usize) {
        let (Some(interval), Some(started)) = (self.progress_interval, self.started) else {
            return;
        };
        let now = Instant::now();
        if now.duration_since(self.last_progress.unwrap_or(started)) < interval {
            return;
        }
        self.last_progress = Some(now);
        let elapsed_s = now.duration_since(started).as_secs_f64();
        let rate = |n: u64| {
            if elapsed_s > 0.0 {
                n as f64 / elapsed_s
            } else {
                0.0
            }
        };
        self.sink.emit(&Event::Progress {
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            learned: live_learned as u64,
            elapsed_s,
            conflicts_per_sec: rate(stats.conflicts),
            propagations_per_sec: rate(stats.propagations),
        });
    }

    fn on_solve_end(
        &mut self,
        result: &str,
        policy: &'static str,
        stats: &SolverStats,
        db: &DbStats,
    ) {
        let solve_time_s = self
            .started
            .take()
            .map_or(0.0, |s| s.elapsed().as_secs_f64());
        let mut record = RunRecord::new(self.instance_id.clone(), policy);
        record.result = result.to_string();
        record.solve_time_s = solve_time_s;
        record.peak_learned_clauses = self.peak_learned;
        record.phases = self.phases;
        record.stats = stats.to_json();
        record.extra = Json::object()
            .with("db", db.to_json())
            .with("glue_histogram", self.glue.to_json())
            .with("learned_len_histogram", self.learned_len.to_json())
            .with("trail_depth_histogram", self.trail_depth.to_json());
        self.sink.emit(&Event::SolveEnd {
            record: record.clone(),
        });
        self.sink.flush();
        self.record = Some(record);
    }
}

// ---- the seam ------------------------------------------------------------

/// The instrumentation state a [`Solver`] carries.
#[derive(Default)]
pub(crate) struct Instruments {
    /// Opt-in recorder; `None` (the default) costs one branch per site.
    recorder: Option<Box<SolverTelemetry>>,
    /// The statistics as last published to the metrics registry.
    #[cfg(feature = "metrics")]
    published: (SolverStats, InprocessStats),
}

/// A phase entered by [`Solver::enter`]; hand it back to
/// [`Solver::leave`] to record it.
#[must_use = "a phase is recorded only when its scope is passed to `leave`"]
pub(crate) struct Scope {
    phase: Phase,
    /// Entry time and the recorder's nested-time mark; `None` without a
    /// recorder, so no clock is read.
    recorded: Option<(Instant, u64)>,
    #[cfg(feature = "trace")]
    _span: telemetry::trace::SpanGuard,
    /// The sampled metrics timer (`None` when disarmed or unsampled).
    #[cfg(feature = "metrics")]
    metered: Option<Instant>,
}

/// The `phase.*` counter pair metering `phase`, if the registry has one.
/// Minimization is metered as part of analysis, a restart not at all.
#[cfg(feature = "metrics")]
fn meters(phase: Phase) -> Option<(telemetry::metrics::Counter, telemetry::metrics::Counter)> {
    use telemetry::metrics::Counter;
    match phase {
        Phase::Propagate => Some((Counter::PropagateNanos, Counter::PropagateCalls)),
        Phase::Analyze => Some((Counter::AnalyzeNanos, Counter::AnalyzeCalls)),
        Phase::Reduce => Some((Counter::ReduceNanos, Counter::ReduceCalls)),
        Phase::Inprocess => Some((Counter::InprocessNanos, Counter::InprocessCalls)),
        _ => None,
    }
}

/// A span that exists only in traced builds (sub-steps that are not
/// [`Phase`]s). It ends when dropped.
pub(crate) struct TraceSpan {
    #[cfg(feature = "trace")]
    _guard: telemetry::trace::SpanGuard,
}

impl TraceSpan {
    /// Opens the span `name`.
    #[inline]
    pub(crate) fn open(name: &'static str) -> Self {
        #[cfg(not(feature = "trace"))]
        let _ = name;
        TraceSpan {
            #[cfg(feature = "trace")]
            _guard: telemetry::trace::span(name),
        }
    }
}

impl Solver {
    /// Installs a telemetry recorder (replacing any previous one). The
    /// recorder times the solver's phases, tracks glue / clause-length /
    /// trail-depth distributions, and emits structured events around each
    /// subsequent `solve` call.
    pub fn set_telemetry(&mut self, telemetry: SolverTelemetry) {
        self.instr.recorder = Some(Box::new(telemetry));
    }

    /// Removes and returns the installed telemetry recorder.
    pub fn take_telemetry(&mut self) -> Option<SolverTelemetry> {
        self.instr.recorder.take().map(|t| *t)
    }

    /// The installed telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&SolverTelemetry> {
        self.instr.recorder.as_deref()
    }

    /// Enters `phase`: reads the clock only when a recorder is installed
    /// (plus the trace span and sampled metrics timer in those builds).
    #[inline]
    pub(crate) fn enter(&self, phase: Phase) -> Scope {
        Scope {
            phase,
            recorded: self
                .instr
                .recorder
                .as_deref()
                .map(|t| (Instant::now(), t.recorded_ns)),
            #[cfg(feature = "trace")]
            _span: telemetry::trace::span(phase.name()),
            #[cfg(feature = "metrics")]
            metered: meters(phase).and_then(|_| telemetry::metrics::phase_timer()),
        }
    }

    /// Leaves the phase `scope` was entered with, recording its time
    /// (exclusive of nested phases) and, at restart and reduce
    /// boundaries, publishing the metrics counters and gauges.
    #[inline]
    pub(crate) fn leave(&mut self, scope: Scope) {
        #[cfg(feature = "metrics")]
        if let Some((nanos, calls)) = meters(scope.phase) {
            telemetry::metrics::phase_done(scope.metered, nanos, calls);
        }
        if let (Some((start, mark)), Some(t)) = (scope.recorded, self.instr.recorder.as_deref_mut())
        {
            t.add_phase(scope.phase, start.elapsed(), mark);
        }
        #[cfg(feature = "metrics")]
        if matches!(scope.phase, Phase::Restart | Phase::Reduce) {
            self.publish_metrics(true);
        }
    }

    /// The search learned a clause of `len` literals and this `glue` from
    /// a conflict at `trail_depth`.
    #[inline]
    pub(crate) fn on_learned(&mut self, glue: u32, len: usize, trail_depth: usize) {
        if let Some(t) = self.instr.recorder.as_deref_mut() {
            t.on_learned(glue, len, trail_depth, &self.stats, self.db.num_learned());
        }
    }

    /// A reduction deleted `deleted` of its `candidates`.
    pub(crate) fn on_reduced(&mut self, candidates: usize, deleted: usize) {
        if let Some(t) = self.instr.recorder.as_deref_mut() {
            t.sink.emit(&Event::Reduction {
                reduction_no: self.stats.reductions,
                candidates: candidates as u64,
                deleted: deleted as u64,
                learned_after: self.db.num_learned() as u64,
                conflicts: self.stats.conflicts,
            });
        }
    }

    /// Conflict analysis resolved on `cref`. In traced builds, the first
    /// conflict-side use of a clause imported from another worker is an
    /// `import-use` instant: paired with the preceding `clause-import`
    /// instant on the lane, it gives the import-to-use latency.
    #[inline]
    pub(crate) fn on_clause_use(&self, cref: ClauseRef) {
        #[cfg(feature = "trace")]
        if self.db.clause(cref).imported() {
            telemetry::trace::instant_with(
                "import-use",
                &[("glue", u64::from(self.db.clause(cref).glue()))],
            );
        }
        #[cfg(not(feature = "trace"))]
        let _ = cref;
    }

    /// A search starts: the recorder's `solve_start` event and clock.
    pub(crate) fn solve_started(&mut self) {
        let policy = self.policy_name();
        if let Some(t) = self.instr.recorder.as_deref_mut() {
            t.on_solve_start(
                policy,
                u64::from(self.num_vars),
                self.db.num_original() as u64,
            );
        }
    }

    /// A search ended with `result`: publishes the metrics counters and
    /// closes the recorder's [`RunRecord`].
    pub(crate) fn solve_finished(&mut self, result: &SolveResult) {
        #[cfg(feature = "metrics")]
        self.publish_metrics(false);
        if self.instr.recorder.is_none() {
            return;
        }
        let verdict = match result {
            SolveResult::Sat(_) => "SAT",
            SolveResult::Unsat => "UNSAT",
            SolveResult::Unknown => "UNKNOWN",
        };
        let policy = self.policy_name();
        let db = self.db_stats();
        if let Some(t) = self.instr.recorder.as_deref_mut() {
            t.on_solve_end(verdict, policy, &self.stats, &db);
        }
    }

    /// Publishes the growth of the statistics since the previous call to
    /// the metrics registry (nothing when disarmed) and, with `gauges`,
    /// refreshes the memory and live-learned gauges.
    #[cfg(feature = "metrics")]
    fn publish_metrics(&mut self, gauges: bool) {
        use telemetry::metrics::{self, Counter, Gauge};
        let now = (self.stats, self.inprocess_stats().unwrap_or_default());
        let (s0, p0) = std::mem::replace(&mut self.instr.published, now);
        let (s, p) = now;
        for (counter, after, before) in [
            (Counter::Propagations, s.propagations, s0.propagations),
            (Counter::Conflicts, s.conflicts, s0.conflicts),
            (Counter::Decisions, s.decisions, s0.decisions),
            (Counter::Restarts, s.restarts, s0.restarts),
            (Counter::Reductions, s.reductions, s0.reductions),
            (
                Counter::LearnedClauses,
                s.learned_clauses,
                s0.learned_clauses,
            ),
            (
                Counter::DeletedClauses,
                s.deleted_clauses,
                s0.deleted_clauses,
            ),
            (Counter::InprocessSubsumed, p.subsumed, p0.subsumed),
            (
                Counter::InprocessStrengthened,
                p.strengthened,
                p0.strengthened,
            ),
            (
                Counter::InprocessEliminated,
                p.eliminated_vars,
                p0.eliminated_vars,
            ),
        ] {
            metrics::add(counter, after.saturating_sub(before));
        }
        if gauges && metrics::armed() {
            metrics::set_gauge(Gauge::MemoryBytes, self.approx_memory_bytes() as f64);
            metrics::set_gauge(Gauge::LiveLearned, self.db.num_learned() as f64);
        }
    }
}

// ---- stable JSON forms for the solver's public statistics types --------

impl ToJson for SolverStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("decisions", Json::from(self.decisions))
            .with("propagations", Json::from(self.propagations))
            .with("conflicts", Json::from(self.conflicts))
            .with("restarts", Json::from(self.restarts))
            .with("reductions", Json::from(self.reductions))
            .with("learned_clauses", Json::from(self.learned_clauses))
            .with("deleted_clauses", Json::from(self.deleted_clauses))
            .with("minimized_lits", Json::from(self.minimized_lits))
            .with("glue_sum", Json::from(self.glue_sum))
    }
}

impl FromJson for SolverStats {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let field = |key: &str| -> Result<u64, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field(key))
        };
        Ok(SolverStats {
            decisions: field("decisions")?,
            propagations: field("propagations")?,
            conflicts: field("conflicts")?,
            restarts: field("restarts")?,
            reductions: field("reductions")?,
            learned_clauses: field("learned_clauses")?,
            deleted_clauses: field("deleted_clauses")?,
            minimized_lits: field("minimized_lits")?,
            glue_sum: field("glue_sum")?,
        })
    }
}

impl ToJson for DbStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("original_clauses", Json::from(self.original_clauses))
            .with("learned_clauses", Json::from(self.learned_clauses))
            .with("learned_literals", Json::from(self.learned_literals))
            .with("live_clauses", Json::from(self.live_clauses))
            .with(
                "glue_histogram",
                Json::from(self.glue_histogram.map(|c| c as u64).to_vec()),
            )
    }
}

impl FromJson for DbStats {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let field = |key: &str| -> Result<usize, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or(FromJsonError::field(key))
        };
        let hist_json = value
            .get("glue_histogram")
            .and_then(Json::as_array)
            .ok_or(FromJsonError::field("glue_histogram"))?;
        let mut glue_histogram = [0usize; 8];
        if hist_json.len() != glue_histogram.len() {
            return Err(FromJsonError::new("glue_histogram must have 8 buckets"));
        }
        for (slot, v) in glue_histogram.iter_mut().zip(hist_json) {
            *slot = v.as_u64().ok_or(FromJsonError::field("glue_histogram"))? as usize;
        }
        Ok(DbStats {
            original_clauses: field("original_clauses")?,
            learned_clauses: field("learned_clauses")?,
            learned_literals: field("learned_literals")?,
            live_clauses: field("live_clauses")?,
            glue_histogram,
        })
    }
}

impl ToJson for PolicyKind {
    /// Serializes as the policy's display name (`"default"`,
    /// `"prop-freq"`, `"prop-freq(α=…)"`, `"activity"`).
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

impl FromJson for PolicyKind {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let name = value
            .as_str()
            .ok_or(FromJsonError::new("policy must be a string"))?;
        match name {
            "default" => Ok(PolicyKind::Default),
            "prop-freq" => Ok(PolicyKind::PropFreq),
            "activity" => Ok(PolicyKind::Activity),
            other => {
                let alpha = other
                    .strip_prefix("prop-freq(α=")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .and_then(|a| a.parse::<f64>().ok())
                    .ok_or_else(|| FromJsonError::new(format!("unknown policy `{other}`")))?;
                Ok(PolicyKind::PropFreqAlpha(alpha))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_stats_roundtrip() {
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            reductions: 5,
            learned_clauses: 6,
            deleted_clauses: 7,
            minimized_lits: 8,
            glue_sum: 9,
        };
        assert_eq!(SolverStats::from_json(&stats.to_json()).unwrap(), stats);
        assert!(SolverStats::from_json(&Json::object()).is_err());
    }

    #[test]
    fn db_stats_roundtrip() {
        let db = DbStats {
            original_clauses: 100,
            learned_clauses: 42,
            learned_literals: 400,
            live_clauses: 142,
            glue_histogram: [0, 1, 2, 3, 4, 5, 6, 7],
        };
        assert_eq!(DbStats::from_json(&db.to_json()).unwrap(), db);
    }

    #[test]
    fn policy_kind_roundtrip() {
        for policy in [
            PolicyKind::Default,
            PolicyKind::PropFreq,
            PolicyKind::PropFreqAlpha(0.625),
            PolicyKind::Activity,
        ] {
            assert_eq!(PolicyKind::from_json(&policy.to_json()).unwrap(), policy);
        }
        assert!(PolicyKind::from_json(&Json::from("no-such-policy")).is_err());
    }
}
