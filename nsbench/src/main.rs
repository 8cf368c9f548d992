//! `nsbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path nsbench/Cargo.toml -- \
//!     --workload deploy-large|deploy-hard|daemon-bmc --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics (a traced pass beside an
//! untraced one). Every verdict is checked after the timed region, and
//! the run fails on a wrong or unknown verdict, an error reply, or a
//! counter fingerprint that differs from an earlier run of the same
//! program on the same seed. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `nsbench/README.md` for the workloads and metrics.

mod calib;
mod check;
mod daemon;
mod deploy;
mod gen;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; `setup_s` is the median of their normalised process
/// CPU times.
const SETUPS: usize = 7;

/// Calibration kernel rounds between two set-ups.
const SETUP_KERNEL_ROUNDS: usize = 20_000;

/// End-to-end metrics (`--trace 0`), with units, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cnf.parse_ms", "ms"),
    ("cnf.parse_mb_per_s", "MB/s"),
    ("sat_graph.build_ms", "ms"),
    ("sat_graph.edges", "count"),
    ("neuro.tensors_ms", "ms"),
    ("neuro.forward_ms", "ms"),
    ("neuro.forward_ns_per_edge", "ns/edge"),
    ("core.prop_freq_picks", "count"),
    ("core.degradations", "count"),
    ("sat_solver.solve_ms", "ms"),
    ("sat_solver.propagate_ms", "ms"),
    ("sat_solver.analyze_ms", "ms"),
    ("sat_solver.minimize_ms", "ms"),
    ("sat_solver.reduce_ms", "ms"),
    ("sat_solver.restart_ms", "ms"),
    ("sat_solver.other_ms", "ms"),
    ("sat_solver.props_per_s", "1/s"),
    ("sat_solver.deleted_per_learned", "ratio"),
    ("sat_solver.propagations", "count"),
    ("sat_solver.conflicts", "count"),
    ("sat_solver.decisions", "count"),
    ("rsatd.wire_p50_ms", "ms"),
    ("rsatd.wire_total_ms", "ms"),
    ("rsatd.write_p50_ms", "ms"),
    ("rsatd.solve_total_ms", "ms"),
    ("rsatd.session_memory_max_mb", "MiB"),
    ("rsatd.queue_wait_p50_ms", "ms"),
    ("rsatd.queue_wait_total_ms", "ms"),
    ("rsatd.requests", "count"),
    ("rsatd.rejected", "count"),
    ("rsatd.solve_propagations", "count"),
    ("trace.pipeline_share", "ratio"),
    ("trace.solver_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name; printed in the order of [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither metric table (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not declared"
        );
        self.0.insert(name, value);
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input-generation seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (instances solved or solve requests sent).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// First few failure descriptions, for standard error.
    pub errors: Vec<String>,
    /// Exact counters that must repeat across runs of one seed.
    pub fingerprint: u64,
    /// Measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile (`p` in 0..=100) of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the call writes only it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has run so far. Time spent waiting for a
/// core (other tenants of a shared host) does not count, so figures taken
/// with it do not move with outside load the way wall time does.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has run so far (see
/// [`thread_cpu`]).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A stable 64-bit hash of anything hashable (fixed-key SipHash).
pub fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Runs `setup` [`SETUPS`] times, checks that every set-up produced the
/// same inputs, and returns the last one with the median set-up process
/// CPU time in seconds, normalised to the reference core speed (see
/// [`calib`]).
/// Earlier set-ups are dropped (and so torn down) as the next one lands.
pub fn timed_setups<T>(
    setup: impl Fn() -> Result<T, String>,
    digest: impl Fn(&T) -> u64,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<(T, u64)> = None;
    let mut speed = calib::Speed::new(calib::Kernel::new(SETUP_KERNEL_ROUNDS));
    for _ in 0..SETUPS {
        let started = process_cpu();
        let value = std::hint::black_box(setup()?);
        let cpu = (process_cpu() - started).as_secs_f64();
        times.push(cpu / speed.slowdown());
        let d = digest(&value);
        if let Some((_, prev)) = &last {
            if *prev != d {
                return Err("input generation is not deterministic in the seed".into());
            }
        }
        last = Some((value, d));
    }
    let (value, _) = last.expect("SETUPS > 0");
    Ok((value, median(&times)))
}

/// Checks the run's counter fingerprint against earlier runs of the same
/// build on the same workload and seed, recording it on the first run.
/// Fingerprints live beside the executable, keyed by a hash of its bytes,
/// so a rebuilt program starts a fresh record.
fn check_fingerprint(args: &Args, fingerprint: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe_hash = std::fs::read(&exe)
        .map(|bytes| hash_of(&bytes))
        .unwrap_or(0);
    let dir: PathBuf = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), |p| p.to_path_buf())
        .join("nsbench-fingerprints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}-{exe_hash:016x}", args.workload, args.seed));
    let line = format!("{fingerprint:016x}");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => Ok(()),
        Ok(prev) => Err(format!(
            "counter fingerprint {line} differs from an earlier run of this build on seed {} ({})",
            args.seed,
            prev.trim()
        )),
        Err(_) => std::fs::write(&path, &line).map_err(|e| format!("{}: {e}", path.display())),
    }
}

fn print_result(outcome: &Outcome, table: &[(&str, &str)]) {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            eprintln!("  {name:<32} {value:>16.4} {unit}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "deploy-large" | "deploy-hard" => deploy::run(&args),
        "daemon-bmc" => daemon::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_fingerprint(&args, outcome.fingerprint) {
        outcome.errors.push(e);
        outcome.failed += 1;
    }
    for e in &outcome.errors {
        eprintln!("nsbench: FAILED: {e}");
    }
    eprintln!(
        "nsbench: {} seed {} trace {}: fingerprint {:016x}",
        args.workload, args.seed, args.trace as u8, outcome.fingerprint
    );
    print_result(&outcome, if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}
