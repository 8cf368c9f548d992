//! `daemon-bmc`: incremental BMC sweeps against an in-process `rsatd`.
//!
//! The daemon (`DaemonConfig::default()`, 2 workers) is served over a
//! unix socket by `rsatd::serve_unix`. A closed loop of [`CLIENTS`]
//! `rsatd::Client` connection runs its fixed sweep list: per bound
//! `add_clauses` of the frame delta, `solve` under the probe assumption,
//! and `model` on SAT. Every session is closed after its sweep, and the
//! list repeats until the window closes.
//!
//! The end-to-end figures are taken in process CPU time, with the whole
//! process pinned to one core. With one request in flight, the process CPU
//! time spent across a solve round trip is the CPU the client, the
//! connection thread and the worker spent on it; time spent waiting for a
//! core held by another tenant of the host does not count. Each bound's
//! CPU times are normalised to the reference core speed by
//! [`crate::calib`] samples the client takes between bounds, on the same
//! core.

use crate::calib::{Kernel, Speed};
use crate::check::{check, model_from_lits, Answer};
use crate::gen::{self, Sweep};
use crate::{hash_of, median, ms, percentile, process_cpu, timed_setups, Args, Outcome};
use cnf::{Cnf, Lit};
use rsatd::{Client, ClientError, Daemon, DaemonConfig};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::json::{FromJson, Json};
use telemetry::{Event, Phase};

/// Closed-loop client connections (a BMC caller waits for each verdict).
/// One, so that a round trip's process CPU time is its own.
const CLIENTS: usize = 1;

/// The run's normalised process CPU time is cut into this many equal
/// slices; the end-to-end metrics are medians over slices.
const SLICES: usize = 10;

/// Calibration kernel rounds between two bounds (about 30 µs).
const KERNEL_ROUNDS: usize = 2_000;

/// Passes over the sweep list after which `peak_rss_mb` is read. Closed
/// sessions stay in the daemon's session list, so its memory grows with
/// the sessions served; reading it at a fixed count keeps the figure a
/// function of the work done, not of how much of it fit in the window.
const RSS_ROUNDS: u64 = 20;

/// Scratch directory for sockets and traced-run records, relative to the
/// working directory so socket paths stay short.
const RUN_DIR: &str = ".nsbench-run";

type WireClient = Client<BufReader<UnixStream>, UnixStream>;

/// A running daemon behind its unix socket.
struct Stack {
    daemon: Daemon,
    socket: PathBuf,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl Stack {
    fn start(cfg: DaemonConfig) -> Result<Stack, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let socket = PathBuf::from(RUN_DIR).join(format!(
            "rsatd-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let daemon = Daemon::start(cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (daemon, socket, stop) = (daemon.clone(), socket.clone(), Arc::clone(&stop));
            std::thread::spawn(move || rsatd::serve_unix(&daemon, &socket, stop))
        };
        // The listener binds on the server thread; wait for the file.
        let started = Instant::now();
        while !socket.exists() {
            if started.elapsed() > Duration::from_secs(10) || server.is_finished() {
                return Err(format!(
                    "{}: the daemon socket never appeared",
                    socket.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Stack {
            daemon,
            socket,
            stop,
            server: Some(server),
        })
    }

    fn connect(&self) -> Result<WireClient, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("{}: {e}", self.socket.display()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client::new(BufReader::new(reader), stream))
    }

    /// Stops accepting, drains the daemon and joins the server thread.
    /// Client connections must be dropped first.
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.daemon.shutdown();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One bound's answer as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BoundAnswer {
    verdict: String,
    propagations: u64,
    conflicts: u64,
    model: Option<Vec<i64>>,
}

/// One solve round trip.
#[derive(Debug, Clone, Copy)]
struct SolveSample {
    request_id: u64,
    /// Wall time of the round trip.
    roundtrip_ms: f64,
    /// Normalised process CPU time spent during the round trip.
    cpu_ms: f64,
    /// Normalised process CPU time of the bounds run so far, this one
    /// included (`add_clauses`, `solve` and `model`).
    done_cpu_ms: f64,
}

/// Everything one client connection recorded.
#[derive(Debug, Default)]
struct ClientLog {
    solves: Vec<SolveSample>,
    writes_ms: Vec<f64>,
    busy_ms: f64,
    /// Answers of the first pass over each sweep (for verification).
    first: Vec<Vec<BoundAnswer>>,
    /// Sweeps whose later repetition differed from the first.
    mismatches: Vec<String>,
    errors: Vec<String>,
    session_memory_max: u64,
    /// Completed runs of each sweep of the list.
    runs: Vec<u64>,
    /// Peak RSS (MiB) after [`RSS_ROUNDS`] passes, or at the end of a
    /// run too short to reach them.
    peak_rss_mb: f64,
    /// Normalised process CPU time of every bound run so far.
    bounds_cpu_ms: f64,
}

fn run_sweep(
    client: &mut WireClient,
    sweep: &Sweep,
    log: &mut ClientLog,
    mut speed: Option<&mut Speed>,
    introspect: bool,
) -> Result<Vec<BoundAnswer>, ClientError> {
    let t = Instant::now();
    let session = client.open(sweep.vars, false, &[], &[])?;
    log.busy_ms += ms(t.elapsed());
    let mut answers = Vec::with_capacity(sweep.bounds.len());
    for bound in &sweep.bounds {
        let bound_cpu = process_cpu();
        let t = Instant::now();
        client.add_clauses(session, &bound.delta)?;
        let write = ms(t.elapsed());
        log.writes_ms.push(write);

        let t = Instant::now();
        let solve_cpu = process_cpu();
        let reply = client.solve(session, &[bound.probe], None)?;
        let solve_cpu = process_cpu() - solve_cpu;
        let roundtrip = ms(t.elapsed());

        let t = Instant::now();
        let model = if reply.verdict == "sat" {
            Some(client.model(session)?)
        } else {
            None
        };
        log.busy_ms += write + roundtrip + ms(t.elapsed());
        let bound_cpu = process_cpu() - bound_cpu;
        let slowdown = speed.as_deref_mut().map_or(1.0, Speed::slowdown);
        log.bounds_cpu_ms += ms(bound_cpu) / slowdown;
        log.solves.push(SolveSample {
            request_id: reply.request_id,
            roundtrip_ms: roundtrip,
            cpu_ms: ms(solve_cpu) / slowdown,
            done_cpu_ms: log.bounds_cpu_ms,
        });
        answers.push(BoundAnswer {
            verdict: reply.verdict,
            propagations: reply.propagations,
            conflicts: reply.conflicts,
            model,
        });
    }
    if introspect {
        let t = Instant::now();
        let snapshot = client.introspect()?;
        log.busy_ms += ms(t.elapsed());
        let mem = snapshot
            .get("session_list")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|s| s.get("id").and_then(Json::as_u64) == Some(session))
            .filter_map(|s| s.get("memory_bytes").and_then(Json::as_u64))
            .max()
            .unwrap_or(0);
        log.session_memory_max = log.session_memory_max.max(mem);
    }
    let t = Instant::now();
    client.close(session)?;
    log.busy_ms += ms(t.elapsed());
    Ok(answers)
}

/// One client's closed loop: its sweep list, repeated until `deadline`
/// (at least once through).
fn client_loop(
    mut client: WireClient,
    sweeps: &[Sweep],
    deadline: Instant,
    mode: Mode,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut speed = (mode == Mode::Timed).then(|| Speed::new(Kernel::new(KERNEL_ROUNDS)));
    let mut round = 0;
    'rounds: loop {
        for (i, sweep) in sweeps.iter().enumerate() {
            match run_sweep(
                &mut client,
                sweep,
                &mut log,
                speed.as_mut(),
                mode == Mode::Traced && round == 0,
            ) {
                Ok(answers) if round == 0 => log.first.push(answers),
                Ok(answers) => {
                    if answers != log.first[i] {
                        log.mismatches.push(format!(
                            "{} repetition {round} differs from the first",
                            sweep.name
                        ));
                    }
                }
                Err(e) => {
                    log.errors.push(format!("{}: {e}", sweep.name));
                    return log;
                }
            }
            if round == 0 {
                log.runs.push(0);
            }
            log.runs[i] += 1;
            if round > 0 && Instant::now() >= deadline {
                break 'rounds;
            }
        }
        round += 1;
        if round == RSS_ROUNDS {
            log.peak_rss_mb = crate::peak_rss_mb();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if log.peak_rss_mb == 0.0 {
        log.peak_rss_mb = crate::peak_rss_mb();
    }
    log
}

/// How [`drive`] runs the client loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The end-to-end run: calibration samples between bounds.
    Timed,
    /// The untraced half of the per-layer run (wall time only).
    Reference,
    /// The traced half of the per-layer run: a session introspect after
    /// each sweep of the first pass.
    Traced,
}

/// What [`drive`] measured besides the client logs.
struct Window {
    /// Wall time until the last client finished.
    wall_ms: f64,
    /// Process CPU time over the same span.
    cpu_ms: f64,
}

/// Runs every client's loop on its own thread; returns the logs and the
/// span until the last client finished.
fn drive(
    stack: &Stack,
    lists: &[Vec<Sweep>],
    window: Duration,
    mode: Mode,
) -> Result<(Vec<ClientLog>, Window), String> {
    let clients = lists
        .iter()
        .map(|_| stack.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let started_cpu = process_cpu();
    let deadline = started + window;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(lists)
            .map(|(client, list)| scope.spawn(move || client_loop(client, list, deadline, mode)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let span = Window {
        wall_ms: ms(started.elapsed()),
        cpu_ms: ms(process_cpu() - started_cpu),
    };
    Ok((logs, span))
}

/// Verifies each client's first pass over its sweeps. Later passes
/// repeated it exactly (or were reported as mismatches), so a wrong answer
/// counts once per run of its sweep.
fn verify(lists: &[Vec<Sweep>], logs: &[ClientLog], outcome: &mut Outcome) {
    for (list, log) in lists.iter().zip(logs) {
        for e in &log.errors {
            outcome.fail(e.clone());
        }
        for e in &log.mismatches {
            outcome.fail(e.clone());
        }
        for ((sweep, answers), runs) in list.iter().zip(&log.first).zip(&log.runs) {
            let mut formula = Cnf::new(sweep.vars);
            for (k, (bound, answer)) in sweep.bounds.iter().zip(answers).enumerate() {
                for clause in &bound.delta {
                    let lits: Vec<i32> = clause.iter().map(|&l| l as i32).collect();
                    formula.add_dimacs(&lits);
                }
                let model = answer
                    .model
                    .as_ref()
                    .map(|lits| model_from_lits(sweep.vars, lits));
                let reply = match (answer.verdict.as_str(), &model) {
                    ("sat", Some(m)) => Answer::Sat(m),
                    ("unsat", _) => Answer::Unsat,
                    _ => Answer::Unknown,
                };
                let probe = [Lit::from_dimacs(bound.probe as i32)];
                if let Err(e) = check(&formula, &probe, bound.expect, reply) {
                    outcome.fail(format!("{} bound {}: {e}", sweep.name, k + 1));
                    outcome.failed += runs - 1;
                }
            }
        }
    }
}

/// Exact counters of one pass over every client's sweep list.
fn fingerprint(logs: &[ClientLog]) -> (u64, u64, u64) {
    let answers: Vec<&Vec<Vec<BoundAnswer>>> = logs.iter().map(|l| &l.first).collect();
    let sum = |f: fn(&BoundAnswer) -> u64| -> u64 {
        logs.iter()
            .flat_map(|l| l.first.iter().flatten())
            .map(f)
            .sum()
    };
    (
        hash_of(&answers),
        sum(|a| a.propagations),
        sum(|a| a.conflicts),
    )
}

/// Every client's sweep list and the daemon serving them.
type Prepared = (Vec<Vec<Sweep>>, Stack);

fn setup(args: &Args) -> Result<(Prepared, f64), String> {
    timed_setups(
        || {
            let lists = gen::daemon_bmc(args.seed, CLIENTS);
            Ok((lists, Stack::start(DaemonConfig::default())?))
        },
        |(lists, _)| hash_of(lists),
    )
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns later (the
/// daemon's workers and connection threads, the clients), to the core it
/// is running on. Every hand-off between them is then a switch on one
/// core, whose CPU cost does not depend on whether the other cores are
/// idle or busy with another tenant's work.
fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: no arguments; returns the current CPU or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is beyond a 1024-bit mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid 128-byte `cpu_set_t`; pid 0 is this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}

/// Entry point for `daemon-bmc`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    pin_to_current_cpu()?;
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &mut outcome)?;
        return Ok(outcome);
    }
    let ((lists, mut stack), setup_s) = setup(args)?;
    let (logs, span) = drive(&stack, &lists, args.seconds, Mode::Timed)?;
    let rejected = stack.daemon.stats().rejected;
    stack.shutdown();
    let _ = std::fs::remove_dir(RUN_DIR);
    verify(&lists, &logs, &mut outcome);
    if rejected > 0 {
        outcome.fail(format!("{rejected} busy rejections"));
    }
    let samples: Vec<SolveSample> = logs.iter().flat_map(|l| l.solves.iter().copied()).collect();
    outcome.attempted = samples.len() as u64;
    outcome.fingerprint = fingerprint(&logs).0;
    // Slice the run's normalised bound CPU time by completion.
    let bounds_cpu_ms = logs.iter().map(|l| l.bounds_cpu_ms).fold(0.0, f64::max);
    let slice_ms = bounds_cpu_ms / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for s in &samples {
        let k = ((s.done_cpu_ms / slice_ms) as usize).min(SLICES - 1);
        slices[k].push(s.cpu_ms);
    }
    let per_slice =
        |f: &dyn Fn(&Vec<f64>) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let smallest = slices.iter().map(Vec::len).min().unwrap_or(0);
    eprintln!(
        "nsbench: {} client(s), {} sweeps, {} solve round trips in {SLICES} slices of {slice_ms:.0} \
         normalised CPU ms (>= {smallest} samples per slice, >= {} beyond p99); \
         {:.0} CPU ms in {:.0} ms wall",
        logs.len(),
        logs.iter().flat_map(|l| &l.runs).sum::<u64>(),
        samples.len(),
        smallest / 100,
        span.cpu_ms,
        span.wall_ms
    );
    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s);
    m.set(
        "throughput_per_s",
        per_slice(&|s| s.len() as f64 / (slice_ms / 1e3)),
    );
    m.set("latency_p50_ms", per_slice(&|s| percentile(s, 50.0)));
    m.set("latency_p90_ms", per_slice(&|s| percentile(s, 90.0)));
    m.set("latency_p99_ms", per_slice(&|s| percentile(s, 99.0)));
    m.set(
        "peak_rss_mb",
        logs.iter().map(|l| l.peak_rss_mb).fold(0.0, f64::max),
    );
    Ok(outcome)
}

/// Reads a JSONL event file written by the daemon, then deletes it.
fn read_events(path: &PathBuf) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = std::fs::remove_file(path);
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let json = Json::parse(l).map_err(|e| format!("{}: {e}", path.display()))?;
            Event::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// The per-layer run: an untraced daemon for the first half of the
/// window (the reference rate), then a daemon writing request and run
/// records, with a session introspect after each sweep of the first pass
/// (the daemon keeps closed sessions in its list, so introspecting on every
/// pass would grow with the run), for the second.
fn traced(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let lists = gen::daemon_bmc(args.seed, CLIENTS);
    let half = args.seconds / 2;
    let untraced_rate = {
        let mut stack = Stack::start(DaemonConfig::default())?;
        let (logs, span) = drive(&stack, &lists, half, Mode::Reference)?;
        stack.shutdown();
        verify(&lists, &logs, outcome);
        logs.iter().map(|l| l.solves.len()).sum::<usize>() as f64 / span.wall_ms
    };

    let pid = std::process::id();
    let requests_path = PathBuf::from(RUN_DIR).join(format!("requests-{pid}.jsonl"));
    let runs_path = PathBuf::from(RUN_DIR).join(format!("runs-{pid}.jsonl"));
    let cfg = DaemonConfig {
        request_records_path: Some(requests_path.clone()),
        records_path: Some(runs_path.clone()),
        ..DaemonConfig::default()
    };
    let mut stack = Stack::start(cfg)?;
    let (logs, span) = drive(&stack, &lists, half, Mode::Traced)?;
    let wall_ms = span.wall_ms;
    let rejected = stack.daemon.stats().rejected;
    stack.shutdown();
    verify(&lists, &logs, outcome);
    if rejected > 0 {
        outcome.fail(format!("{rejected} busy rejections"));
    }
    let (fp, solve_propagations, conflicts) = fingerprint(&logs);
    outcome.fingerprint = fp;

    let mut requests = std::collections::HashMap::new();
    for event in read_events(&requests_path)? {
        if let Event::RequestEnd { record } = event {
            requests.insert(record.request_id, record);
        }
    }
    let mut phases = [0.0f64; 6];
    let mut decisions = 0u64;
    let runs = read_events(&runs_path)?;
    for event in &runs {
        if let Event::SolveEnd { record } = event {
            for (slot, phase) in phases.iter_mut().zip([
                Phase::Propagate,
                Phase::Analyze,
                Phase::Minimize,
                Phase::Reduce,
                Phase::Restart,
                Phase::Inprocess,
            ]) {
                *slot += ms(record.phases.elapsed(phase));
            }
        }
    }

    let samples: Vec<SolveSample> = logs.iter().flat_map(|l| l.solves.iter().copied()).collect();
    let mut wire = Vec::with_capacity(samples.len());
    let mut queue = Vec::with_capacity(samples.len());
    let mut solve_total = 0.0;
    for s in &samples {
        let Some(r) = requests.get(&s.request_id) else {
            outcome.fail(format!("request {} has no request record", s.request_id));
            continue;
        };
        wire.push((s.roundtrip_ms - r.queue_wait_ms - r.solve_ms).max(0.0));
        queue.push(r.queue_wait_ms);
        solve_total += r.solve_ms;
    }
    // Decisions of the first pass, from the request records' stat deltas.
    let first_ids: Vec<u64> = logs
        .iter()
        .flat_map(|l| {
            let per_pass: usize = l.first.iter().map(Vec::len).sum();
            l.solves.iter().take(per_pass).map(|s| s.request_id)
        })
        .collect();
    for id in &first_ids {
        decisions += requests
            .get(id)
            .and_then(|r| r.stats.get("decisions"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }

    outcome.attempted = samples.len() as u64;
    let busy: f64 = logs.iter().map(|l| l.busy_ms).sum();
    let capacity = wall_ms * logs.len() as f64;
    // Per-run totals are scaled to one pass over every sweep list so they
    // do not depend on how many repetitions fit in the window.
    let per_pass = first_ids.len() as f64 / samples.len().max(1) as f64;
    let writes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.writes_ms.iter().copied())
        .collect();
    let phases_sum: f64 = phases.iter().sum();
    let m = &mut outcome.metrics;
    m.set("rsatd.wire_p50_ms", median(&wire));
    m.set("rsatd.wire_total_ms", wire.iter().sum::<f64>() * per_pass);
    m.set("rsatd.write_p50_ms", median(&writes));
    m.set("rsatd.solve_total_ms", solve_total * per_pass);
    m.set(
        "rsatd.session_memory_max_mb",
        logs.iter().map(|l| l.session_memory_max).max().unwrap_or(0) as f64 / (1 << 20) as f64,
    );
    m.set("rsatd.queue_wait_p50_ms", median(&queue));
    m.set(
        "rsatd.queue_wait_total_ms",
        queue.iter().sum::<f64>() * per_pass,
    );
    m.set("rsatd.requests", first_ids.len() as f64);
    m.set("rsatd.rejected", rejected as f64);
    m.set("rsatd.solve_propagations", solve_propagations as f64);
    m.set("sat_solver.solve_ms", solve_total * per_pass);
    m.set("sat_solver.propagate_ms", phases[0] * per_pass);
    m.set("sat_solver.analyze_ms", phases[1] * per_pass);
    m.set("sat_solver.minimize_ms", phases[2] * per_pass);
    m.set("sat_solver.reduce_ms", phases[3] * per_pass);
    m.set("sat_solver.restart_ms", phases[4] * per_pass);
    m.set(
        "sat_solver.other_ms",
        ((solve_total - phases_sum) * per_pass).max(0.0),
    );
    m.set(
        "sat_solver.props_per_s",
        solve_propagations as f64 / (solve_total * per_pass / 1e3),
    );
    m.set("sat_solver.propagations", solve_propagations as f64);
    m.set("sat_solver.conflicts", conflicts as f64);
    m.set("sat_solver.decisions", decisions as f64);
    m.set("trace.solver_share", solve_total / capacity);
    m.set("trace.coverage", busy / capacity);
    m.set(
        "trace.overhead_frac",
        untraced_rate / (samples.len() as f64 / wall_ms) - 1.0,
    );
    eprintln!(
        "nsbench: traced {} solves ({} per pass), {} run records; wire {:.1} ms, queue {:.1} ms, solve {:.1} ms per pass",
        samples.len(),
        first_ids.len(),
        runs.len(),
        wire.iter().sum::<f64>() * per_pass,
        queue.iter().sum::<f64>() * per_pass,
        solve_total * per_pass
    );
    let _ = std::fs::remove_dir(RUN_DIR);
    Ok(())
}
