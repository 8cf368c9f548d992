//! `deploy-large` and `deploy-hard`: the paper's deployment path.
//!
//! Each instance goes from DIMACS bytes through `cnf::parse_dimacs_str`
//! and `NeuroSelectSolver::solve` (graph build, GNN inference, policy
//! pick, CDCL search) to a verdict, single-threaded. The end-to-end run
//! times each instance in the thread's CPU time, normalised to the
//! reference core speed by [`crate::calib`] samples taken between
//! instances, so neither a share of a core lost to other tenants of the
//! host nor a core slowed by them reads as a slower program. The traced
//! run calls the same public functions one by one and times each from
//! outside.

use crate::calib::{Kernel, Speed};
use crate::check::{check, Answer};
use crate::gen::{self, Instance};
use crate::{hash_of, median, ms, percentile, thread_cpu, timed_setups, Args, Outcome};
use neuro::{GraphTensors, NeuroSelectConfig};
use neuroselect::{Classifier, NeuroSelectClassifier, NeuroSelectSolver};
use sat_graph::BipartiteGraph;
use sat_solver::{
    Budget, PolicyKind, SolveResult, Solver, SolverConfig, SolverStats, SolverTelemetry,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::Phase;

/// Instances solved untimed before the window opens (caches, lazy
/// allocations, page faults of the first large formula).
const WARMUP: usize = 8;

/// Calibration kernel rounds between two instances (about 0.3 ms).
const KERNEL_ROUNDS: usize = 20_000;

/// The exact search trajectory of one instance: what must repeat across
/// passes and runs of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Trajectory {
    verdict: u8,
    prop_freq: bool,
    propagations: u64,
    conflicts: u64,
    decisions: u64,
}

impl Trajectory {
    fn of(result: &SolveResult, chosen: PolicyKind, stats: &SolverStats) -> Self {
        Trajectory {
            verdict: match result {
                SolveResult::Sat(_) => 1,
                SolveResult::Unsat => 2,
                SolveResult::Unknown => 0,
            },
            prop_freq: chosen == PolicyKind::PropFreq,
            propagations: stats.propagations,
            conflicts: stats.conflicts,
            decisions: stats.decisions,
        }
    }
}

struct Setup {
    instances: Vec<Instance>,
    solver: NeuroSelectSolver,
}

fn setup(args: &Args) -> Result<(Setup, f64), String> {
    timed_setups(
        || {
            Ok(Setup {
                instances: if args.workload == "deploy-large" {
                    gen::deploy_large(args.seed)
                } else {
                    gen::deploy_hard(args.seed)
                },
                // The repository ships no trained weights: the paper-config
                // model with its seeded initialization. Forward cost does not
                // depend on the weight values.
                solver: NeuroSelectSolver::new(NeuroSelectClassifier::new(
                    NeuroSelectConfig::default(),
                    1e-4,
                )),
            })
        },
        |s| hash_of(&s.instances.iter().map(|i| &i.dimacs).collect::<Vec<_>>()),
    )
}

fn parse(inst: &Instance) -> Result<cnf::Cnf, String> {
    cnf::parse_dimacs_str(black_box(&inst.dimacs)).map_err(|e| format!("{}: {e}", inst.name))
}

/// One untraced pass over every instance through the deployment path.
struct Pass {
    wall: Duration,
    /// Normalised thread CPU time of each instance, bytes in to verdict
    /// out.
    latency_ms: Vec<f64>,
    trajectory: Vec<Trajectory>,
    degradations: u64,
    results: Vec<SolveResult>,
}

fn deploy_pass(s: &Setup, speed: &mut Speed, keep_results: bool) -> Result<Pass, String> {
    let n = s.instances.len();
    let mut pass = Pass {
        wall: Duration::ZERO,
        latency_ms: Vec::with_capacity(n),
        trajectory: Vec::with_capacity(n),
        degradations: 0,
        results: Vec::new(),
    };
    let started = Instant::now();
    for inst in &s.instances {
        let t = thread_cpu();
        let formula = parse(inst)?;
        let out = s.solver.solve(&formula, Budget::unlimited());
        let cpu = ms(thread_cpu() - t);
        pass.latency_ms.push(cpu / speed.slowdown());
        pass.trajectory
            .push(Trajectory::of(&out.result, out.chosen, &out.stats));
        pass.degradations += out.degradations.len() as u64;
        if keep_results {
            pass.results.push(out.result);
        }
    }
    pass.wall = started.elapsed();
    Ok(pass)
}

fn warm_up(s: &Setup) -> Result<(), String> {
    for inst in s.instances.iter().take(WARMUP) {
        black_box(s.solver.solve(&parse(inst)?, Budget::unlimited()));
    }
    Ok(())
}

/// Checks the first pass's verdicts and that every later pass repeated
/// its trajectory exactly; each failed attempt counts once.
fn verify(s: &Setup, passes: &[Pass], outcome: &mut Outcome) -> Result<(), String> {
    let first = &passes[0];
    for (i, inst) in s.instances.iter().enumerate() {
        let formula = parse(inst)?;
        if let Err(e) = check(&formula, &[], inst.expect, Answer::of(&first.results[i])) {
            outcome.fail(format!("{} (#{i}): {e}", inst.name));
            outcome.failed += passes.len() as u64 - 1;
            continue;
        }
        for (k, pass) in passes.iter().enumerate().skip(1) {
            if pass.trajectory[i] != first.trajectory[i] {
                outcome.fail(format!(
                    "{} (#{i}): pass {k} trajectory {:?} differs from pass 0 {:?}",
                    inst.name, pass.trajectory[i], first.trajectory[i]
                ));
            }
        }
    }
    Ok(())
}

/// Runs two passes, then more while another fits in the window. The
/// first pass keeps its results for [`verify`].
fn run_passes(s: &Setup, window: Duration) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut speed = Speed::new(Kernel::new(KERNEL_ROUNDS));
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || started.elapsed() + passes[0].wall < window {
        passes.push(deploy_pass(s, &mut speed, passes.is_empty())?);
    }
    Ok(passes)
}

/// Entry point for both deploy workloads.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = setup(args)?;
    warm_up(&s)?;
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &s, &mut outcome)?;
        return Ok(outcome);
    }
    let passes = run_passes(&s, args.seconds)?;
    verify(&s, &passes, &mut outcome)?;
    outcome.attempted = (passes.len() * s.instances.len()) as u64;
    outcome.fingerprint = hash_of(&passes[0].trajectory);

    let n = s.instances.len() as f64;
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| n / (p.latency_ms.iter().sum::<f64>() / 1e3))
        .collect();
    // One latency sample per instance: its median over the passes, so a
    // burst of outside load in one pass does not move the percentiles.
    let latency: Vec<f64> = (0..s.instances.len())
        .map(|i| median(&passes.iter().map(|p| p.latency_ms[i]).collect::<Vec<_>>()))
        .collect();
    eprintln!(
        "nsbench: {} instances x {} passes; {} latency samples ({} beyond p90, {} beyond p99)",
        s.instances.len(),
        passes.len(),
        latency.len(),
        latency.len() / 10,
        latency.len() / 100
    );
    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s);
    m.set("throughput_per_s", median(&throughput));
    m.set("latency_p50_ms", percentile(&latency, 50.0));
    m.set("latency_p90_ms", percentile(&latency, 90.0));
    m.set("latency_p99_ms", percentile(&latency, 99.0));
    m.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(outcome)
}

/// Per-pass layer totals of the traced run.
#[derive(Debug, Default, Clone)]
struct Layers {
    wall: f64,
    parse: f64,
    bytes: f64,
    build: f64,
    edges: f64,
    tensors: f64,
    forward: f64,
    select: f64,
    prop_freq_picks: f64,
    solve: f64,
    phases: [f64; 6],
    propagations: f64,
    conflicts: f64,
    decisions: f64,
    learned: f64,
    deleted: f64,
}

const SOLVER_PHASES: [Phase; 6] = [
    Phase::Propagate,
    Phase::Analyze,
    Phase::Minimize,
    Phase::Reduce,
    Phase::Restart,
    Phase::Inprocess,
];

/// One traced pass: the deployment path's public functions called one by
/// one, each timed from outside, with the solver's own phase telemetry.
fn traced_pass(s: &Setup, reference: &[Trajectory]) -> Result<Layers, String> {
    let classifier = s.solver.classifier();
    let mut l = Layers::default();
    let pass_started = Instant::now();
    for (inst, want) in s.instances.iter().zip(reference) {
        let t = Instant::now();
        let formula = parse(inst)?;
        l.parse += ms(t.elapsed());
        l.bytes += inst.dimacs.len() as f64;

        let nodes = formula.num_vars() as usize + formula.num_clauses();
        if nodes > s.solver.node_cutoff {
            return Err(format!(
                "{}: {nodes} nodes exceed the inference cutoff",
                inst.name
            ));
        }
        let t = Instant::now();
        let graph = BipartiteGraph::from_cnf(&formula);
        l.build += ms(t.elapsed());
        l.edges += graph.num_edges() as f64;

        let t = Instant::now();
        let tensors = GraphTensors::new(&graph);
        drop(graph);
        l.tensors += ms(t.elapsed());

        let t = Instant::now();
        let probability = classifier.predict(&tensors);
        drop(tensors);
        l.forward += ms(t.elapsed());

        let t = Instant::now();
        let chosen = if black_box(probability) > s.solver.threshold {
            PolicyKind::PropFreq
        } else {
            PolicyKind::Default
        };
        l.select += ms(t.elapsed());
        l.prop_freq_picks += f64::from(u8::from(chosen == PolicyKind::PropFreq));

        let t = Instant::now();
        let mut solver = Solver::new(&formula, SolverConfig::with_policy(chosen));
        solver.set_telemetry(SolverTelemetry::new(inst.name.as_str()));
        let result = solver.solve_with_budget(Budget::unlimited());
        let stats = *solver.stats();
        let telemetry = solver.take_telemetry();
        drop(solver);
        drop(formula);
        l.solve += ms(t.elapsed());

        if let Some(tel) = telemetry {
            for (slot, phase) in l.phases.iter_mut().zip(SOLVER_PHASES) {
                *slot += ms(tel.phases().elapsed(phase));
            }
        }
        l.propagations += stats.propagations as f64;
        l.conflicts += stats.conflicts as f64;
        l.decisions += stats.decisions as f64;
        l.learned += stats.learned_clauses as f64;
        l.deleted += stats.deleted_clauses as f64;
        let got = Trajectory::of(&result, chosen, &stats);
        if got != *want {
            return Err(format!(
                "{}: traced pick/trajectory {got:?} differs from the deployment path's {want:?}",
                inst.name
            ));
        }
    }
    l.wall = ms(pass_started.elapsed());
    Ok(l)
}

/// The per-layer run: untraced passes for the first half of the window
/// (the reference picks and trajectories, and the untraced wall), traced
/// passes for the second half.
fn traced(args: &Args, s: &Setup, outcome: &mut Outcome) -> Result<(), String> {
    let untraced = run_passes(s, args.seconds / 2)?;
    verify(s, &untraced, outcome)?;
    let reference = &untraced[0].trajectory;
    let mut layers: Vec<Layers> = Vec::new();
    let started = Instant::now();
    while layers.len() < 2
        || started.elapsed() + Duration::from_secs_f64(layers[0].wall / 1e3) < args.seconds / 2
    {
        layers.push(traced_pass(s, reference)?);
    }
    outcome.attempted = ((untraced.len() + layers.len()) * s.instances.len()) as u64;
    outcome.fingerprint = hash_of(reference);

    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
    let wall = med(&|l| l.wall);
    let first = &layers[0];
    let phase = |i: usize| med(&|l: &Layers| l.phases[i]);
    let phases_sum: f64 = (0..SOLVER_PHASES.len()).map(phase).sum();
    let solve = med(&|l| l.solve);
    let pipeline = med(&|l| l.parse + l.build + l.tensors + l.forward + l.select);
    let covered = med(&|l| l.parse + l.build + l.tensors + l.forward + l.select + l.solve);

    let m = &mut outcome.metrics;
    m.set("cnf.parse_ms", med(&|l| l.parse));
    m.set(
        "cnf.parse_mb_per_s",
        med(&|l| l.bytes / 1e6 / (l.parse / 1e3)),
    );
    m.set("sat_graph.build_ms", med(&|l| l.build));
    m.set("sat_graph.edges", first.edges);
    m.set("neuro.tensors_ms", med(&|l| l.tensors));
    m.set("neuro.forward_ms", med(&|l| l.forward));
    m.set(
        "neuro.forward_ns_per_edge",
        med(&|l| l.forward * 1e6 / l.edges),
    );
    m.set("core.prop_freq_picks", first.prop_freq_picks);
    m.set("core.degradations", untraced[0].degradations as f64);
    m.set("sat_solver.solve_ms", solve);
    m.set("sat_solver.propagate_ms", phase(0));
    m.set("sat_solver.analyze_ms", phase(1));
    m.set("sat_solver.minimize_ms", phase(2));
    m.set("sat_solver.reduce_ms", phase(3));
    m.set("sat_solver.restart_ms", phase(4));
    m.set("sat_solver.other_ms", (solve - phases_sum).max(0.0));
    m.set("sat_solver.props_per_s", first.propagations / (solve / 1e3));
    m.set(
        "sat_solver.deleted_per_learned",
        first.deleted / first.learned.max(1.0),
    );
    m.set("sat_solver.propagations", first.propagations);
    m.set("sat_solver.conflicts", first.conflicts);
    m.set("sat_solver.decisions", first.decisions);
    m.set("trace.pipeline_share", pipeline / wall);
    m.set("trace.solver_share", solve / wall);
    m.set("trace.coverage", covered / wall);
    m.set("trace.overhead_frac", wall / untraced_wall - 1.0);
    eprintln!(
        "nsbench: {} untraced + {} traced passes of {} instances",
        untraced.len(),
        layers.len(),
        s.instances.len()
    );
    Ok(())
}
