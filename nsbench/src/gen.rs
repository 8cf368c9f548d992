//! Seeded input generation for every workload.
//!
//! The program under test only ever sees what this module emits: DIMACS
//! bytes for the deploy workloads and wire-level clause lists for the
//! daemon workload. Everything here runs during set-up, never inside a
//! timed region.

use cnf::{Clause, Cnf, Lit, Var};
use logic_circuit::{
    random_circuit, Circuit, IncrementalEncoder, IncrementalUnroll, NodeId, RandomCircuitSpec,
    SequentialCircuit,
};

/// The satisfiability status a generator guarantees by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expect {
    /// Satisfiable by construction (planted model, enough colours, …).
    Sat,
    /// Unsatisfiable by construction (pigeonhole, Tseitin, counter bound).
    Unsat,
    /// No status is guaranteed; UNSAT answers are checked against a
    /// plain-solver reference solve.
    Open,
}

/// One deploy-workload input.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family and parameters, for diagnostics.
    pub name: String,
    /// Guaranteed status.
    pub expect: Expect,
    /// The DIMACS text handed to the parser.
    pub dimacs: String,
}

/// SplitMix64: a tiny, well-mixed generator for seed derivation and
/// shuffles, so every input is a pure function of the command-line seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so that different uses of one seed
    /// draw unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Renames variables, flips polarities and shuffles clauses under `rng`.
/// Satisfiability is preserved, so the generator's guarantee still holds;
/// the solver sees a different but equally hard formula for every seed.
fn scramble(formula: &Cnf, rng: &mut Rng) -> Cnf {
    let n = formula.num_vars();
    let mut perm: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut perm);
    let flip: Vec<bool> = (0..n).map(|_| rng.next() & 1 == 1).collect();
    let mut clauses: Vec<Clause> = formula
        .clauses()
        .iter()
        .map(|c| {
            let mut lits: Vec<Lit> = c
                .lits()
                .iter()
                .map(|l| {
                    let v = l.var().index() as usize;
                    Lit::new(Var::new(perm[v]), l.is_negated() ^ flip[v])
                })
                .collect();
            rng.shuffle(&mut lits);
            Clause::from_lits(lits)
        })
        .collect();
    rng.shuffle(&mut clauses);
    let mut out = Cnf::new(n);
    for c in clauses {
        out.add_clause(c);
    }
    out
}

fn instance(name: String, expect: Expect, formula: &Cnf, rng: &mut Rng) -> Instance {
    Instance {
        name,
        expect,
        dimacs: cnf::to_dimacs_string(&scramble(formula, rng)),
    }
}

fn spec(num_inputs: usize, num_gates: usize, num_outputs: usize) -> RandomCircuitSpec {
    RandomCircuitSpec {
        num_inputs,
        num_gates,
        num_outputs,
    }
}

/// `deploy-large`: 120 large, structurally easy instances (10³ to 2.6·10⁴ graph
/// nodes) on which parsing, graph building and inference dominate.
pub fn deploy_large(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for i in 0..30 {
        // planted 3-SAT far above the threshold: propagation finds it
        let n = [100u32, 150, 200][i % 3];
        let (f, _) = sat_gen::planted_ksat(n, n as usize * 14, 3, rng.next());
        out.push(instance(format!("planted3-{n}"), Expect::Sat, &f, &mut rng));
    }
    for i in 0..30 {
        // sparse graph, many colours: every greedy colouring works
        let v = [20u32, 30, 40][i % 3];
        let g = sat_gen::Graph::random(v, v as usize * 2, rng.next());
        let f = sat_gen::coloring_cnf(&g, 8);
        out.push(instance(format!("colour8-{v}"), Expect::Sat, &f, &mut rng));
    }
    for i in 0..30 {
        // fault miter: SAT when the fault is observable (almost always)
        let gates = [80usize, 120, 160][i % 3];
        let f = sat_gen::fault_miter_cnf(spec(16, gates, 6), rng.next());
        out.push(instance(
            format!("faultmiter-{gates}"),
            Expect::Open,
            &f,
            &mut rng,
        ));
    }
    for i in 0..26 {
        // gated counter: SAT iff steps > 2^bits - 1
        let bits = [3usize, 4][i % 2];
        let steps = (1usize << bits) - 4 + rng.below(16) as usize;
        let expect = if steps > (1 << bits) - 1 {
            Expect::Sat
        } else {
            Expect::Unsat
        };
        let f = sat_gen::bmc_counter_cnf(bits, steps);
        out.push(instance(
            format!("counter{bits}-{steps}"),
            expect,
            &f,
            &mut rng,
        ));
    }
    for _ in 0..4 {
        // the largest class, ~2.6·10⁴ nodes each: four of them, so that
        // the 99th percentile falls inside the class
        let g = sat_gen::Graph::random(300, 900, rng.next());
        let f = sat_gen::coloring_cnf(&g, 12);
        out.push(instance("colour12-300".into(), Expect::Sat, &f, &mut rng));
    }
    out
}

/// `deploy-hard`: 396 small, conflict-rich instances on which CDCL search
/// dominates and the pipeline is cheap. The random families are many, so
/// their total cost varies little from seed to seed. The 80 scrambled
/// PHP(7,6) formulas cost about the same as each other and sit in the
/// middle of the cost order, so the median latency falls among them and
/// not in the gap between the cheap Tseitin and the dearer 3-SAT
/// instances, where it would jump from seed to seed. The canonical
/// pigeonhole formulas PHP(8,7) and PHP(9,8) are not scrambled: they are
/// the slowest ~15% of the set, so the 90th and 99th latency percentiles
/// track search speed on fixed formulas instead of the tail of a random
/// draw.
pub fn deploy_hard(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    for i in 0..100 {
        let n = [130u32, 140][i % 2];
        let f = sat_gen::phase_transition_3sat(n, rng.next());
        out.push(instance(format!("3sat-pt-{n}"), Expect::Open, &f, &mut rng));
    }
    for i in 0..140 {
        let n = [12u32, 14][i % 2];
        let f = sat_gen::tseitin_expander_unsat(n, rng.next());
        out.push(instance(
            format!("tseitin-{n}"),
            Expect::Unsat,
            &f,
            &mut rng,
        ));
    }
    for _ in 0..80 {
        let f = sat_gen::pigeonhole(7, 6);
        out.push(instance("php-6".into(), Expect::Unsat, &f, &mut rng));
    }
    for _ in 0..20 {
        // 4-colouring near the threshold (average degree 8.8)
        let g = sat_gen::Graph::random(60, 264, rng.next());
        let f = sat_gen::coloring_cnf(&g, 4);
        out.push(instance("colour4-60".into(), Expect::Open, &f, &mut rng));
    }
    for holes in [7u32; 50].into_iter().chain([8; 6]) {
        out.push(Instance {
            name: format!("php-{holes}-canonical"),
            expect: Expect::Unsat,
            dimacs: cnf::to_dimacs_string(&sat_gen::pigeonhole(holes + 1, holes)),
        });
    }
    out
}

/// One bound of an incremental BMC sweep, as the client sends it.
#[derive(Debug, Clone, Hash)]
pub struct Bound {
    /// Clauses of the new time frame (DIMACS-signed literals).
    pub delta: Vec<Vec<i64>>,
    /// The "bad state in this frame" probe literal, solved as an assumption.
    pub probe: i64,
    /// The status the machine guarantees for this bound.
    pub expect: Expect,
}

/// One incremental BMC sweep: a session's worth of bounds.
#[derive(Debug, Clone, Hash)]
pub struct Sweep {
    /// Machine and parameters, for diagnostics.
    pub name: String,
    /// Variables the session must be opened with.
    pub vars: u32,
    /// The bounds, in order.
    pub bounds: Vec<Bound>,
}

/// The gated counter used across the repository's BMC examples: `bits`
/// state bits, one enable input, monitor = "all bits 1". The monitor is
/// reachable first at frame `2^bits` (bounds are 1-based).
fn gated_counter(bits: usize) -> SequentialCircuit {
    let mut c = Circuit::new();
    let state: Vec<NodeId> = (0..bits).map(|_| c.input()).collect();
    let enable = c.input();
    let mut carry = enable;
    let mut next = Vec::with_capacity(bits);
    for &s in &state {
        next.push(c.xor(s, carry));
        carry = c.and_gate(s, carry);
    }
    let all_ones = c.and_many(&state);
    next.push(all_ones);
    c.set_outputs(next);
    SequentialCircuit::new(c, bits)
}

fn sweep(
    name: String,
    seq: &SequentialCircuit,
    bounds: usize,
    expect: impl Fn(usize) -> Expect,
) -> Sweep {
    let initial = vec![false; seq.num_state];
    let mut unrolling = IncrementalUnroll::new(seq, &initial);
    let mut enc = IncrementalEncoder::new();
    let mut out = Vec::with_capacity(bounds);
    for k in 1..=bounds {
        let bad = unrolling.push_frame();
        let delta = enc.encode_new(unrolling.circuit());
        out.push(Bound {
            delta: delta
                .clauses()
                .iter()
                .map(|c| c.lits().iter().map(|l| i64::from(l.to_dimacs())).collect())
                .collect(),
            probe: i64::from(enc.lit(bad, true).to_dimacs()),
            expect: expect(k),
        });
    }
    Sweep {
        name,
        vars: enc.num_vars(),
        bounds: out,
    }
}

/// Random sequential machines in each `daemon-bmc` sweep list: many, and
/// of sizes fixed in advance (only their wiring is drawn from the seed),
/// so that their share of the work varies little from seed to seed.
const RANDOM_MACHINES: usize = 64;

/// `daemon-bmc`: the fixed sweep list of each of the `clients`
/// connections — gated counters of 4, 5 and 6 bits swept to saturation
/// (seed-independent machines, so they carry a steady share of the work
/// and the latency tail), then small random sequential machines swept to a
/// fixed depth.
pub fn daemon_bmc(seed: u64, clients: usize) -> Vec<Vec<Sweep>> {
    let mut rng = Rng::new(seed, 3);
    (0..clients)
        .map(|_| {
            let mut list = Vec::new();
            for bits in [4usize, 5, 6] {
                let first_sat = 1usize << bits;
                let expect = move |k: usize| {
                    if k < first_sat {
                        Expect::Unsat
                    } else {
                        Expect::Sat
                    }
                };
                let seq = gated_counter(bits);
                list.push(sweep(format!("counter{bits}"), &seq, first_sat, expect));
            }
            for i in 0..RANDOM_MACHINES {
                let state_bits = 5 + i % 2;
                let gates = 30 + i % 10;
                let transition =
                    random_circuit(spec(state_bits + 2, gates, state_bits + 1), rng.next());
                let seq = SequentialCircuit::new(transition, state_bits);
                let name = format!("random{state_bits}x{gates}");
                list.push(sweep(name, &seq, 12, |_| Expect::Open));
            }
            list
        })
        .collect()
}
