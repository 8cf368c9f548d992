//! Trajectory pins: the exact verdict, propagation, conflict and decision
//! counts of a few small fixed formulas under both deletion policies.
//!
//! A change that claims to speed the solver up without changing what it
//! does (clause storage, watch-list layout, value lookup) must leave every
//! figure here untouched. A reordered watch list, a different `reduce_db`
//! tie-break or a changed compaction order moves these counters even when
//! every verdict stays right, so the figures are exact, not ranges. A
//! change that moves the search on purpose re-pins them and says so.
//!
//! The formulas are generated here rather than taken from `sat-gen` so a
//! change to a generator cannot silently re-pin the solver.

use cnf::{Cnf, Lit};
use sat_solver::{Budget, PolicyKind, SolveResult, Solver, SolverConfig};

/// Deterministic xorshift64* stream.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// PHP(pigeons, holes): every pigeon sits in a hole, no hole holds two.
fn pigeonhole(pigeons: i32, holes: i32) -> Cnf {
    let x = |p: i32, h: i32| p * holes + h + 1;
    let mut f = Cnf::new((pigeons * holes) as u32);
    for p in 0..pigeons {
        f.add_dimacs(&(0..holes).map(|h| x(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                f.add_dimacs(&[-x(p, h), -x(q, h)]);
            }
        }
    }
    f
}

/// Tseitin parity formula on a `side`×`side` torus grid with one odd
/// vertex charge: unsatisfiable, and hard for resolution.
fn tseitin_torus(side: i32) -> Cnf {
    // Edge variables: right edge of (r, c) and down edge of (r, c).
    let right = |r: i32, c: i32| 2 * (r * side + c) + 1;
    let down = |r: i32, c: i32| 2 * (r * side + c) + 2;
    let mut f = Cnf::new((2 * side * side) as u32);
    for r in 0..side {
        for c in 0..side {
            let edges = [
                right(r, c),
                right(r, (c + side - 1) % side),
                down(r, c),
                down((r + side - 1) % side, c),
            ];
            let charge = u32::from(r == 0 && c == 0);
            // Forbid every assignment of the four edges with the wrong parity.
            for mask in 0u32..16 {
                if mask.count_ones() % 2 == charge {
                    continue;
                }
                let clause: Vec<i32> = edges
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| if mask >> i & 1 == 1 { -e } else { e })
                    .collect();
                f.add_dimacs(&clause);
            }
        }
    }
    f
}

/// Uniform random 3-SAT with distinct variables per clause.
fn random_3sat(vars: u64, clauses: usize, seed: u64) -> Cnf {
    let mut rng = XorShift::new(seed);
    let mut f = Cnf::new(vars as u32);
    for _ in 0..clauses {
        let mut c: Vec<i32> = Vec::new();
        while c.len() < 3 {
            let v = rng.below(vars) as i32 + 1;
            if c.iter().any(|l| l.abs() == v) {
                continue;
            }
            c.push(if rng.below(2) == 0 { v } else { -v });
        }
        f.add_dimacs(&c);
    }
    f
}

/// 4-colouring of a seeded random graph (one-hot colour per vertex).
fn four_colouring(vertices: u64, edges: usize, seed: u64) -> Cnf {
    const K: i32 = 4;
    let x = |v: i32, k: i32| v * K + k + 1;
    let mut rng = XorShift::new(seed);
    let mut f = Cnf::new((vertices as i32 * K) as u32);
    for v in 0..vertices as i32 {
        f.add_dimacs(&(0..K).map(|k| x(v, k)).collect::<Vec<_>>());
        for a in 0..K {
            for b in a + 1..K {
                f.add_dimacs(&[-x(v, a), -x(v, b)]);
            }
        }
    }
    let mut added = 0;
    while added < edges {
        let (u, v) = (rng.below(vertices) as i32, rng.below(vertices) as i32);
        if u == v {
            continue;
        }
        for k in 0..K {
            f.add_dimacs(&[-x(u, k), -x(v, k)]);
        }
        added += 1;
    }
    f
}

/// `(verdict, propagations, conflicts, decisions)` after one call.
type Point = (&'static str, u64, u64, u64);

fn verdict(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "SAT",
        SolveResult::Unsat => "UNSAT",
        SolveResult::Unknown => "UNKNOWN",
    }
}

fn point(s: &Solver, r: &SolveResult) -> Point {
    let st = s.stats();
    (verdict(r), st.propagations, st.conflicts, st.decisions)
}

fn run(f: &Cnf, policy: PolicyKind) -> Point {
    let mut s = Solver::new(f, SolverConfig::with_policy(policy));
    let r = s.solve();
    if let SolveResult::Sat(model) = &r {
        assert!(cnf::verify_model(f, model).is_ok(), "model must satisfy");
    }
    point(&s, &r)
}

fn pin(name: &str, f: &Cnf, expected: [Point; 2]) {
    let got = [run(f, PolicyKind::Default), run(f, PolicyKind::PropFreq)];
    assert_eq!(
        got, expected,
        "{name}: trajectory moved ([Default, PropFreq] as (verdict, props, conflicts, decisions))"
    );
}

#[test]
fn pigeonhole_7_6_trajectory() {
    pin(
        "PHP(7,6)",
        &pigeonhole(7, 6),
        [("UNSAT", 11675, 763, 914), ("UNSAT", 13682, 889, 1086)],
    );
}

#[test]
fn tseitin_torus_trajectory() {
    pin(
        "Tseitin 4x4 torus",
        &tseitin_torus(4),
        [
            ("UNSAT", 69743, 12601, 18617),
            ("UNSAT", 76535, 14328, 21060),
        ],
    );
}

#[test]
fn random_3sat_trajectory() {
    pin(
        "3-SAT n=130 m=553",
        &random_3sat(130, 553, 7),
        [("SAT", 33294, 879, 1057), ("SAT", 20235, 562, 702)],
    );
}

#[test]
fn four_colouring_trajectory() {
    pin(
        "4-colouring n=100 m=420",
        &four_colouring(100, 420, 5),
        [("SAT", 36925, 341, 520), ("SAT", 39332, 363, 542)],
    );
}

/// One `Solver` answers a sequence of assumption sets; learned clauses
/// and heuristic state carry over, so every call's counters depend on
/// the whole history.
fn assumption_sequence(policy: PolicyKind) -> Vec<(Point, usize)> {
    let f = random_3sat(110, 460, 23);
    let mut s = Solver::new(&f, SolverConfig::with_policy(policy));
    let sets: [&[i32]; 5] = [
        &[1, 2, 3],
        &[-1, -2, -3, -4, -5, -6],
        &[10, -20, 30, -40, 50, -60, 70],
        &[],
        &[5, 15, 25, 35, 45, 55, 65, -6, -16, -26],
    ];
    sets.iter()
        .map(|set| {
            let a: Vec<Lit> = set.iter().map(|&d| Lit::from_dimacs(d)).collect();
            let r = s.solve_with_assumptions(&a, Budget::unlimited());
            (point(&s, &r), s.unsat_core().len())
        })
        .collect()
}

#[test]
fn assumption_sequence_trajectory() {
    let got = [
        assumption_sequence(PolicyKind::Default),
        assumption_sequence(PolicyKind::PropFreq),
    ];
    let expected: [Vec<(Point, usize)>; 2] = [
        vec![
            (("SAT", 2675, 92, 138), 0),
            (("UNSAT", 2764, 95, 148), 4),
            (("UNSAT", 5190, 167, 250), 7),
            (("SAT", 12672, 387, 527), 7),
            (("UNSAT", 12924, 396, 546), 9),
        ],
        vec![
            (("SAT", 2675, 92, 138), 0),
            (("UNSAT", 2764, 95, 148), 4),
            (("UNSAT", 5190, 167, 250), 7),
            (("SAT", 12072, 375, 513), 7),
            (("UNSAT", 12557, 387, 534), 9),
        ],
    ];
    assert_eq!(got, expected, "assumption sequence trajectory moved");
}
