//! Pins the exact bits of a short training run for every model.
//!
//! The backward pass sums gradients in a fixed order; reordering any of
//! those sums (a different sparse transpose, a fused kernel) changes the
//! low bits of the loss and the parameters even when every gradient check
//! still passes. These values were captured before the sparse backward
//! stopped storing transposed operators, so they also pin that change.

use neuro::{
    Adam, BaselineConfig, GinModel, GraphTensors, LcgTensors, NeuroSatModel, NeuroSelectConfig,
    NeuroSelectModel, ParamStore,
};
use sat_graph::{BipartiteGraph, LiteralClauseGraph};

/// A deterministic random 3-SAT formula (xorshift, no external RNG).
fn random_3sat(vars: u32, clauses: usize, mut state: u64) -> String {
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut text = format!("p cnf {vars} {clauses}\n");
    for _ in 0..clauses {
        for _ in 0..3 {
            let r = next();
            let v = (r % u64::from(vars)) as i64 + 1;
            let lit = if r & (1 << 40) == 0 { v } else { -v };
            text.push_str(&format!("{lit} "));
        }
        text.push_str("0\n");
    }
    text
}

/// Formulas with random structure, a tautology, repeated literals, a unit
/// clause, long clauses and unused variables.
fn formulas() -> Vec<cnf::Cnf> {
    [
        random_3sat(40, 170, 0x9e37_79b9_7f4a_7c15),
        "p cnf 9 6\n1 -1 2 0\n-2 3 3 -4 0\n5 0\n-5 6 7 8 -9 1 0\n2 -3 0\n-6 -7 -8 0\n".to_string(),
        random_3sat(25, 100, 0x2545_f491_4f6c_dd1d),
    ]
    .iter()
    .map(|text| cnf::parse_dimacs_str(text).expect("test formula parses"))
    .collect()
}

/// FNV-1a over the bits of every parameter, in registration order.
fn param_hash(store: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, m) in store.iter() {
        for &x in m.as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

const STEPS: usize = 6;

/// Runs `STEPS` steps cycling through the formulas with alternating labels.
fn train<G>(
    store: &mut ParamStore,
    graphs: &[G],
    mut step: impl FnMut(&mut ParamStore, &mut Adam, &G, u8) -> f32,
) -> (Vec<u32>, u64) {
    let mut adam = Adam::new(1e-2);
    let losses = (0..STEPS)
        .map(|i| step(store, &mut adam, &graphs[i % graphs.len()], (i % 2) as u8).to_bits())
        .collect();
    (losses, param_hash(store))
}

fn vcg_tensors() -> Vec<GraphTensors> {
    formulas()
        .iter()
        .map(|f| GraphTensors::new(&BipartiteGraph::from_cnf(f)))
        .collect()
}

fn baseline_config() -> BaselineConfig {
    BaselineConfig {
        hidden_dim: 16,
        rounds: 3,
        seed: 5,
    }
}

#[test]
fn neuroselect_training_bits_are_pinned() {
    let mut store = ParamStore::new();
    let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig::default());
    let got = train(&mut store, &vcg_tensors(), |s, a, g, y| {
        model.train_step(s, a, g, y)
    });
    let losses = vec![
        0x3f3389b2, 0x3f94227d, 0x3f314e21, 0x3f68253a, 0x3f32b35a, 0x3f534490,
    ];
    assert_eq!(got, (losses, 0xb4b4_f77f_c7aa_10cc));
}

#[test]
fn gin_training_bits_are_pinned() {
    let mut store = ParamStore::new();
    // One round: deeper unnormalized sums saturate the logit on these
    // formulas, and a saturated step pins nothing.
    let config = BaselineConfig {
        rounds: 1,
        ..baseline_config()
    };
    let model = GinModel::new(&mut store, config);
    let got = train(&mut store, &vcg_tensors(), |s, a, g, y| {
        model.train_step(s, a, g, y)
    });
    let losses = vec![
        0x413659c5, 0x3fbd3b3d, 0x3bd1c78f, 0x40f63f99, 0x3ede9e3f, 0x3f97fc01,
    ];
    assert_eq!(got, (losses, 0xa502_d65d_a7a4_d50f));
}

#[test]
fn neurosat_training_bits_are_pinned() {
    let graphs: Vec<LcgTensors> = formulas()
        .iter()
        .map(|f| LcgTensors::new(&LiteralClauseGraph::from_cnf(f)))
        .collect();
    let mut store = ParamStore::new();
    let model = NeuroSatModel::new(&mut store, baseline_config());
    let got = train(&mut store, &graphs, |s, a, g, y| {
        model.train_step(s, a, g, y)
    });
    let losses = vec![
        0x3f1909ba, 0x3f89120a, 0x3efa3783, 0x3f769b76, 0x3f122c02, 0x3f56e9ac,
    ];
    assert_eq!(got, (losses, 0xc302_a8a9_e5f7_4b80));
}
