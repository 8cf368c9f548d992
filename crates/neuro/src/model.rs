//! The NeuroSelect model: Hybrid Graph Transformer layers plus a
//! classification head (Sections 4.1, 4.3, 4.4).

use crate::matrix::sigmoid;
use crate::{
    Activation, BipartiteMpnn, GraphTensors, LinearAttention, Matrix, Mlp, NodeId, ParamStore,
    Session, Tape,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One Hybrid Graph Transformer layer (Equations 3–5): a stack of bipartite
/// MPNN layers followed by linear attention over the variable nodes only.
#[derive(Debug, Clone)]
pub struct HgtLayer {
    mpnn: Vec<BipartiteMpnn>,
    attention: Option<LinearAttention>,
}

impl HgtLayer {
    /// Creates a layer with `mpnn_layers` message-passing sweeps and,
    /// unless `use_attention` is false (the w/o-attention ablation of
    /// Table 2), a linear attention block.
    pub fn new(
        store: &mut ParamStore,
        dim: usize,
        mpnn_layers: usize,
        use_attention: bool,
        rng: &mut SmallRng,
    ) -> Self {
        HgtLayer {
            mpnn: (0..mpnn_layers)
                .map(|_| BipartiteMpnn::new(store, dim, rng))
                .collect(),
            attention: use_attention.then(|| LinearAttention::new(store, dim, rng)),
        }
    }

    /// Applies the layer to `(var, clause)` features (Equations 3–5).
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: NodeId,
        x_clause: NodeId,
    ) -> (NodeId, NodeId) {
        // Equation (3): the MPNN stack.
        let (mut hv, mut hc) = (x_var, x_clause);
        for layer in &self.mpnn {
            let (nv, nc) = layer.forward(tape, sess, store, g, hv, hc);
            hv = nv;
            hc = nc;
        }
        // Equation (4): attention over variable nodes only; Equation (5):
        // clause features pass through from the MPNN.
        if let Some(attn) = &self.attention {
            hv = attn.forward(tape, sess, store, hv);
        }
        (hv, hc)
    }

    /// Eager inference: the values of [`forward`](Self::forward), bit for
    /// bit. Takes the features by value so each is dropped as soon as the
    /// next one exists.
    pub fn infer(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: Matrix,
        x_clause: Matrix,
    ) -> (Matrix, Matrix) {
        let (mut hv, mut hc) = (x_var, x_clause);
        for layer in &self.mpnn {
            (hv, hc) = layer.infer(store, g, &hv, &hc);
        }
        if let Some(attn) = &self.attention {
            hv = attn.infer(store, &hv);
        }
        (hv, hc)
    }
}

/// Hyperparameters of [`NeuroSelectModel`]. Defaults follow Section 5.2:
/// two HGT layers, three MPNN sweeps per layer, hidden dimension 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuroSelectConfig {
    /// Hidden feature width.
    pub hidden_dim: usize,
    /// Number of HGT layers.
    pub hgt_layers: usize,
    /// MPNN sweeps inside each HGT layer.
    pub mpnn_per_hgt: usize,
    /// Whether HGT layers include the linear-attention block
    /// (`false` reproduces the "NeuroSelect w/o attention" ablation).
    pub use_attention: bool,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for NeuroSelectConfig {
    fn default() -> Self {
        NeuroSelectConfig {
            hidden_dim: 32,
            hgt_layers: 2,
            mpnn_per_hgt: 3,
            use_attention: true,
            seed: 1,
        }
    }
}

/// The NeuroSelect classifier: input projections, a stack of [`HgtLayer`]s,
/// mean readout over variable nodes (Equation 10), and an MLP head whose
/// scalar output is the *logit* of selecting the propagation-frequency
/// deletion policy (label 1).
///
/// # Examples
///
/// ```
/// use neuro::{GraphTensors, NeuroSelectConfig, NeuroSelectModel, ParamStore};
/// use sat_graph::BipartiteGraph;
///
/// let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// let tensors = GraphTensors::new(&BipartiteGraph::from_cnf(&f));
/// let mut store = ParamStore::new();
/// let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig::default());
/// let prob = model.predict(&store, &tensors);
/// assert!((0.0..=1.0).contains(&prob));
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NeuroSelectModel {
    config: NeuroSelectConfig,
    layers: Vec<HgtLayer>,
    size_embed: crate::Linear,
    head: Mlp,
}

impl NeuroSelectModel {
    /// Creates the model, registering all parameters in `store`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim < 3` (three channels carry the structural
    /// initial features).
    pub fn new(store: &mut ParamStore, config: NeuroSelectConfig) -> Self {
        assert!(config.hidden_dim >= 3, "hidden_dim must be at least 3");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let d = config.hidden_dim;
        let layers = (0..config.hgt_layers)
            .map(|_| {
                HgtLayer::new(
                    store,
                    d,
                    config.mpnn_per_hgt,
                    config.use_attention,
                    &mut rng,
                )
            })
            .collect();
        let size_embed = crate::Linear::new(store, 2, d, &mut rng);
        let head = Mlp::new(store, &[d, d, 1], Activation::Relu, &mut rng);
        NeuroSelectModel {
            config,
            layers,
            size_embed,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &NeuroSelectConfig {
        &self.config
    }

    /// The initial `(variable, clause)` features.
    ///
    /// They follow Section 4.2 — channel 0 is `1` for variable nodes and
    /// `0` for clause nodes — augmented with two structural channels
    /// (log-degree and positive-occurrence fraction). Equation (6)'s *mean*
    /// aggregation makes constant features degree-blind, so without this
    /// augmentation the network cannot see instance size at all; DESIGN.md
    /// §7 records the deviation. An empty node set gets one all-zero row.
    fn initial_features(&self, g: &GraphTensors) -> (Matrix, Matrix) {
        let d = self.config.hidden_dim;
        let mut hv = Matrix::zeros(g.num_vars.max(1), d);
        for (r, &(log_deg, pos_frac)) in g.var_structure.iter().enumerate() {
            hv.set(r, 0, 1.0);
            hv.set(r, 1, 0.25 * log_deg);
            hv.set(r, 2, pos_frac);
        }
        let mut hc = Matrix::zeros(g.num_clauses.max(1), d);
        for (r, &(log_len, pos_frac)) in g.clause_structure.iter().enumerate() {
            hc.set(r, 1, 0.25 * log_len);
            hc.set(r, 2, pos_frac);
        }
        (hv, hc)
    }

    /// The `1 × 2` global-size input of the readout's size embedding.
    fn size_stats(g: &GraphTensors) -> Matrix {
        Matrix::from_vec(
            1,
            2,
            vec![
                0.1 * (1.0 + g.num_vars as f32).ln(),
                0.1 * (1.0 + g.num_clauses as f32).ln(),
            ],
        )
    }

    /// Runs the forward pass on the tape, returning the scalar logit node.
    /// Training uses this; inference uses [`infer`](Self::infer).
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
    ) -> NodeId {
        let (hv_init, hc_init) = self.initial_features(g);
        let mut hv = tape.leaf(hv_init);
        let mut hc = tape.leaf(hc_init);
        for layer in &self.layers {
            let (nxt_v, nxt_c) = layer.forward(tape, sess, store, g, hv, hc);
            hv = nxt_v;
            hc = nxt_c;
        }
        // Equation (10): READOUT = mean over variable nodes, plus a learned
        // embedding of the instance's global size.
        let pooled = tape.mean_rows(hv);
        let stats = tape.leaf(Self::size_stats(g));
        let size_vec = self.size_embed.forward(tape, sess, store, stats);
        let combined = tape.add(pooled, size_vec);
        self.head.forward(tape, sess, store, combined)
    }

    /// Eager inference: the logit of [`forward`](Self::forward), bit for
    /// bit, without a tape. Each intermediate is dropped after its last
    /// use, so memory stays at a few feature matrices however deep the
    /// model is.
    pub fn infer(&self, store: &ParamStore, g: &GraphTensors) -> f32 {
        let (mut hv, mut hc) = self.initial_features(g);
        for layer in &self.layers {
            (hv, hc) = layer.infer(store, g, hv, hc);
        }
        // Equation (10), as in `forward`.
        let mut combined = hv.mean_rows();
        combined.add_assign(&self.size_embed.infer(store, &Self::size_stats(g)));
        self.head.infer(store, &combined).get(0, 0)
    }

    /// Inference: the probability that the propagation-frequency policy
    /// (label 1) is the better choice for this instance.
    pub fn predict(&self, store: &ParamStore, g: &GraphTensors) -> f32 {
        self.predict_timed(store, g).0
    }

    /// Like [`predict`](Self::predict), but also reports the wall-clock
    /// time of the forward pass — the quantity the paper folds into
    /// NeuroSelect-Kissat's runtime and the telemetry pipeline reports as
    /// the `gnn_forward` phase.
    pub fn predict_timed(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
    ) -> (f32, std::time::Duration) {
        let start = std::time::Instant::now();
        let logit = self.infer(store, g);
        (sigmoid(logit), start.elapsed())
    }

    /// One training step on a single labelled graph (batch size 1, as in
    /// Section 5.2): computes the BCE loss (Equation 11), backpropagates,
    /// applies the optimizer, and returns the loss value.
    pub fn train_step(
        &self,
        store: &mut ParamStore,
        adam: &mut crate::Adam,
        g: &GraphTensors,
        label: u8,
    ) -> f32 {
        let mut tape = Tape::new();
        let mut sess = Session::new(store);
        let logit = self.forward(&mut tape, &mut sess, store, g);
        let loss = tape.bce_with_logits(logit, label as f32);
        let grads = tape.backward(loss);
        adam.step(store, &tape, &sess, &grads);
        tape.value(loss).get(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_graph::BipartiteGraph;

    fn tensors(text: &str) -> GraphTensors {
        let f = cnf::parse_dimacs_str(text).unwrap();
        GraphTensors::new(&BipartiteGraph::from_cnf(&f))
    }

    fn tiny_config() -> NeuroSelectConfig {
        NeuroSelectConfig {
            hidden_dim: 8,
            hgt_layers: 1,
            mpnn_per_hgt: 2,
            use_attention: true,
            seed: 42,
        }
    }

    #[test]
    fn forward_produces_scalar_logit() {
        let g = tensors("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let logit = model.forward(&mut tape, &mut sess, &store, &g);
        assert_eq!(tape.value(logit).shape(), (1, 1));
    }

    #[test]
    fn predict_is_probability_and_deterministic() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let p1 = model.predict(&store, &g);
        let p2 = model.predict(&store, &g);
        assert_eq!(p1, p2);
        assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn predict_timed_matches_predict() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let (p, elapsed) = model.predict_timed(&store, &g);
        assert_eq!(p, model.predict(&store, &g));
        assert!(elapsed > std::time::Duration::ZERO);
    }

    #[test]
    fn training_reduces_loss_on_single_example() {
        let g = tensors("p cnf 5 4\n1 -2 0\n2 3 0\n-3 4 5 0\n-1 -5 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut adam = crate::Adam::new(0.01);
        let first = model.train_step(&mut store, &mut adam, &g, 1);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_step(&mut store, &mut adam, &g, 1);
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
        assert!(model.predict(&store, &g) > 0.5);
    }

    #[test]
    fn can_separate_two_structures() {
        // Overfit two structurally different graphs with opposite labels.
        let g0 = tensors("p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n3 4 0\n-3 4 0\n3 -4 0\n");
        let g1 = tensors("p cnf 4 2\n1 2 3 4 0\n-1 -2 -3 -4 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut adam = crate::Adam::new(0.02);
        for _ in 0..60 {
            model.train_step(&mut store, &mut adam, &g0, 0);
            model.train_step(&mut store, &mut adam, &g1, 1);
        }
        assert!(model.predict(&store, &g0) < 0.5);
        assert!(model.predict(&store, &g1) > 0.5);
    }

    #[test]
    fn ablation_without_attention_builds_and_runs() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let config = NeuroSelectConfig {
            use_attention: false,
            ..tiny_config()
        };
        let model = NeuroSelectModel::new(&mut store, config);
        let p = model.predict(&store, &g);
        assert!((0.0..=1.0).contains(&p));
    }

    /// Asserts that eager inference reproduces the tape forward pass bit
    /// for bit: the logit, and `predict` as the sigmoid of the tape logit.
    fn assert_infer_matches_tape(
        model: &NeuroSelectModel,
        store: &ParamStore,
        g: &GraphTensors,
        what: &str,
    ) {
        let mut tape = Tape::new();
        let mut sess = Session::new(store);
        let logit = model.forward(&mut tape, &mut sess, store, g);
        let z = tape.value(logit).get(0, 0);
        assert!(z.is_finite(), "{what}: logit {z}");
        assert_eq!(
            model.infer(store, g).to_bits(),
            z.to_bits(),
            "{what}: logit"
        );
        assert_eq!(
            model.predict(store, g).to_bits(),
            sigmoid(z).to_bits(),
            "{what}: probability"
        );
    }

    /// A random 3-SAT formula with `vars` variables and `clauses` clauses.
    fn random_3sat(vars: i32, clauses: usize, seed: u64) -> String {
        use rand::Rng;
        let mut rng = crate::init_rng(seed);
        let mut text = format!("p cnf {vars} {clauses}\n");
        for _ in 0..clauses {
            for _ in 0..3 {
                let v = rng.gen_range(1..=vars);
                let lit = if rng.gen_bool(0.5) { v } else { -v };
                text.push_str(&format!("{lit} "));
            }
            text.push_str("0\n");
        }
        text
    }

    /// Sets every attention block's keys to the negated queries, so that a
    /// single variable node drives `D = 1 − ‖q̃‖²` to (about) zero and the
    /// division takes the clamped branch.
    fn anti_align_attention(model: &NeuroSelectModel, store: &mut ParamStore) {
        for attn in model.layers.iter().filter_map(|l| l.attention.as_ref()) {
            let [qw, qb, kw, kb, _, _] = attn.param_ids();
            *store.value_mut(kw) = store.value(qw).map(|x| -x);
            *store.value_mut(kb) = store.value(qb).map(|x| -x);
        }
    }

    #[test]
    fn infer_is_bit_identical_to_the_tape_forward() {
        let configs = [
            ("paper", NeuroSelectConfig::default()),
            (
                "no-attention",
                NeuroSelectConfig {
                    use_attention: false,
                    ..NeuroSelectConfig::default()
                },
            ),
            (
                "dim3-no-hgt",
                NeuroSelectConfig {
                    hidden_dim: 3,
                    hgt_layers: 0,
                    ..NeuroSelectConfig::default()
                },
            ),
            ("tiny", tiny_config()),
        ];
        let graphs = [
            ("tiny", tensors("p cnf 3 2\n1 -2 0\n2 3 0\n")),
            ("tautology", tensors("p cnf 3 2\n1 -1 2 0\n-2 3 0\n")),
            ("3sat", tensors(&random_3sat(70, 300, 5))),
            ("no-clauses", tensors("p cnf 3 0\n")),
            ("empty", tensors("p cnf 0 0\n")),
            ("single-var", tensors("p cnf 1 2\n1 0\n-1 0\n")),
        ];
        let train = [
            tensors("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n"),
            tensors(&random_3sat(20, 85, 9)),
        ];
        for (name, config) in configs {
            let mut store = ParamStore::new();
            let model = NeuroSelectModel::new(&mut store, config);
            for (graph, g) in &graphs {
                assert_infer_matches_tape(&model, &store, g, &format!("{name}/seeded/{graph}"));
            }
            // A few optimizer steps move the zero-initialized biases.
            let mut adam = crate::Adam::new(0.01);
            for (i, g) in train.iter().cycle().take(4).enumerate() {
                model.train_step(&mut store, &mut adam, g, (i % 2) as u8);
            }
            let bias = store.value(model.size_embed.b).as_slice();
            assert!(bias.iter().any(|&b| b != 0.0), "{name}: biases still zero");
            for (graph, g) in &graphs {
                assert_infer_matches_tape(&model, &store, g, &format!("{name}/trained/{graph}"));
            }
            anti_align_attention(&model, &mut store);
            let (graph, g) = &graphs[5];
            assert_infer_matches_tape(&model, &store, g, &format!("{name}/anti-aligned/{graph}"));
        }
    }

    #[test]
    fn predict_handles_formulas_without_clauses_or_variables() {
        for text in ["p cnf 3 0\n", "p cnf 0 0\n"] {
            let g = tensors(text);
            let mut store = ParamStore::new();
            let model = NeuroSelectModel::new(&mut store, tiny_config());
            let p = model.predict(&store, &g);
            assert!((0.0..=1.0).contains(&p), "{text:?}: {p}");
            let loss = model.train_step(&mut store, &mut crate::Adam::new(0.01), &g, 1);
            assert!(loss.is_finite(), "{text:?}: loss {loss}");
        }
    }

    #[test]
    fn paper_default_dimensions() {
        let c = NeuroSelectConfig::default();
        assert_eq!(c.hidden_dim, 32);
        assert_eq!(c.hgt_layers, 2);
        assert_eq!(c.mpnn_per_hgt, 3);
        assert!(c.use_attention);
    }
}
