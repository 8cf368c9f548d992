//! Bipartite message passing (Equations 6–7) and graph tensor caching.

use crate::{Linear, Matrix, NodeId, ParamStore, Session, Tape};
use rand::rngs::SmallRng;
use sat_graph::{BipartiteGraph, CsrMatrix, LiteralClauseGraph};
use std::borrow::Cow;
use std::rc::Rc;

/// `m` resized to `rows × cols`. Only an empty operator (no clauses or no
/// variables, hence no entries) ever needs it.
fn padded(m: &CsrMatrix, rows: usize, cols: usize) -> Cow<'_, CsrMatrix> {
    if (m.rows(), m.cols()) == (rows, cols) {
        Cow::Borrowed(m)
    } else {
        assert_eq!(m.nnz(), 0, "only an empty operator can be padded");
        Cow::Owned(CsrMatrix::from_triplets(rows, cols, &[]))
    }
}

/// Cached sparse operators for one bipartite variable–clause graph, shared
/// across layers and passes.
///
/// Only forward operators are stored: the tape's backward pass multiplies
/// by their transposes with [`CsrMatrix::matmul_dense_t`].
///
/// The models give an empty node set (a formula with no clauses or no
/// variables) one all-zero feature row, so every operator counts at least
/// one row and one column on each side to match.
#[derive(Debug, Clone)]
pub struct GraphTensors {
    /// Number of variable nodes.
    pub num_vars: usize,
    /// Number of clause nodes.
    pub num_clauses: usize,
    /// Mean-normalized signed aggregation into clause nodes (`C × V`).
    pub to_clause: Rc<CsrMatrix>,
    /// Mean-normalized signed aggregation into variable nodes (`V × C`).
    pub to_var: Rc<CsrMatrix>,
    /// Unnormalized |weight| aggregation into clause nodes (GIN baseline).
    pub sum_to_clause: Rc<CsrMatrix>,
    /// Unnormalized |weight| aggregation into variable nodes (GIN baseline).
    pub sum_to_var: Rc<CsrMatrix>,
    /// Per-variable `(log-degree, positive-occurrence fraction)`.
    pub var_structure: Vec<(f32, f32)>,
    /// Per-clause `(log-length, positive-literal fraction)`.
    pub clause_structure: Vec<(f32, f32)>,
}

impl GraphTensors {
    /// Precomputes the aggregation operators for a graph.
    pub fn new(graph: &BipartiteGraph) -> Self {
        let (nv, nc) = (graph.num_vars.max(1), graph.num_clauses.max(1));
        let clause_to_var = padded(&graph.clause_to_var, nc, nv);
        let var_to_clause = padded(&graph.var_to_clause, nv, nc);
        let structure = |m: &CsrMatrix| -> Vec<(f32, f32)> {
            (0..m.rows())
                .map(|r| {
                    let row = m.row(r);
                    let deg = row.len() as f32;
                    let pos = row.iter().filter(|&&(_, w)| w > 0.0).count() as f32;
                    ((1.0 + deg).ln(), if deg > 0.0 { pos / deg } else { 0.5 })
                })
                .collect()
        };
        GraphTensors {
            var_structure: structure(&graph.var_to_clause),
            clause_structure: structure(&graph.clause_to_var),
            num_vars: graph.num_vars,
            num_clauses: graph.num_clauses,
            to_clause: Rc::new(clause_to_var.row_normalized()),
            to_var: Rc::new(var_to_clause.row_normalized()),
            sum_to_clause: Rc::new(clause_to_var.map_weights(f32::abs)),
            sum_to_var: Rc::new(var_to_clause.map_weights(f32::abs)),
        }
    }
}

/// One bipartite message-passing layer implementing Equations (6) and (7):
/// clauses aggregate from variables, then variables aggregate from the
/// updated clauses.
///
/// Per the paper, the message `MLP` is a single linear layer; the update is
/// `h' = σ(W₂(m + W₃ h))` with σ = ReLU.
#[derive(Debug, Clone)]
pub struct BipartiteMpnn {
    msg_from_var: Linear,
    self_clause: Linear,
    out_clause: Linear,
    msg_from_clause: Linear,
    self_var: Linear,
    out_var: Linear,
}

impl BipartiteMpnn {
    /// Creates a layer with hidden width `dim` on both node types.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut SmallRng) -> Self {
        BipartiteMpnn {
            msg_from_var: Linear::new(store, dim, dim, rng),
            self_clause: Linear::new(store, dim, dim, rng),
            out_clause: Linear::new(store, dim, dim, rng),
            msg_from_clause: Linear::new(store, dim, dim, rng),
            self_var: Linear::new(store, dim, dim, rng),
            out_var: Linear::new(store, dim, dim, rng),
        }
    }

    /// Applies the layer to `(var_features, clause_features)`, returning the
    /// updated pair.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: NodeId,
        x_clause: NodeId,
    ) -> (NodeId, NodeId) {
        // Equation (6) for clauses: m_c = mean_{v ∈ c} w_vc · W(h_v)
        let hv_msg = self.msg_from_var.forward(tape, sess, store, x_var);
        let m_c = tape.spmm(Rc::clone(&g.to_clause), hv_msg);
        // Equation (7): h_c' = σ(W(m_c + W(h_c)))
        let hc_self = self.self_clause.forward(tape, sess, store, x_clause);
        let hc_sum = tape.add(m_c, hc_self);
        let hc_out = self.out_clause.forward(tape, sess, store, hc_sum);
        let h_clause = tape.relu(hc_out);

        // The symmetric update for variables, using fresh clause features.
        let hc_msg = self.msg_from_clause.forward(tape, sess, store, h_clause);
        let m_v = tape.spmm(Rc::clone(&g.to_var), hc_msg);
        let hv_self = self.self_var.forward(tape, sess, store, x_var);
        let hv_sum = tape.add(m_v, hv_self);
        let hv_out = self.out_var.forward(tape, sess, store, hv_sum);
        let h_var = tape.relu(hv_out);

        (h_var, h_clause)
    }

    /// Eager inference: the values of [`forward`](Self::forward), bit for
    /// bit, dropping each intermediate after its last use.
    pub fn infer(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: &Matrix,
        x_clause: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut m_c = Matrix::spmm(&g.to_clause, &self.msg_from_var.infer(store, x_var));
        m_c.add_assign(&self.self_clause.infer(store, x_clause));
        let mut h_clause = self.out_clause.infer(store, &m_c);
        drop(m_c);
        h_clause.relu_in_place();

        let mut m_v = Matrix::spmm(&g.to_var, &self.msg_from_clause.infer(store, &h_clause));
        m_v.add_assign(&self.self_var.infer(store, x_var));
        let mut h_var = self.out_var.infer(store, &m_v);
        drop(m_v);
        h_var.relu_in_place();

        (h_var, h_clause)
    }
}

/// Cached operators for the NeuroSAT-style literal–clause graph.
#[derive(Debug, Clone)]
pub struct LcgTensors {
    /// Number of variables (`2×` literals).
    pub num_vars: usize,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Aggregation into clauses (`C × 2V`, mean-normalized).
    pub to_clause: Rc<CsrMatrix>,
    /// Aggregation into literals (`2V × C`, mean-normalized).
    pub to_lit: Rc<CsrMatrix>,
    /// The literal-flip permutation (`2V × 2V`), its own transpose.
    pub flip: Rc<CsrMatrix>,
}

impl LcgTensors {
    /// Precomputes the aggregation operators for a literal–clause graph.
    pub fn new(graph: &LiteralClauseGraph) -> Self {
        let n = 2 * graph.num_vars;
        let flip_triplets: Vec<(u32, u32, f32)> = (0..n as u32).map(|i| (i, i ^ 1, 1.0)).collect();
        let flip = Rc::new(CsrMatrix::from_triplets(n, n, &flip_triplets));
        LcgTensors {
            num_vars: graph.num_vars,
            num_clauses: graph.num_clauses,
            to_clause: Rc::new(graph.clause_to_lit.row_normalized()),
            to_lit: Rc::new(graph.lit_to_clause.row_normalized()),
            flip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init_rng, Matrix};

    fn tiny_graph() -> BipartiteGraph {
        let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        BipartiteGraph::from_cnf(&f)
    }

    #[test]
    fn tensors_have_consistent_shapes() {
        let g = GraphTensors::new(&tiny_graph());
        assert_eq!(g.to_clause.rows(), 2);
        assert_eq!(g.to_clause.cols(), 3);
        assert_eq!(g.to_var.rows(), 3);
        assert_eq!(g.sum_to_var.rows(), 3);
    }

    #[test]
    fn signed_normalization() {
        let g = GraphTensors::new(&tiny_graph());
        // clause 0 = {x1, ¬x2}: mean over 2 vars with signs +, -
        assert_eq!(g.to_clause.row(0), &[(0, 0.5), (1, -0.5)][..]);
        // GIN aggregation is unsigned and unnormalized
        assert_eq!(g.sum_to_clause.row(0), &[(0, 1.0), (1, 1.0)][..]);
    }

    #[test]
    fn mpnn_forward_shapes_and_grads() {
        let graph = tiny_graph();
        let tensors = GraphTensors::new(&graph);
        let mut store = ParamStore::new();
        // Seed chosen so the final ReLU keeps at least one activation alive;
        // an all-negative draw would zero every gradient below.
        let mut rng = init_rng(7);
        let layer = BipartiteMpnn::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let xv = tape.leaf(Matrix::full(3, 4, 1.0));
        let xc = tape.leaf(Matrix::zeros(2, 4));
        let (hv, hc) = layer.forward(&mut tape, &mut sess, &store, &tensors, xv, xc);
        assert_eq!(tape.value(hv).shape(), (3, 4));
        assert_eq!(tape.value(hc).shape(), (2, 4));
        // gradients flow to every bound parameter
        let pooled = tape.mean_rows(hv);
        let loss = tape.sum_all(pooled);
        let grads = tape.backward(loss);
        assert_eq!(sess.bindings().len(), 12); // 6 linears × (w, b)
        let any_nonzero = sess
            .bindings()
            .iter()
            .any(|&(_, node)| grads.get(node, &tape).as_slice().iter().any(|&x| x != 0.0));
        assert!(any_nonzero, "some parameter must receive gradient");
    }

    #[test]
    fn lcg_flip_is_involution() {
        let f = cnf::parse_dimacs_str("p cnf 2 1\n1 -2 0\n").unwrap();
        let lcg = sat_graph::LiteralClauseGraph::from_cnf(&f);
        let t = LcgTensors::new(&lcg);
        // flip twice = identity on any feature matrix
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let once = t.flip.matmul_dense(x.as_slice(), 1);
        let twice = t.flip.matmul_dense(&once, 1);
        assert_eq!(twice, x.as_slice());
        assert_eq!(once, vec![2.0, 1.0, 4.0, 3.0]);
    }
}
