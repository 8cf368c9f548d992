//! Property tests for graph encodings and CSR sparse algebra.

use cnf::{Cnf, Lit};
use proptest::prelude::*;
use sat_graph::{BipartiteGraph, CsrMatrix, LiteralClauseGraph};

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    let lit = (1i32..=12).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = proptest::collection::vec(lit, 1..5);
    proptest::collection::vec(clause, 1..25).prop_map(|clauses| {
        let mut f = Cnf::new(12);
        for c in clauses {
            f.add_clause(c.iter().copied().map(Lit::from_dimacs).collect());
        }
        f
    })
}

fn arb_triplets(rows: usize, cols: usize) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
    proptest::collection::vec(
        (0..rows as u32, 0..cols as u32, -2.0f32..2.0),
        0..rows * cols,
    )
}

fn arb_csr(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix> {
    arb_triplets(rows, cols).prop_map(move |t| CsrMatrix::from_triplets(rows, cols, &t))
}

/// Reference CSR construction: one `Vec` per row, pushed in triplet order.
fn per_row_reference(rows: usize, triplets: &[(u32, u32, f32)]) -> Vec<Vec<(u32, f32)>> {
    let mut per_row = vec![Vec::new(); rows];
    for &(r, c, w) in triplets {
        per_row[r as usize].push((c, w));
    }
    per_row
}

/// Reference transpose: every entry as a swapped triplet, in row order.
fn triplet_transpose(m: &CsrMatrix) -> CsrMatrix {
    let triplets: Vec<(u32, u32, f32)> = (0..m.rows())
        .flat_map(|r| m.row(r).iter().map(move |&(c, w)| (c, r as u32, w)))
        .collect();
    CsrMatrix::from_triplets(m.cols(), m.rows(), &triplets)
}

/// Dense reference of a CSR matrix.
fn densify(m: &CsrMatrix) -> Vec<Vec<f32>> {
    let mut out = vec![vec![0.0; m.cols()]; m.rows()];
    for (r, row) in out.iter_mut().enumerate() {
        for &(c, w) in m.row(r) {
            row[c as usize] += w;
        }
    }
    out
}

proptest! {
    #[test]
    fn csr_matmul_matches_dense_reference(m in arb_csr(5, 4), x in proptest::collection::vec(-2.0f32..2.0, 4 * 3)) {
        let y = m.matmul_dense(&x, 3);
        let dense = densify(&m);
        for r in 0..5 {
            for c in 0..3 {
                let expected: f32 = (0..4).map(|k| dense[r][k] * x[k * 3 + c]).sum();
                prop_assert!((y[r * 3 + c] - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn from_triplets_matches_per_row_reference(t in arb_triplets(7, 5)) {
        let m = CsrMatrix::from_triplets(7, 5, &t);
        prop_assert_eq!((m.rows(), m.cols(), m.nnz()), (7, 5, t.len()));
        for (r, expected) in per_row_reference(7, &t).iter().enumerate() {
            prop_assert_eq!(m.row(r), expected.as_slice());
        }
    }

    #[test]
    fn transpose_matches_triplet_path(m in arb_csr(6, 8)) {
        prop_assert_eq!(m.transpose(), triplet_transpose(&m));
    }

    #[test]
    fn matmul_dense_t_is_bit_identical_to_transpose_then_matmul(
        m in arb_csr(6, 4),
        x in proptest::collection::vec(-2.0f32..2.0, 6 * 3)
    ) {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(m.matmul_dense_t(&x, 3)),
            bits(m.transpose().matmul_dense(&x, 3))
        );
    }

    #[test]
    fn csr_transpose_is_involution(m in arb_csr(6, 5)) {
        // double transpose preserves the dense content
        prop_assert_eq!(densify(&m.transpose().transpose()), densify(&m));
    }

    #[test]
    fn bipartite_edge_count_bounds(f in arb_cnf()) {
        let g = BipartiteGraph::from_cnf(&f);
        prop_assert!(g.num_edges() <= f.num_lits());
        prop_assert_eq!(g.num_nodes(), f.num_vars() as usize + f.num_clauses());
        // transposes agree
        prop_assert_eq!(densify(&g.var_to_clause.transpose()), densify(&g.clause_to_var));
    }

    #[test]
    fn bipartite_signs_match_polarity(f in arb_cnf()) {
        let g = BipartiteGraph::from_cnf(&f);
        for (j, clause) in f.clauses().iter().enumerate() {
            for &l in clause.lits() {
                let row = g.var_to_clause.row(l.var().index() as usize);
                let expected = if l.is_negated() { -1.0 } else { 1.0 };
                prop_assert!(
                    row.iter().any(|&(c, w)| c as usize == j && w == expected),
                    "missing edge for {l} in clause {j}"
                );
            }
        }
    }

    #[test]
    fn row_normalized_rows_have_unit_l1(m in arb_csr(6, 6)) {
        let n = m.row_normalized();
        for r in 0..6 {
            let raw = m.row(r);
            if raw.is_empty() {
                continue;
            }
            // every entry was divided by the row's entry count
            for (a, b) in raw.iter().zip(n.row(r)) {
                prop_assert!((b.1 * raw.len() as f32 - a.1).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn literal_graph_has_twice_the_literal_nodes(f in arb_cnf()) {
        let g = LiteralClauseGraph::from_cnf(&f);
        prop_assert_eq!(g.num_nodes(), 2 * f.num_vars() as usize + f.num_clauses());
        // every literal edge references a valid clause
        for code in 0..2 * f.num_vars() as usize {
            for &(c, w) in g.lit_to_clause.row(code) {
                prop_assert!((c as usize) < f.num_clauses());
                prop_assert_eq!(w, 1.0);
            }
        }
    }
}
