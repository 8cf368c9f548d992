//! Verdict checking, run outside every timed region.
//!
//! SAT answers are checked by evaluating the model against the formula
//! the program was given. UNSAT answers are checked against the status
//! the generator guarantees; where it guarantees none, against a plain
//! [`Solver`] reference solve of the same formula and assumptions.

use crate::gen::Expect;
use cnf::{Cnf, Lit};
use sat_solver::{Budget, SolveResult, Solver, SolverConfig};

/// A verdict as the program reported it.
#[derive(Debug, Clone, Copy)]
pub enum Answer<'a> {
    /// Satisfiable, with this model (`model[v]` is variable index `v`).
    Sat(&'a [bool]),
    /// Unsatisfiable (under the assumptions).
    Unsat,
    /// No verdict (budget, deadline or a degraded solve).
    Unknown,
}

impl<'a> Answer<'a> {
    /// The answer carried by a solver result.
    pub fn of(result: &'a SolveResult) -> Self {
        match result {
            SolveResult::Sat(model) => Answer::Sat(model),
            SolveResult::Unsat => Answer::Unsat,
            SolveResult::Unknown => Answer::Unknown,
        }
    }
}

/// Checks one answer for `formula` solved under `assumptions`.
///
/// # Errors
///
/// Describes the mismatch: an unknown verdict, a model that falsifies a
/// clause or an assumption, or a verdict contradicting the guaranteed
/// status or the reference solve.
pub fn check(
    formula: &Cnf,
    assumptions: &[Lit],
    expect: Expect,
    answer: Answer<'_>,
) -> Result<(), String> {
    match answer {
        Answer::Unknown => Err("unknown verdict".into()),
        Answer::Sat(_) if expect == Expect::Unsat => {
            Err("SAT reported for a formula that is UNSAT by construction".into())
        }
        Answer::Sat(model) => {
            cnf::verify_model(formula, model)
                .map_err(|clause| format!("model falsifies clause {clause}"))?;
            match assumptions
                .iter()
                .find(|l| model.get(l.var().index() as usize).copied() != Some(l.polarity()))
            {
                Some(l) => Err(format!("model falsifies assumption {}", l.to_dimacs())),
                None => Ok(()),
            }
        }
        Answer::Unsat => match expect {
            Expect::Unsat => Ok(()),
            Expect::Sat => Err("UNSAT reported for a formula that is SAT by construction".into()),
            Expect::Open => {
                let mut reference = Solver::new(formula, SolverConfig::default());
                match reference.solve_with_assumptions(assumptions, Budget::unlimited()) {
                    SolveResult::Unsat => Ok(()),
                    SolveResult::Sat(_) => {
                        Err("UNSAT reported, but the reference solve found a model".into())
                    }
                    SolveResult::Unknown => Err("reference solve gave no verdict".into()),
                }
            }
        },
    }
}

/// A DIMACS-signed model (as the daemon sends it) as a per-variable
/// assignment over `num_vars` variables; unlisted variables are false.
pub fn model_from_lits(num_vars: u32, lits: &[i64]) -> Vec<bool> {
    let mut model = vec![false; num_vars as usize];
    for &l in lits {
        let v = l.unsigned_abs() as usize;
        if (1..=model.len()).contains(&v) {
            model[v - 1] = l > 0;
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formula(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_dimacs(c);
        }
        f
    }

    #[test]
    fn accepts_a_correct_model() {
        let f = formula(&[&[1, 2], &[-1, 2]]);
        assert_eq!(
            check(&f, &[], Expect::Open, Answer::Sat(&[false, true])),
            Ok(())
        );
    }

    #[test]
    fn rejects_a_corrupted_model() {
        let f = formula(&[&[1, 2], &[-1, 2]]);
        let err = check(&f, &[], Expect::Sat, Answer::Sat(&[true, false])).unwrap_err();
        assert!(err.contains("falsifies clause"), "{err}");
    }

    #[test]
    fn rejects_a_model_violating_the_assumption() {
        let f = formula(&[&[1, 2]]);
        let assume = [Lit::from_dimacs(-2)];
        let err = check(&f, &assume, Expect::Open, Answer::Sat(&[true, true])).unwrap_err();
        assert!(err.contains("assumption -2"), "{err}");
    }

    #[test]
    fn rejects_flipped_verdicts_against_the_guarantee() {
        let sat = formula(&[&[1], &[2]]);
        assert!(check(&sat, &[], Expect::Sat, Answer::Unsat).is_err());
        let unsat = sat_gen::pigeonhole(3, 2);
        let model = vec![true; unsat.num_vars() as usize];
        assert!(check(&unsat, &[], Expect::Unsat, Answer::Sat(&model)).is_err());
        assert_eq!(check(&unsat, &[], Expect::Unsat, Answer::Unsat), Ok(()));
    }

    #[test]
    fn rejects_a_flipped_verdict_against_the_reference_solve() {
        let sat = formula(&[&[1, 2], &[-1, 2]]);
        let err = check(&sat, &[], Expect::Open, Answer::Unsat).unwrap_err();
        assert!(err.contains("reference"), "{err}");
        // Under the assumption -2 the same formula is UNSAT.
        let assume = [Lit::from_dimacs(-2)];
        assert_eq!(check(&sat, &assume, Expect::Open, Answer::Unsat), Ok(()));
    }

    #[test]
    fn rejects_unknown() {
        let f = formula(&[&[1]]);
        assert!(check(&f, &[], Expect::Open, Answer::Unknown).is_err());
    }

    #[test]
    fn decodes_wire_models() {
        assert_eq!(model_from_lits(3, &[-1, 2, 3]), vec![false, true, true]);
    }
}
