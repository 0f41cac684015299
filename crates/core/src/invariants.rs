//! Constraint generation from the published data (Section 5).
//!
//! Three invariant families exist; Zero-invariants are structural (absent
//! terms), so this module materialises the QI- and SA-invariant equations:
//!
//! * **QI-invariant** (Eq. 4): `Σ_s P(q, s, b) = P(q, b)` — one per distinct
//!   `q` of each bucket.
//! * **SA-invariant** (Eq. 5): `Σ_q P(q, s, b) = P(s, b)` — one per distinct
//!   `s` of each bucket.
//!
//! Theorem 3 (conciseness) shows each bucket's `g + h` invariants contain
//! exactly one linear dependency (`ΣQI − ΣSA = 0`), so
//! [`data_invariants`] with `concise = true` drops one SA-invariant per
//! bucket, keeping a minimal complete system — fewer dual variables, same
//! optimum.

use pm_anonymize::published::{BucketView, PublishedTable};

use crate::constraint::{Constraint, ConstraintOrigin};
use crate::terms::TermIndex;

/// Generates the invariant equations of one bucket in **bucket-local,
/// count-space** form: coefficients index the bucket's own term range
/// (offset 0 = the bucket's first admissible term) and right-hand sides are
/// integer record counts — `qc` for a QI-invariant, `sc` for an
/// SA-invariant.
///
/// This is the epoch-shareable unit the [`crate::compiled::CompiledTable`]
/// artifact stores per bucket: nothing here depends on the total record
/// count `N` or on any other bucket, so a table delta leaves untouched
/// buckets' rows **bit-identical** — which is what lets a rebased session
/// reuse their solutions verbatim. (Exact integer counts matter:
/// `(qc / N) · N` re-scaled per epoch would drift in the low bits whenever
/// `N` changes.) The solver consumes counts directly; probabilities appear
/// only when an estimate is assembled (`÷ N`).
pub(crate) fn bucket_invariant_rows(bucket: &BucketView, b: usize, concise: bool) -> Vec<Constraint> {
    let h = bucket.distinct_sa();
    let mut out = Vec::with_capacity(bucket.distinct_qi() + h.saturating_sub(usize::from(concise)));
    for (qi, &(q, qc)) in bucket.qi_counts().iter().enumerate() {
        // QI-major local layout: the terms of symbol q are the contiguous
        // block [qi·h, (qi+1)·h).
        let coeffs: Vec<(usize, f64)> = (qi * h..(qi + 1) * h).map(|t| (t, 1.0)).collect();
        out.push(Constraint {
            coeffs,
            rhs: qc as f64,
            origin: ConstraintOrigin::QiInvariant { q, b },
        });
    }
    for (k, &(s, sc)) in bucket.sa_counts().iter().enumerate() {
        if concise && k == 0 {
            continue;
        }
        let coeffs: Vec<(usize, f64)> =
            (0..bucket.distinct_qi()).map(|qi| (qi * h + k, 1.0)).collect();
        out.push(Constraint {
            coeffs,
            rhs: sc as f64,
            origin: ConstraintOrigin::SaInvariant { s, b },
        });
    }
    out
}

/// Generates the invariant equations of `table`, in global term
/// coordinates and probability space (`rhs = count / N`) — the public,
/// paper-notation view. The engine itself consumes the per-bucket
/// count-space rows (`bucket_invariant_rows`) via the compiled artifact;
/// this wrapper globalises those same rows, so the two can never drift.
///
/// With `concise = true`, the first SA-invariant of every bucket is omitted
/// (justified by Theorem 3: removing any single invariant from a bucket's
/// set leaves a minimal, still-complete basis).
pub fn data_invariants(
    table: &PublishedTable,
    index: &TermIndex,
    concise: bool,
) -> Vec<Constraint> {
    let n = table.total_records() as f64;
    let mut out = Vec::new();
    for b in 0..table.num_buckets() {
        let start = index.bucket_range(b).start;
        for mut c in bucket_invariant_rows(table.bucket(b), b, concise) {
            for (t, _) in &mut c.coeffs {
                *t += start;
            }
            c.rhs /= n;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_anonymize::assignment::{enumerate_assignments, evaluate_expression};
    use pm_anonymize::fixtures::paper_example;
    use pm_linalg::CsrMatrix;
    use pm_microdata::value::Value;

    #[test]
    fn paper_qi_invariant_example() {
        // Section 5.2: P(q1,s1,1)+P(q1,s2,1)+P(q1,s3,1) = P(q1,1) = 2/10.
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let inv = data_invariants(&table, &index, false);
        let q1 = table.interner().lookup(&[0, 0]).unwrap();
        let c = inv
            .iter()
            .find(|c| c.origin == ConstraintOrigin::QiInvariant { q: q1, b: 0 })
            .unwrap();
        assert_eq!(c.coeffs.len(), 3, "bucket 1 has three distinct SA values");
        assert!((c.rhs - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paper_sa_invariant_example() {
        // Section 5.2: Σ_q P(q, s4, 2) = P(s4, 2) = 1/10 (s4 = HIV, code 3;
        // paper bucket 2 = index 1).
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let inv = data_invariants(&table, &index, false);
        let c = inv
            .iter()
            .find(|c| c.origin == ConstraintOrigin::SaInvariant { s: 3, b: 1 })
            .unwrap();
        assert_eq!(c.coeffs.len(), 3);
        assert!((c.rhs - 0.1).abs() < 1e-12);
    }

    #[test]
    fn counts_match_g_plus_h() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let full = data_invariants(&table, &index, false);
        let concise = data_invariants(&table, &index, true);
        let expected_full: usize = table
            .buckets()
            .map(|b| b.distinct_qi() + b.distinct_sa())
            .sum();
        assert_eq!(full.len(), expected_full);
        assert_eq!(concise.len(), expected_full - table.num_buckets());
    }

    /// Theorem 1 (soundness): every generated invariant holds under every
    /// assignment of its bucket.
    #[test]
    fn soundness_by_enumeration() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let inv = data_invariants(&table, &index, false);
        for b in 0..table.num_buckets() {
            let assignments = enumerate_assignments(table.bucket(b));
            for c in inv.iter().filter(|c| match c.origin {
                ConstraintOrigin::QiInvariant { b: cb, .. }
                | ConstraintOrigin::SaInvariant { b: cb, .. } => cb == b,
                _ => false,
            }) {
                let terms: Vec<((usize, Value), f64)> = c
                    .coeffs
                    .iter()
                    .map(|&(t, coef)| {
                        let term = index.term(t);
                        ((term.q, term.s), coef)
                    })
                    .collect();
                for a in &assignments {
                    let v = evaluate_expression(a, &terms, table.total_records());
                    assert!(
                        (v - c.rhs).abs() < 1e-12,
                        "invariant {:?} violated: {v} ≠ {}",
                        c.origin,
                        c.rhs
                    );
                }
            }
        }
    }

    /// Theorem 3 (conciseness): per bucket, the full invariant matrix has
    /// rank g + h − 1; dropping one SA-invariant makes it full-rank.
    #[test]
    fn conciseness_rank_structure() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        for b in 0..table.num_buckets() {
            let range = index.bucket_range(b);
            let offset = range.start;
            let ncols = range.len();
            let to_rows = |constraints: &[Constraint]| -> Vec<Vec<(usize, f64)>> {
                constraints
                    .iter()
                    .filter(|c| match c.origin {
                        ConstraintOrigin::QiInvariant { b: cb, .. }
                        | ConstraintOrigin::SaInvariant { b: cb, .. } => cb == b,
                        _ => false,
                    })
                    .map(|c| {
                        c.coeffs
                            .iter()
                            .map(|&(t, v)| (t - offset, v))
                            .collect()
                    })
                    .collect()
            };
            let full_rows = to_rows(&data_invariants(&table, &index, false));
            let g_plus_h = full_rows.len();
            let full = CsrMatrix::from_rows(ncols, &full_rows);
            assert_eq!(full.rank(1e-9), g_plus_h - 1, "bucket {b}: one redundancy");
            let concise_rows = to_rows(&data_invariants(&table, &index, true));
            let concise = CsrMatrix::from_rows(ncols, &concise_rows);
            assert_eq!(concise.rank(1e-9), concise_rows.len(), "bucket {b}: minimal");
        }
    }

    /// Theorem 2 (completeness), checked computationally: an arbitrary
    /// expression is invariant across assignments **iff** it lies in the row
    /// space of the bucket's QI/SA-invariants. We test the forward direction
    /// on a family of random expressions.
    #[test]
    fn completeness_on_random_expressions() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let b = 0usize;
        let range = index.bucket_range(b);
        let assignments = enumerate_assignments(table.bucket(b));
        // Deterministic pseudo-random coefficients.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 7) as f64 - 3.0
        };
        let inv = data_invariants(&table, &index, false);
        let bucket_rows: Vec<Vec<(usize, f64)>> = inv
            .iter()
            .filter(|c| match c.origin {
                ConstraintOrigin::QiInvariant { b: cb, .. }
                | ConstraintOrigin::SaInvariant { b: cb, .. } => cb == b,
                _ => false,
            })
            .map(|c| c.coeffs.iter().map(|&(t, v)| (t - range.start, v)).collect())
            .collect();
        let base = CsrMatrix::from_rows(range.len(), &bucket_rows);
        let base_rank = base.rank(1e-9);

        for _trial in 0..50 {
            let coefs: Vec<f64> = (0..range.len()).map(|_| next()).collect();
            // Is the expression invariant (constant across assignments)?
            let terms: Vec<((usize, Value), f64)> = coefs
                .iter()
                .enumerate()
                .map(|(i, &cf)| {
                    let t = index.term(range.start + i);
                    ((t.q, t.s), cf)
                })
                .collect();
            let vals: Vec<f64> = assignments
                .iter()
                .map(|a| evaluate_expression(a, &terms, table.total_records()))
                .collect();
            let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let is_invariant = spread < 1e-12;
            // Is it in the row space? rank(base ∪ expr) == rank(base)?
            let mut rows = bucket_rows.clone();
            rows.push(coefs.iter().enumerate().map(|(i, &v)| (i, v)).collect());
            let aug = CsrMatrix::from_rows(range.len(), &rows);
            let in_rowspace = aug.rank(1e-9) == base_rank;
            assert_eq!(
                is_invariant, in_rowspace,
                "Theorem 2 violated: invariant={is_invariant} in_rowspace={in_rowspace}"
            );
        }
    }
}
