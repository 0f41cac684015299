//! Bucket partitioning for the Section 5.5 optimisation.
//!
//! Lemma 2: with no background knowledge, buckets are independent, so the
//! global maximum entropy is the product of per-bucket maxima (Theorem 4).
//! Knowledge constraints couple the buckets they touch; buckets untouched by
//! any knowledge row are **irrelevant** (Definition 5.6) and keep their
//! closed-form uniform solution (Theorem 5 / Proposition 1).
//!
//! This module generalises the paper's irrelevant/relevant split to full
//! **connected components**: buckets linked (transitively) by shared
//! knowledge constraints form one component; distinct components are
//! independent maxent problems and can be solved separately with the exact
//! same optimum. A singleton component with no knowledge is precisely an
//! irrelevant bucket.

use crate::constraint::{Constraint, ConstraintOrigin};
use crate::terms::TermIndex;

/// Union-find over bucket indices.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// One independent subproblem.
#[derive(Debug, Clone)]
pub struct Component {
    /// Buckets of this component, ascending.
    pub buckets: Vec<usize>,
    /// Positions (in the knowledge rows [`knowledge_components`] was given)
    /// of the rows touching this component. Empty ⇔ every bucket here is
    /// irrelevant.
    pub knowledge_rows: Vec<usize>,
}

impl Component {
    /// Whether the component is untouched by background knowledge.
    #[must_use]
    pub fn is_irrelevant(&self) -> bool {
        self.knowledge_rows.is_empty()
    }
}

/// Splits *separable* knowledge rows into per-bucket rows before
/// partitioning.
///
/// A knowledge row with all-positive coefficients and a zero right-hand
/// side — a confidence-1 negative rule, `P(s | A) = 0` — forces every term
/// it touches to zero **individually** (a sum of non-negative terms is zero
/// iff each is), so it carries no cross-bucket information. Left whole, it
/// would spuriously fuse every touched bucket into one connected component;
/// in the Adult workload the mined Top-K− rules alone are enough to weld
/// most relevant buckets into a single giant system with nothing left to
/// decompose. Replacing the row by one per-bucket row (same origin, same
/// zero target) has the identical solution set and lets
/// [`knowledge_components`] fragment the way Section 5.5 intends.
pub fn split_separable_knowledge(
    constraints: Vec<Constraint>,
    index: &TermIndex,
) -> Vec<Constraint> {
    let mut out = Vec::with_capacity(constraints.len());
    for c in constraints {
        let separable = matches!(c.origin, ConstraintOrigin::Knowledge { .. })
            && c.rhs == 0.0
            && !c.coeffs.is_empty()
            && c.coeffs.iter().all(|&(_, v)| v > 0.0);
        if !separable {
            out.push(c);
            continue;
        }
        // A stable sort by bucket: per-bucket rows come out in ascending
        // bucket order, each keeping its coefficients' order, so the split
        // is deterministic for the engine's merge ordering.
        let mut by_bucket: Vec<(usize, usize, f64)> =
            c.coeffs.iter().map(|&(t, v)| (index.bucket_of(t), t, v)).collect();
        by_bucket.sort_by_key(|&(b, _, _)| b);
        if by_bucket[0].0 == by_bucket[by_bucket.len() - 1].0 {
            out.push(c);
            continue;
        }
        for run in by_bucket.chunk_by(|x, y| x.0 == y.0) {
            let coeffs = run.iter().map(|&(_, t, v)| (t, v)).collect();
            out.push(Constraint { coeffs, rhs: 0.0, origin: c.origin.clone() });
        }
    }
    out
}

/// Groups buckets into connected components induced by `knowledge` rows.
///
/// The [`crate::compiled::CompiledTable`] artifact owns the (single-bucket,
/// partition-neutral) invariant rows and every session shares them, so
/// the session engine partitions from its private knowledge rows alone.
/// Each component's `knowledge_rows` are positions in `knowledge`.
///
/// # Ordering (fixed tie-breaking)
///
/// The output is canonical regardless of union-find internals: components
/// ascend by their smallest bucket id, `buckets` ascend within each
/// component, and `knowledge_rows` ascend. The engine merges per-component
/// solutions in this order, so the canonical ordering is what makes
/// parallel estimates bit-identical to sequential ones.
#[must_use]
pub fn knowledge_components(knowledge: &[Constraint], index: &TermIndex) -> Vec<Component> {
    let m = index.num_buckets();
    let mut uf = UnionFind::new(m);
    for c in knowledge {
        let mut first: Option<usize> = None;
        for &(t, _) in &c.coeffs {
            let b = index.bucket_of(t);
            match first {
                None => first = Some(b),
                Some(f) => uf.union(f, b),
            }
        }
    }

    // Gather buckets per root.
    let mut root_of = vec![0usize; m];
    for (b, root) in root_of.iter_mut().enumerate() {
        *root = uf.find(b);
    }
    let mut comp_id = vec![usize::MAX; m];
    let mut components: Vec<Component> = Vec::new();
    for (b, &r) in root_of.iter().enumerate() {
        if comp_id[r] == usize::MAX {
            comp_id[r] = components.len();
            components.push(Component { buckets: Vec::new(), knowledge_rows: Vec::new() });
        }
        components[comp_id[r]].buckets.push(b);
    }
    // Attach knowledge rows to their component.
    for (ci, c) in knowledge.iter().enumerate() {
        if let Some(&(t, _)) = c.coeffs.first() {
            let b = index.bucket_of(t);
            let comp = comp_id[root_of[b]];
            components[comp].knowledge_rows.push(ci);
        }
        // Knowledge rows with no terms (possible after a degenerate compile)
        // constrain nothing and belong to no component.
    }
    // Enforce the canonical ordering explicitly rather than relying on the
    // scan order above, so no future change to the union-find (or to how
    // buckets/rows are gathered) can silently perturb engine determinism.
    for comp in &mut components {
        comp.buckets.sort_unstable();
        comp.knowledge_rows.sort_unstable();
    }
    components.sort_by_key(|c| c.buckets[0]);
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_conditional;
    use pm_anonymize::fixtures::paper_example;

    #[test]
    fn no_knowledge_gives_singletons() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let comps = knowledge_components(&[], &index);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(Component::is_irrelevant));
        let mut all: Vec<usize> = comps.iter().flat_map(|c| c.buckets.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn cross_bucket_knowledge_merges() {
        // Section 5.5's example knowledge P(s3 | q3) = 0.5 touches buckets
        // 1 and 2 (indices 0, 1); bucket 3 stays irrelevant.
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        let cs = vec![compile_conditional(&[(0, 0), (1, 1)], 1, 0.5, 0, &table, &index).unwrap()];
        let comps = knowledge_components(&cs, &index);
        assert_eq!(comps.len(), 2);
        let merged = comps.iter().find(|c| c.buckets.len() == 2).unwrap();
        assert_eq!(merged.buckets, vec![0, 1]);
        assert_eq!(merged.knowledge_rows.len(), 1);
        let single = comps.iter().find(|c| c.buckets.len() == 1).unwrap();
        assert!(single.is_irrelevant());
        assert_eq!(single.buckets, vec![2]);
    }

    /// A confidence-1 negative rule spanning several buckets is split into
    /// per-bucket zero rows, so it no longer fuses those buckets into one
    /// component; an informative (non-zero) rule is left whole and fuses.
    #[test]
    fn separable_zero_rows_split_per_bucket() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        // P(hiv | male) = 0 — admissible (male, hiv, b) terms live in
        // buckets 1 and 2.
        let cs = vec![compile_conditional(&[(0, 0)], 3, 0.0, 0, &table, &index).unwrap()];
        let n_before = cs.len();
        let cs = split_separable_knowledge(cs, &index);
        assert_eq!(cs.len(), n_before + 1, "one spanning zero row becomes two");
        let comps = knowledge_components(&cs, &index);
        assert_eq!(comps.len(), 3, "no buckets fused");
        assert_eq!(comps.iter().filter(|c| Component::is_irrelevant(c)).count(), 1);

        // The same rule with non-zero confidence couples the buckets and
        // must be left whole.
        let cs = vec![compile_conditional(&[(0, 0)], 3, 0.25, 0, &table, &index).unwrap()];
        let n_before = cs.len();
        let cs = split_separable_knowledge(cs, &index);
        assert_eq!(cs.len(), n_before, "informative rows are not split");
        let comps = knowledge_components(&cs, &index);
        assert_eq!(comps.len(), 2, "buckets 1 and 2 fuse");
    }

    /// The canonical ordering contract: component order, bucket order and
    /// knowledge-row order are all ascending, whatever order the knowledge
    /// rows arrive in.
    #[test]
    fn ordering_is_canonical() {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        // Two knowledge rows, deliberately compiled in "reverse" bucket
        // order: graduates appear only in bucket 2, q3 in buckets {0, 1}.
        let cs = vec![
            compile_conditional(&[(1, 3)], 0, 0.5, 0, &table, &index).unwrap(),
            compile_conditional(&[(0, 0), (1, 1)], 1, 0.5, 1, &table, &index).unwrap(),
        ];
        let comps = knowledge_components(&cs, &index);
        let mins: Vec<usize> = comps.iter().map(|c| c.buckets[0]).collect();
        let mut sorted = mins.clone();
        sorted.sort_unstable();
        assert_eq!(mins, sorted, "components ascend by smallest bucket");
        for c in &comps {
            assert!(c.buckets.windows(2).all(|w| w[0] < w[1]), "buckets ascend");
            assert!(
                c.knowledge_rows.windows(2).all(|w| w[0] < w[1]),
                "knowledge rows ascend"
            );
        }
    }

    #[test]
    fn union_find_path_compression() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
    }
}
