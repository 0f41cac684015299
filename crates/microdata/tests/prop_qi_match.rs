//! Property test: the interner's bitset antecedent match
//! (`QiInterner::matching`) returns exactly the symbols a scan of every
//! interned tuple finds, in ascending id order — across repeated
//! positions, out-of-domain values, symbols retracted to count 0, and
//! symbols a later table epoch observes after the bitsets were built.

use pm_microdata::qi::{QiId, QiInterner};
use pm_microdata::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

/// The reference: test every interned tuple against every condition. A
/// position beyond the tuple's arity matches nothing.
fn scan(interner: &QiInterner, antecedent: &[(usize, Value)]) -> Vec<QiId> {
    interner
        .iter()
        .filter(|(_, tuple, _)| antecedent.iter().all(|&(pos, v)| tuple.get(pos) == Some(&v)))
        .map(|(q, _, _)| q)
        .collect()
}

fn check(interner: &QiInterner, antecedents: &[Vec<(usize, Value)>]) {
    for antecedent in antecedents {
        assert_eq!(
            interner.matching(antecedent),
            scan(interner, antecedent),
            "antecedent {antecedent:?} over {} symbols",
            interner.distinct()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matching_equals_a_scan_of_every_tuple(
        arity in 1usize..4,
        first in vec(vec(0u16..5, 3..4), 0..200),
        later in vec(vec(0u16..7, 3..4), 0..40),
        retracted in vec(0usize..200, 0..30),
        // Positions up to 3 exceed arities below 4; values 5 and 6 lie
        // outside the first epoch's domain; two to three conditions often
        // repeat a position.
        antecedents in vec(vec((0usize..4, 0u16..7), 0..4), 1..12),
    ) {
        let mut base = QiInterner::new();
        for tuple in &first {
            base.observe(&tuple[..arity]);
        }
        for &r in &retracted {
            if base.distinct() > 0 {
                let id = r % base.distinct();
                while base.count(id) > 0 {
                    base.retract(id).unwrap();
                }
            }
        }
        // The first call builds the bitsets.
        check(&base, &antecedents);

        // A later epoch shares the table (bitsets included) and observes
        // new symbols, some with values no earlier symbol held.
        let mut epoch = base.clone();
        for tuple in &later {
            epoch.observe(&tuple[..arity]);
        }
        check(&epoch, &antecedents);
        check(&base, &antecedents);

        // An interner rebuilt from its parts starts without bitsets.
        let tuples = (0..epoch.distinct()).map(|q| epoch.tuple(q).to_vec()).collect();
        let counts = (0..epoch.distinct()).map(|q| epoch.count(q)).collect();
        check(&QiInterner::from_parts(tuples, counts), &antecedents);
    }
}
