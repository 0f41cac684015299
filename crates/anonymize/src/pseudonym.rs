//! Pseudonym expansion for knowledge about individuals (Section 6).
//!
//! Identifiers are removed during anonymization, so to express knowledge
//! like "Alice (whose QI is q₁) has s₁ with probability 0.2" the paper adds
//! *pseudonyms* back to the published table (Figure 4): each occurrence of a
//! QI value gets a distinct pseudonym, and every occurrence of the same QI
//! value carries the full pseudonym *set* (the adversary cannot tell which
//! occurrence is which person).

use pm_microdata::qi::{QiId, QiInterner};

/// A pseudonym id (`i1, i2, …` in Figure 4), globally dense across the
/// table: person `k` of QI symbol `q` has id `offset(q) + k`.
pub type PseudonymId = usize;

/// The pseudonym table: maps QI symbols to their pseudonym ranges.
#[derive(Debug, Clone)]
pub struct PseudonymTable {
    /// `offsets[q]..offsets[q+1]` are the pseudonyms of symbol `q`.
    offsets: Vec<usize>,
}

impl PseudonymTable {
    /// Builds the table from a QI interner: symbol `q` with multiplicity `k`
    /// receives `k` pseudonyms (one per record, matching the paper's
    /// one-record-per-person assumption).
    pub fn from_interner(interner: &QiInterner) -> Self {
        let mut offsets = Vec::with_capacity(interner.distinct() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for q in 0..interner.distinct() {
            acc += interner.count(q);
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Total pseudonyms (= total records).
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The pseudonyms associated with QI symbol `q`.
    pub fn pseudonyms_of(&self, q: QiId) -> std::ops::Range<PseudonymId> {
        self.offsets[q]..self.offsets[q + 1]
    }

    /// Number of pseudonyms of `q` (its multiplicity in the data).
    pub fn multiplicity(&self, q: QiId) -> usize {
        self.offsets[q + 1] - self.offsets[q]
    }

    /// The QI symbol owning pseudonym `i`: the last symbol whose range
    /// starts at or before `i`, so symbols with no records (empty ranges)
    /// never own one.
    pub fn owner(&self, i: PseudonymId) -> QiId {
        self.offsets.partition_point(|&o| o <= i) - 1
    }

    /// Display name matching Figure 4 (`i1`-based).
    pub fn name(&self, i: PseudonymId) -> String {
        format!("i{}", i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_microdata::fixtures::figure1_dataset;
    use pm_microdata::qi::QiInterner;

    #[test]
    fn figure4_pseudonym_layout() {
        let d = figure1_dataset();
        let interner = QiInterner::from_dataset(&d);
        let t = PseudonymTable::from_interner(&interner);
        assert_eq!(t.total(), 10);
        // q1 = {male, college} has multiplicity 3 → pseudonyms {i1, i2, i3}.
        let q1 = interner.lookup(&[0, 0]).unwrap();
        assert_eq!(t.pseudonyms_of(q1), 0..3);
        assert_eq!(t.multiplicity(q1), 3);
        assert_eq!(t.name(0), "i1");
        // Unique QI values get a single pseudonym each.
        let q4 = interner.lookup(&[1, 2]).unwrap(); // {female, junior}
        assert_eq!(t.multiplicity(q4), 1);
    }

    #[test]
    fn owner_is_inverse_of_pseudonyms_of() {
        let d = figure1_dataset();
        let interner = QiInterner::from_dataset(&d);
        let t = PseudonymTable::from_interner(&interner);
        for q in 0..interner.distinct() {
            for i in t.pseudonyms_of(q) {
                assert_eq!(t.owner(i), q, "pseudonym {i}");
            }
        }
        // Symbols whose records were all retracted own no pseudonym.
        let t = PseudonymTable::from_interner(&QiInterner::from_parts(
            vec![vec![0], vec![1], vec![2], vec![3]],
            vec![0, 2, 0, 1],
        ));
        assert_eq!((0..3).map(|i| t.owner(i)).collect::<Vec<_>>(), vec![1, 1, 3]);
    }
}
