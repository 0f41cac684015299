//! Interning of distinct full-QI tuples into the `q1, q2, …` symbols of the
//! paper's abstract form (Figure 1(c)), and SA value aliases.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::dataset::Dataset;
use crate::error::MicrodataError;
use crate::value::Value;

/// Dense id of a distinct full-QI tuple (`q1, q2, …` in the paper).
pub type QiId = usize;

/// Dense id of a distinct SA value (`s1, s2, …` in the paper).
///
/// SA values are already dense codes in the SA domain, so `SaId == Value as
/// usize`; the alias exists for readability at API boundaries.
pub type SaId = usize;

/// The append-only symbol table behind [`QiInterner`]: tuple storage plus
/// the reverse map. Split out so interner clones — one per table epoch in a
/// live-table deployment — share it behind an [`Arc`] instead of re-hashing
/// every distinct tuple; it is only deep-copied when a *new* tuple is
/// observed on a shared interner.
///
/// The reverse map and the per-value bitsets are derived state — `tuples`
/// is ground truth — so each is built lazily on first use. An interner
/// deserialized from a snapshot that only ever serves by id never pays for
/// hashing the symbol table.
#[derive(Debug, Clone, Default)]
struct TupleTable {
    tuples: Vec<Vec<Value>>,
    lookup: OnceLock<HashMap<Vec<Value>, QiId>>,
    bitsets: OnceLock<ValueBitsets>,
}

impl TupleTable {
    /// The reverse map, built from `tuples` on first use.
    fn map(&self) -> &HashMap<Vec<Value>, QiId> {
        self.lookup.get_or_init(|| {
            self.tuples.iter().enumerate().map(|(i, t)| (t.clone(), i)).collect()
        })
    }

    /// Mutable access for [`QiInterner::observe`]; hydrates first so the
    /// insert lands in a complete map.
    fn map_mut(&mut self) -> &mut HashMap<Vec<Value>, QiId> {
        self.map();
        self.lookup.get_mut().expect("hydrated by map()")
    }

    /// The per-value bitsets, built from `tuples` on first use.
    fn bitsets(&self) -> &ValueBitsets {
        self.bitsets.get_or_init(|| {
            let mut sets = ValueBitsets::default();
            for (id, tuple) in self.tuples.iter().enumerate() {
                sets.insert(id, tuple);
            }
            sets
        })
    }
}

/// One bitset over symbol ids per (QI position, value): bit `q` of
/// `sets[pos][v]` is set iff symbol `q`'s tuple holds `v` at `pos`. A set
/// stores words only up to its highest member — missing words are zero —
/// so appending a symbol touches only the sets of its own values.
#[derive(Debug, Clone, Default)]
struct ValueBitsets {
    sets: Vec<Vec<Vec<u64>>>,
}

impl ValueBitsets {
    fn insert(&mut self, id: QiId, tuple: &[Value]) {
        if self.sets.len() < tuple.len() {
            self.sets.resize_with(tuple.len(), Vec::new);
        }
        for (by_value, &v) in self.sets.iter_mut().zip(tuple) {
            let v = v as usize;
            if by_value.len() <= v {
                by_value.resize_with(v + 1, Vec::new);
            }
            let words = &mut by_value[v];
            if words.len() <= id / 64 {
                words.resize(id / 64 + 1, 0);
            }
            words[id / 64] |= 1 << (id % 64);
        }
    }

    /// The set of `value` at `pos`; empty for a position or value no
    /// symbol holds.
    fn set(&self, pos: usize, value: Value) -> &[u64] {
        self.sets
            .get(pos)
            .and_then(|by_value| by_value.get(value as usize))
            .map_or(&[], Vec::as_slice)
    }
}

/// Interner mapping full-QI tuples to dense [`QiId`]s, with occurrence counts.
///
/// "If two people have the same QI value, their QI values will be denoted by
/// the same symbol" — the interner is exactly that symbol table.
///
/// Ids are **stable for the lifetime of the interner** (and any clone
/// lineage): [`QiInterner::retract`] can drive a tuple's count to zero, but
/// its id is never reused, so handles and estimates indexed by `QiId`
/// survive record deltas.
#[derive(Debug, Clone, Default)]
pub struct QiInterner {
    table: Arc<TupleTable>,
    counts: Vec<usize>,
    total: usize,
}

impl QiInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the interner from a dataset's QI projection, counting
    /// occurrences. Ids are assigned in first-appearance order, matching the
    /// paper's `q1, q2, …` numbering of Figure 1(c).
    pub fn from_dataset(data: &Dataset) -> Self {
        let qi_attrs = data.schema().qi_attrs();
        let mut interner = Self::new();
        let mut buf = Vec::with_capacity(qi_attrs.len());
        for r in data.records() {
            r.project_into(qi_attrs, &mut buf);
            interner.observe(&buf);
        }
        interner
    }

    /// Reassembles an interner from its persisted parts: the tuple storage
    /// in id order and the per-id occurrence counts. The total and the
    /// reverse lookup map are derived (the latter lazily, on the first
    /// [`QiInterner::lookup`] or [`QiInterner::observe`]).
    ///
    /// # Panics
    /// If `tuples` and `counts` disagree on the number of distinct ids —
    /// callers decoding untrusted bytes must validate lengths first.
    pub fn from_parts(tuples: Vec<Vec<Value>>, counts: Vec<usize>) -> Self {
        assert_eq!(tuples.len(), counts.len(), "one count per interned tuple");
        let total = counts.iter().sum();
        QiInterner {
            table: Arc::new(TupleTable { tuples, ..TupleTable::default() }),
            counts,
            total,
        }
    }

    /// Interns one tuple occurrence, returning its id.
    pub fn observe(&mut self, tuple: &[Value]) -> QiId {
        self.total += 1;
        if let Some(&id) = self.table.map().get(tuple) {
            self.counts[id] += 1;
            return id;
        }
        // New tuple: copy-on-write the shared storage (cheap when this
        // interner is the sole owner, a full copy only when an epoch clone
        // actually grows the symbol table).
        let table = Arc::make_mut(&mut self.table);
        let id = table.tuples.len();
        table.map_mut().insert(tuple.to_vec(), id);
        if let Some(sets) = table.bitsets.get_mut() {
            sets.insert(id, tuple);
        }
        table.tuples.push(tuple.to_vec());
        self.counts.push(1);
        id
    }

    /// Removes one occurrence of `id` (a record retraction). The tuple stays
    /// interned — ids are never reused — with its count decremented.
    ///
    /// # Errors
    /// [`MicrodataError::NoOccurrences`] if the tuple has no occurrences
    /// left (or `id` was never issued).
    pub fn retract(&mut self, id: QiId) -> Result<(), MicrodataError> {
        if self.counts.get(id).copied().unwrap_or(0) == 0 {
            return Err(MicrodataError::NoOccurrences { id });
        }
        self.counts[id] -= 1;
        self.total -= 1;
        Ok(())
    }

    /// Looks up an already-interned tuple.
    pub fn lookup(&self, tuple: &[Value]) -> Option<QiId> {
        self.table.map().get(tuple).copied()
    }

    /// The tuple behind `id`.
    pub fn tuple(&self, id: QiId) -> &[Value] {
        &self.table.tuples[id]
    }

    /// Number of distinct tuples ever observed (retracted-to-zero tuples
    /// keep their slot — ids are stable).
    pub fn distinct(&self) -> usize {
        self.table.tuples.len()
    }

    /// Occurrences of `id` across all observed records.
    pub fn count(&self, id: QiId) -> usize {
        self.counts[id]
    }

    /// Total observed records.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Empirical `P(q)` — the sample distribution the paper uses to
    /// approximate the population QI distribution (Section 4.1).
    pub fn probability(&self, id: QiId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[id] as f64 / self.total as f64
        }
    }

    /// Every symbol whose tuple holds value `v` at position `pos` for each
    /// `(pos, v)` of `antecedent`, ascending by id — the symbols a
    /// Section 4.1 antecedent `Qv` matches. Symbols retracted to count 0
    /// still match (ids are stable); an empty antecedent matches every
    /// symbol, and a position or value no symbol holds matches none.
    ///
    /// This is a join over per-(position, value) bitsets, built on the
    /// first call and shared by every clone of the interner: one AND per
    /// condition over `distinct / 64` words instead of a scan of every
    /// tuple.
    #[must_use]
    pub fn matching(&self, antecedent: &[(usize, Value)]) -> Vec<QiId> {
        let Some((&(pos, v), rest)) = antecedent.split_first() else {
            return (0..self.distinct()).collect();
        };
        let sets = self.table.bitsets();
        let mut words = sets.set(pos, v).to_vec();
        for &(pos, v) in rest {
            let other = sets.set(pos, v);
            words.truncate(other.len());
            for (w, o) in words.iter_mut().zip(other) {
                *w &= o;
            }
        }
        let mut ids = Vec::new();
        for (i, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                ids.push(i * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        ids
    }

    /// Iterates `(id, tuple, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (QiId, &[Value], usize)> {
        self.table
            .tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.as_slice(), self.counts[i]))
    }
}

/// Projects every record of `data` onto `(QiId, sa_value)` pairs, building
/// the interner along the way. This is the canonical preprocessing step
/// before bucketization.
pub fn project_qi_sa(data: &Dataset) -> Result<(QiInterner, Vec<(QiId, Value)>), MicrodataError> {
    let sa = data.schema().sensitive()?;
    let qi_attrs = data.schema().qi_attrs();
    let mut interner = QiInterner::new();
    let mut pairs = Vec::with_capacity(data.len());
    let mut buf = Vec::with_capacity(qi_attrs.len());
    for r in data.records() {
        r.project_into(qi_attrs, &mut buf);
        let q = interner.observe(&buf);
        pairs.push((q, r.get(sa)));
    }
    Ok((interner, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_dataset;

    #[test]
    fn figure1_interning_matches_paper() {
        let d = figure1_dataset();
        let (interner, pairs) = project_qi_sa(&d).unwrap();
        // Figure 1(c): six distinct QI symbols q1..q6.
        assert_eq!(interner.distinct(), 6);
        assert_eq!(pairs.len(), 10);
        // q1 = {male, college} appears three times.
        let q1 = interner.lookup(&[0, 0]).unwrap();
        assert_eq!(q1, 0, "first-appearance order: Allen defines q1");
        assert_eq!(interner.count(q1), 3);
        assert!((interner.probability(q1) - 0.3).abs() < 1e-12);
        // q3 = {male, high school} appears twice (David, Frank).
        let q3 = interner.lookup(&[0, 1]).unwrap();
        assert_eq!(interner.count(q3), 2);
    }

    #[test]
    fn observe_is_idempotent_on_ids() {
        let mut i = QiInterner::new();
        let a = i.observe(&[1, 2]);
        let b = i.observe(&[3, 4]);
        let a2 = i.observe(&[1, 2]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.total(), 3);
        assert_eq!(i.count(a), 2);
        assert_eq!(i.tuple(b), &[3, 4]);
    }

    #[test]
    fn empty_interner() {
        let i = QiInterner::new();
        assert_eq!(i.distinct(), 0);
        assert_eq!(i.total(), 0);
        assert_eq!(i.lookup(&[0]), None);
    }

    /// Retraction keeps ids stable: the count drops (possibly to zero), the
    /// tuple stays interned, and re-observing it revives the same id.
    #[test]
    fn retract_keeps_ids_stable() {
        let mut i = QiInterner::new();
        let a = i.observe(&[1, 2]);
        let b = i.observe(&[3, 4]);
        i.retract(a).unwrap();
        assert_eq!(i.count(a), 0);
        assert_eq!(i.total(), 1);
        assert_eq!(i.distinct(), 2, "retracted tuples keep their slot");
        assert_eq!(i.lookup(&[1, 2]), Some(a));
        assert!(i.retract(a).is_err(), "cannot retract below zero");
        assert_eq!(i.observe(&[1, 2]), a, "revived under the same id");
        let _ = b;
    }

    /// Epoch clones share the tuple table until one of them observes a new
    /// tuple; counts are always private to each clone.
    #[test]
    fn clones_share_storage_copy_on_write() {
        let mut base = QiInterner::new();
        base.observe(&[1]);
        base.observe(&[2]);
        let mut clone = base.clone();
        assert!(Arc::ptr_eq(&base.table, &clone.table));
        // Observing an existing tuple touches only counts: still shared.
        clone.observe(&[1]);
        assert!(Arc::ptr_eq(&base.table, &clone.table));
        assert_eq!(base.count(0), 1);
        assert_eq!(clone.count(0), 2);
        // A new tuple forces the copy; the base is unaffected.
        let c = clone.observe(&[9]);
        assert!(!Arc::ptr_eq(&base.table, &clone.table));
        assert_eq!(base.distinct(), 2);
        assert_eq!(clone.distinct(), 3);
        assert_eq!(clone.tuple(c), &[9]);
    }

    /// `from_parts` reproduces an interner observably identical to the one
    /// it was decomposed from, and keeps growing correctly afterwards (the
    /// lazily-derived reverse map must agree with the tuple storage).
    #[test]
    fn from_parts_is_equivalent_and_growable() {
        let mut orig = QiInterner::new();
        orig.observe(&[1, 2]);
        orig.observe(&[3, 4]);
        orig.observe(&[1, 2]);
        orig.retract(1).unwrap();

        let tuples: Vec<Vec<Value>> = (0..orig.distinct()).map(|i| orig.tuple(i).to_vec()).collect();
        let counts: Vec<usize> = (0..orig.distinct()).map(|i| orig.count(i)).collect();
        let mut rebuilt = QiInterner::from_parts(tuples, counts);

        assert_eq!(rebuilt.distinct(), orig.distinct());
        assert_eq!(rebuilt.total(), orig.total());
        assert_eq!(rebuilt.lookup(&[1, 2]), Some(0));
        assert_eq!(rebuilt.lookup(&[3, 4]), Some(1));
        assert_eq!(rebuilt.lookup(&[9, 9]), None);
        assert_eq!(rebuilt.count(1), 0, "retracted-to-zero counts persist");
        assert_eq!(rebuilt.observe(&[1, 2]), 0, "revives the persisted id");
        assert_eq!(rebuilt.observe(&[7, 7]), 2, "fresh tuples extend the id space");
    }
}
