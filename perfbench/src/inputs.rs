//! Inputs generated outside every timed region: the Adult data set and
//! its mined knowledge pool, and, once the publication exists, the query
//! rings, read-back sets and the self-reversing delta tape.
//!
//! The data set, the pool and the tape's set of record pairs come from a
//! fixed generator seed, like a benchmark's fixed data set: a different
//! data set is a different workload (its held-out rules and bucket shapes
//! moved the knowledge churn's median by ±12% between data seeds). The run
//! seed varies what the traffic samples: the queries and the tape's order.

use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_microdata::dataset::Dataset;
use pm_serve::protocol::{Request, WireDeltaOp, WireKnowledge};
use privacy_maxent::knowledge::Knowledge;

/// Records at Adult scale (the paper's 14,210-record publication).
pub const ADULT_RECORDS: usize = 14_210;
/// Generator seed of the data set (and so of the mined pool).
pub const DATA_SEED: u64 = 1;
/// Top-K+ and Top-K− rules in the knowledge pool.
pub const TOP_K: usize = 150;
/// Antecedent arity of the mined rules.
pub const ARITY: usize = 4;
/// Positive rules held out of the churn tenants' start state.
pub const HELD_OUT: usize = 10;
/// Queries in a batch frame.
pub const BATCH: usize = 256;
/// Queries in a read-back after a refresh.
pub const READ_BACK: usize = 64;
/// Distinct batch frames each batch client cycles through.
pub const RING: usize = 64;

/// SplitMix64: a small deterministic generator for the streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed-derived inputs that need no publication.
pub struct Inputs {
    /// Seed of the streams.
    pub seed: u64,
    /// The microdata the server publishes.
    pub data: Dataset,
    /// Top-(K+, K−) rules: positives first, then negatives.
    pub pool: Vec<WireKnowledge>,
    /// Positive rules in `pool`.
    pub positives: usize,
}

impl Inputs {
    /// Generates the data set and mines the knowledge pool; `seed` is kept
    /// for the streams.
    pub fn generate(seed: u64, records: usize) -> Self {
        let data = AdultGenerator::new(AdultGeneratorConfig {
            records,
            seed: DATA_SEED,
        })
        .generate();
        let mined = RuleMiner::new(MinerConfig {
            min_support: 3,
            arities: vec![ARITY],
        })
        .mine(&data);
        let positives = TOP_K.min(mined.positive.len());
        let pool = mined
            .top_k(TOP_K, TOP_K)
            .into_iter()
            .map(|r| {
                let k = Knowledge::from_rule(r, data.schema())
                    .expect("mined rules are valid knowledge");
                WireKnowledge::from_knowledge(&k).expect("mined rules fit the wire format")
            })
            .collect();
        Self {
            seed,
            data,
            pool,
            positives,
        }
    }

    /// The churn tenants' start state: the pool minus its last
    /// [`HELD_OUT`] positive rules, in pool order.
    pub fn held(&self) -> Vec<WireKnowledge> {
        let cut = self.positives - self.held_out().len();
        self.pool[..cut]
            .iter()
            .chain(&self.pool[self.positives..])
            .cloned()
            .collect()
    }

    /// The held-out positive rules the knowledge churn adds and removes.
    pub fn held_out(&self) -> &[WireKnowledge] {
        let n = HELD_OUT.min(self.positives);
        &self.pool[self.positives - n..self.positives]
    }
}

/// One delta of the tape plus the queries read back after it.
#[derive(Debug, Clone)]
pub struct TapeStep {
    /// The record operations.
    pub ops: Vec<WireDeltaOp>,
    /// The read-back batch: QIs of the touched buckets, then random ones.
    pub read_back: Request,
}

/// Inputs derived from the base publication.
pub struct Streams {
    /// Per batch client: [`RING`] batch frames of [`BATCH`] queries.
    pub rings: Vec<Vec<Request>>,
    /// Per held-out rule: a read-back batch aimed at the QIs its
    /// antecedent matches.
    pub rule_read_backs: Vec<Request>,
    /// A short sample batch read after each onboard.
    pub onboard_sample: Request,
    /// Self-reversing single-record deltas: step `2k + 1` undoes `2k`.
    pub tape: Vec<TapeStep>,
}

fn random_query(rng: &mut Rng, qi: usize, sa: usize) -> (u32, u16) {
    (rng.below(qi) as u32, rng.below(sa) as u16)
}

fn batch(queries: Vec<(u32, u16)>) -> Request {
    Request::Batch { queries }
}

/// Fills `aimed` up to [`READ_BACK`] with random queries.
fn read_back(rng: &mut Rng, mut aimed: Vec<(u32, u16)>, qi: usize, sa: usize) -> Request {
    aimed.truncate(READ_BACK / 2);
    while aimed.len() < READ_BACK {
        aimed.push(random_query(rng, qi, sa));
    }
    batch(aimed)
}

impl Streams {
    /// Generates every stream for `clients` batch clients and a tape of
    /// `pairs` insert/undo pairs over `table`, sent in `blocks` equal blocks
    /// (the slices or rounds its figures are taken over).
    pub fn generate(
        inputs: &Inputs,
        table: &PublishedTable,
        clients: usize,
        pairs: usize,
        blocks: usize,
    ) -> Self {
        let qi = table.interner().distinct();
        let sa = table.sa_cardinality();
        let mut rng = Rng::new(inputs.seed, 1);
        let rings = (0..clients)
            .map(|_| {
                (0..RING)
                    .map(|_| batch((0..BATCH).map(|_| random_query(&mut rng, qi, sa)).collect()))
                    .collect()
            })
            .collect();

        let rule_read_backs = inputs
            .held_out()
            .iter()
            .map(|rule| {
                let aimed = (0..qi)
                    .filter(|&q| {
                        let t = table.interner().tuple(q);
                        rule.antecedent
                            .iter()
                            .all(|&(p, v)| t.get(p as usize) == Some(&v))
                    })
                    .enumerate()
                    .map(|(i, q)| (q as u32, if i % 2 == 0 { rule.sa } else { (i % sa) as u16 }))
                    .collect();
                read_back(&mut rng, aimed, qi, sa)
            })
            .collect();

        let onboard_sample = batch((0..16).map(|_| random_query(&mut rng, qi, sa)).collect());

        // The tape's pairs, and which block each falls in, come from the
        // data seed; only their order within a block comes from the run
        // seed. Which buckets a delta touches sets its cost (a few deltas
        // re-solve large components): a seed-drawn set of pairs moved the
        // p90 of a 200-pair run by ±30% between seeds, and each block's p90
        // is one of the values whose median is reported.
        let mut order: Vec<usize> = (0..pairs).collect();
        for block in order.chunks_mut(pairs.div_ceil(blocks.max(1)).max(1)) {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        let mut picks = Rng::new(DATA_SEED, 2);
        let m = table.num_buckets();
        let chosen: Vec<(usize, usize, u64, u64)> = (0..pairs)
            .map(|_| {
                (
                    picks.below(m),
                    picks.below(m - 1),
                    picks.next_u64(),
                    picks.next_u64(),
                )
            })
            .collect();
        let mut tape = Vec::with_capacity(2 * pairs);
        for &p in &order {
            let (b, step, qr, sr) = chosen[p];
            let to = (b + 1 + step) % m;
            let bucket = table.bucket(b);
            let q = bucket.qi_counts()[(qr % bucket.distinct_qi() as u64) as usize].0;
            let s = bucket.sa_counts()[(sr % bucket.distinct_sa() as u64) as usize].0;
            let tuple = table.interner().tuple(q).to_vec();
            let (b32, to32) = (b as u32, to as u32);
            let (there, back) = if p % 2 == 0 {
                (
                    WireDeltaOp::Insert {
                        qi: tuple.clone(),
                        sa: s,
                        bucket: to32,
                    },
                    WireDeltaOp::Retract {
                        qi: tuple,
                        sa: s,
                        bucket: to32,
                    },
                )
            } else {
                (
                    WireDeltaOp::Move {
                        qi: tuple.clone(),
                        sa: s,
                        from: b32,
                        to: to32,
                    },
                    WireDeltaOp::Move {
                        qi: tuple,
                        sa: s,
                        from: to32,
                        to: b32,
                    },
                )
            };
            let aimed: Vec<(u32, u16)> = [b, to]
                .iter()
                .flat_map(|&x| table.bucket(x).qi_counts().iter().map(|&(q, _)| q as u32))
                .enumerate()
                .map(|(i, q)| (q, (i % sa) as u16))
                .collect();
            let read = read_back(&mut rng, aimed, qi, sa);
            tape.push(TapeStep {
                ops: vec![there],
                read_back: read.clone(),
            });
            tape.push(TapeStep {
                ops: vec![back],
                read_back: read,
            });
        }
        Self {
            rings,
            rule_read_backs,
            onboard_sample,
            tape,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::serve::publish;

    #[test]
    fn every_seed_sends_the_same_pairs_in_each_block() {
        let blocks = |seed: u64| {
            let inputs = Inputs::generate(seed, 2_500);
            let table = publish(&inputs.data);
            let tape = Streams::generate(&inputs, &table, 1, 12, 3).tape;
            let steps: Vec<String> = tape.iter().map(|s| format!("{:?}", s.ops)).collect();
            steps
                .chunks(8)
                .map(|block| block.iter().cloned().collect::<BTreeSet<_>>())
                .collect::<Vec<_>>()
        };
        let (one, two) = (blocks(1), blocks(2));
        assert_eq!(one.len(), 3);
        assert_eq!(one, two);
    }
}
