//! The harness the seven regression benches share.
//!
//! Each bench binary is a thin `main`: [`parse_flags`] maps its flags onto
//! a config, the sweep runs over the [`Adult`] workload with
//! [`engine_config`], and [`finish`] writes the report's [`Json`] and
//! judges its [`Gate`]s. A run fails when it diverged bitwise, armed gate
//! or not, or when an armed gate fails; every gate is reported first.

use std::cmp::Ordering;
use std::fmt::{self, Display};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::{MinedRules, MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_microdata::dataset::Dataset;
use privacy_maxent::delta::TableDelta;
use privacy_maxent::engine::EngineConfig;
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};

use crate::pipeline::Scale;

/// Shortest timed baseline, in seconds, that a speedup gate trusts.
/// Below it timer and scheduler noise dominate, so an armed gate skips
/// itself with a note instead of flaking.
pub const BASELINE_FLOOR_SECONDS: f64 = 0.020;

/// Shortest closed-loop wall, in seconds, that the `serve_bench`
/// throughput gate trusts: below it the queries/s figure is quantisation
/// noise.
pub const WALL_FLOOR_SECONDS: f64 = 0.25;

/// A flag's destination: parses the raw command-line value into itself.
pub trait FlagValue {
    /// Stores `raw`, or says why it is not a valid value.
    fn set(&mut self, raw: &str) -> Result<(), String>;
}

macro_rules! parsed_flag {
    ($($t:ty),*) => {$(
        impl FlagValue for $t {
            fn set(&mut self, raw: &str) -> Result<(), String> {
                *self = raw.parse().map_err(|e| format!("`{raw}`: {e}"))?;
                Ok(())
            }
        }
    )*};
}
parsed_flag!(usize, u64, f64, String);

/// An optional value, such as a gate's bar: giving the flag arms it.
impl<T: FlagValue + Default> FlagValue for Option<T> {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        let mut value = T::default();
        value.set(raw)?;
        *self = Some(value);
        Ok(())
    }
}

/// A comma-separated list of counts, such as `--threads 1,2,4`.
impl FlagValue for Vec<usize> {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        *self = raw
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("`{raw}` is not a comma-separated list of numbers"))?;
        Ok(())
    }
}

impl FlagValue for Scale {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        *self = match raw {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => return Err(format!("unknown scale `{raw}` (expected quick|full)")),
        };
        Ok(())
    }
}

/// A count that must be at least 1.
pub struct Positive<'a>(pub &'a mut usize);

impl FlagValue for Positive<'_> {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        self.0.set(raw)?;
        if *self.0 == 0 {
            return Err("must be positive".to_string());
        }
        Ok(())
    }
}

/// `--rules N`: a Top-(K+, K−) budget split into `N/2` positive and
/// `N − N/2` negative rules.
pub struct Rules<'a>(pub &'a mut usize, pub &'a mut usize);

impl FlagValue for Rules<'_> {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        let mut n = 0usize;
        n.set(raw)?;
        (*self.0, *self.1) = (n / 2, n - n / 2);
        Ok(())
    }
}

/// Parses `--name value` pairs into the named slots.
///
/// # Errors
///
/// Names the bad token: an unknown flag, a flag without a value, or a
/// value its slot rejects.
pub fn parse_flags<S: AsRef<str>>(
    argv: impl IntoIterator<Item = S>,
    flags: &mut [(&str, &mut dyn FlagValue)],
) -> Result<(), String> {
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let arg = arg.as_ref();
        let (name, slot) = flags
            .iter_mut()
            .find(|(name, _)| *name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let raw = argv.next().ok_or_else(|| format!("{name} expects a value"))?;
        slot.set(raw.as_ref()).map_err(|e| format!("bad {name}: {e}"))?;
    }
    Ok(())
}

/// Prints `bin: message` to stderr and returns the failing exit code.
pub fn fail(bin: &str, message: &str) -> ExitCode {
    eprintln!("{bin}: {message}");
    ExitCode::FAILURE
}

/// A JSON object in a fixed key order: a report prints one key per line,
/// a row of [`Json::rows`] prints on one line.
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<(&'static str, String)>,
}

impl Json {
    /// A report object, opening with its `"bench"` name.
    pub fn report(bench: &str) -> Self {
        Self::default().text("bench", bench)
    }

    /// A value as `Display` prints it: integers and booleans.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// A quoted string.
    #[must_use]
    pub fn text(self, key: &'static str, value: &str) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }

    /// A number with `decimals` fixed decimals.
    #[must_use]
    pub fn fixed(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.field(key, format_args!("{value:.decimals$}"))
    }

    /// A duration in seconds, to the microsecond.
    #[must_use]
    pub fn secs(self, key: &'static str, value: Duration) -> Self {
        self.fixed(key, value.as_secs_f64(), 6)
    }

    /// The [`Header`] keys, in report order.
    #[must_use]
    pub fn header(self, header: &Header) -> Self {
        self.text("scale", header.scale.label())
            .field("seed", header.seed)
            .field("records", header.records)
            .field("buckets", header.buckets)
    }

    /// An array of rows, one per line.
    #[must_use]
    pub fn rows(self, key: &'static str, rows: impl IntoIterator<Item = Json>) -> Self {
        let rows: Vec<String> =
            rows.into_iter().map(|r| format!("    {{{}}}", r.join(", ", ""))).collect();
        let newline = if rows.is_empty() { "" } else { "\n" };
        self.field(key, format_args!("[\n{}{newline}  ]", rows.join(",\n")))
    }

    fn join(&self, separator: &str, indent: &str) -> String {
        let fields: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{indent}\"{k}\": {v}")).collect();
        fields.join(separator)
    }

    /// The pretty-printed report, newline-terminated.
    pub fn render(&self) -> String {
        format!("{{\n{}\n}}\n", self.join(",\n", "  "))
    }
}

/// The workload an Adult-scale report ran over.
#[derive(Debug, Clone)]
pub struct Header {
    /// Workload scale.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Records in the workload (at its first epoch).
    pub records: usize,
    /// Buckets in the publication.
    pub buckets: usize,
}

impl Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Header { scale, seed, records, buckets } = self;
        write!(f, "{} scale, seed {seed}: {records} records, {buckets} buckets", scale.label())
    }
}

/// The synthetic Adult data at one scale and its Anatomy publication:
/// the workload every Adult-scale bench and figure runs over.
pub struct Adult {
    /// What the reports record of it.
    pub header: Header,
    /// The original records.
    pub data: Dataset,
    /// Their bucketized publication.
    pub table: PublishedTable,
}

impl Adult {
    /// Generates the data and publishes it.
    pub fn generate(scale: Scale, seed: u64) -> Self {
        let data =
            AdultGenerator::new(AdultGeneratorConfig { records: scale.records(), seed }).generate();
        let table = publish(&data);
        let header = Header { scale, seed, records: data.len(), buckets: table.num_buckets() };
        Self { header, data, table }
    }

    /// The Top-(`k_positive`, `k_negative`) mined rules whose antecedents
    /// hold exactly `arity` QI attributes, as knowledge, positives first;
    /// and how many are positive.
    pub fn top_k(
        &self,
        arity: usize,
        k_positive: usize,
        k_negative: usize,
    ) -> (Vec<Knowledge>, usize) {
        let mined = mine(&self.data, vec![arity]);
        let items = mined.top_k(k_positive, k_negative).into_iter().map(|r| {
            Knowledge::from_rule(r, self.data.schema()).expect("mined rules are valid knowledge")
        });
        (items.collect(), k_positive.min(mined.positive.len()))
    }

    /// [`Adult::top_k`] split into a base set and `deltas` single-rule
    /// deltas. The deltas come from the tail of the positive block
    /// (strong rules, so each re-solves a real component); base order
    /// followed by delta order is the session's insertion order, which a
    /// from-scratch comparator reproduces.
    pub fn base_and_deltas(
        &self,
        arity: usize,
        k_positive: usize,
        k_negative: usize,
        deltas: usize,
    ) -> (Vec<Knowledge>, Vec<Knowledge>) {
        let (items, positives) = self.top_k(arity, k_positive, k_negative);
        let start = positives - deltas.min(positives);
        let base = items[..start].iter().chain(&items[positives..]).cloned().collect();
        (base, items[start..positives].to_vec())
    }
}

/// A knowledge base holding `items` in order.
pub fn knowledge_base(items: impl IntoIterator<Item = Knowledge>) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for item in items {
        kb.push(item).expect("mined rules are valid knowledge");
    }
    kb
}

/// Anatomy-publishes `data` in buckets of five with 5-diversity, the top
/// SA value exempt (the paper's Section 7 setup).
pub fn publish(data: &Dataset) -> PublishedTable {
    AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
        .publish(data)
        .expect("Adult data bucketizes at every scale")
}

/// Mines the rules of `data` whose antecedents hold exactly one of
/// `arities` QI attributes, at support ≥ 3.
pub fn mine(data: &Dataset, arities: Vec<usize>) -> MinedRules {
    RuleMiner::new(MinerConfig { min_support: 3, arities }).mine(data)
}

/// The engine configuration the benches and the accuracy figures solve
/// with: the library defaults, accuracy contract included, on `threads`
/// workers. Mined knowledge is always feasible; boundary-heavy systems
/// converge only asymptotically, but on the paper's figure grid every
/// component stays well inside the contract, so any solve error is a
/// regression.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig::builder().threads(threads).build()
}

/// Deterministically picks the `i`-th single-record delta of `table`,
/// rotating insert / retract / move over records drawn from the table's
/// own multisets, so retraction and move claims hold. Also names the
/// operation.
pub fn pick_delta(table: &PublishedTable, i: usize) -> (TableDelta, &'static str) {
    let m = table.num_buckets();
    let b = (i * 379 + 17) % m;
    let bucket = table.bucket(b);
    let q = bucket.qi_counts()[(i * 53) % bucket.distinct_qi()].0;
    let s = bucket.sa_counts()[(i * 31) % bucket.distinct_sa()].0;
    let tuple = table.interner().tuple(q).to_vec();
    match i % 3 {
        0 => (TableDelta::new().insert(tuple, s, (b + 1) % m), "insert"),
        1 => (TableDelta::new().retract(tuple, s, b), "retract"),
        _ => (TableDelta::new().move_record(tuple, s, b, (b + 1) % m), "move"),
    }
}

/// The upper median of `values` under `cmp`, or `None` when empty.
pub fn median<T: Copy>(mut values: Vec<T>, cmp: impl FnMut(&T, &T) -> Ordering) -> Option<T> {
    values.sort_by(cmp);
    values.get(values.len() / 2).copied()
}

/// Repeated timings of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Upper median: the figure the report records.
    pub median: Duration,
    /// How many repeats the median was taken over.
    pub repeats: usize,
}

impl Timing {
    /// Summarises the repeats.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn of(samples: Vec<Duration>) -> Self {
        let repeats = samples.len();
        let median = median(samples, Ord::cmp).expect("at least one repeat was timed");
        Self { median, repeats }
    }

    /// What a timing floor compares: the median times the repeat count.
    /// Unlike the repeats' sum, one slow repeat cannot lift it over a
    /// floor that the typical repeat stays far below.
    pub fn floor_seconds(&self) -> f64 {
        self.median.as_secs_f64() * self.repeats as f64
    }

    /// Times `repeats` calls of `f` (at least one) and keeps the last
    /// result. Each earlier result is dropped outside the timed call.
    pub fn repeat<T>(repeats: usize, mut f: impl FnMut() -> T) -> (Self, T) {
        let mut last = None;
        let samples = (0..repeats.max(1))
            .map(|_| {
                let t = Instant::now();
                let value = f();
                let elapsed = t.elapsed();
                last = Some(value);
                elapsed
            })
            .collect();
        (Self::of(samples), last.expect("at least one repeat ran"))
    }
}

/// One CI gate: a measured value against a bar its flag arms.
#[derive(Debug, Clone)]
pub struct Gate {
    flag: &'static str,
    what: &'static str,
    value: f64,
    bar: Option<f64>,
    at_most: bool,
    floor: Option<(&'static str, f64, f64)>,
    blocker: Option<String>,
}

/// What a gate concluded, with the line [`finish`] prints for it.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No bar was given.
    Off,
    /// Armed, but its timed baseline is under the floor.
    Skipped(String),
    /// Armed and cleared.
    Passed(String),
    /// Armed and missed, or the run diverged bitwise.
    Failed(String),
}

impl Gate {
    /// Passes when `value >= bar`.
    pub fn at_least(flag: &'static str, what: &'static str, bar: Option<f64>, value: f64) -> Self {
        Self { flag, what, value, bar, at_most: false, floor: None, blocker: None }
    }

    /// Passes when `value <= bar`.
    pub fn at_most(flag: &'static str, what: &'static str, bar: Option<f64>, value: f64) -> Self {
        Self { at_most: true, ..Self::at_least(flag, what, bar, value) }
    }

    /// Skips the armed gate when `timed_seconds` of `timed` is under
    /// `floor_seconds`.
    #[must_use]
    pub fn floor(self, timed: &'static str, timed_seconds: f64, floor_seconds: f64) -> Self {
        Self { floor: Some((timed, timed_seconds, floor_seconds)), ..self }
    }

    /// Fails the armed gate whatever its value, saying why: it observed
    /// nothing eligible, or an eligible run regressed. A gate that cannot
    /// observe what it gates has not passed.
    #[must_use]
    pub fn blocked(self, blocker: Option<String>) -> Self {
        Self { blocker, ..self }
    }

    /// Evaluates the gate.
    pub fn verdict(&self) -> Verdict {
        let Some(bar) = self.bar else {
            return Verdict::Off;
        };
        let name = self.flag.trim_start_matches('-');
        if let Some((timed, seconds, floor)) = self.floor {
            if seconds < floor {
                return Verdict::Skipped(format!(
                    "{name} gate skipped: {timed} ({:.1} ms) is below the {:.0} ms timing floor",
                    seconds * 1e3,
                    floor * 1e3
                ));
            }
        }
        let (flag, what, value) = (self.flag, self.what, number(self.value));
        if let Some(blocker) = &self.blocker {
            return Verdict::Failed(format!("{flag} {bar:.2} is armed but {blocker}"));
        }
        let (passed, relation, missed) = if self.at_most {
            (self.value <= bar, "<=", "exceeds")
        } else {
            (self.value >= bar, ">=", "is below")
        };
        let bar = number(bar);
        if passed {
            Verdict::Passed(format!("{name} gate passed: {what} {value} {relation} {bar}"))
        } else {
            Verdict::Failed(format!("{what} {value} {missed} the {flag} bar {bar}"))
        }
    }
}

/// Integers print whole, everything else to two decimals.
fn number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Whether the run fails, and every verdict it reports: the bitwise
/// divergence first, then one per gate. Evaluation never stops at the
/// first failure, so every armed gate is reported.
pub fn judge(divergence: Option<String>, gates: &[Gate]) -> (bool, Vec<Verdict>) {
    let verdicts: Vec<Verdict> = divergence
        .map(Verdict::Failed)
        .into_iter()
        .chain(gates.iter().map(Gate::verdict))
        .collect();
    (verdicts.iter().any(|v| matches!(v, Verdict::Failed(_))), verdicts)
}

/// Writes the report to `out`, prints every verdict, and exits 1 when the
/// run diverged bitwise (`divergence` says how) or an armed gate failed.
pub fn finish(
    bin: &str,
    out: &str,
    json: &str,
    divergence: Option<String>,
    gates: &[Gate],
) -> ExitCode {
    if let Err(e) = std::fs::write(out, json) {
        return fail(bin, &format!("cannot write {out}: {e}"));
    }
    println!("\nwrote {out}");
    let (failed, verdicts) = judge(divergence, gates);
    for verdict in verdicts {
        match verdict {
            Verdict::Off => {}
            Verdict::Skipped(note) | Verdict::Passed(note) => println!("{note}"),
            Verdict::Failed(message) => eprintln!("{bin}: {message}"),
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(gate: &Gate) -> String {
        match gate.verdict() {
            Verdict::Failed(message) => message,
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn bars_pass_at_the_bar_and_fail_past_it() {
        let speedup =
            |value| Gate::at_least("--min-delta-speedup", "median speedup", Some(5.0), value);
        assert!(matches!(speedup(5.0).verdict(), Verdict::Passed(_)));
        assert!(failed(&speedup(4.99)).contains("4.99 is below the --min-delta-speedup bar 5"));
        // cohort_bench's at-most bars: --max-threads and the flatness ratios.
        let threads = |value| Gate::at_most("--max-threads", "server threads", Some(8.0), value);
        assert!(matches!(threads(8.0).verdict(), Verdict::Passed(_)));
        assert!(failed(&threads(9.0)).contains("9 exceeds the --max-threads bar 8"));
        let ratio = Gate::at_most("--max-ping-ratio", "ping drift ratio", Some(5.0), 0.92);
        assert!(matches!(ratio.verdict(), Verdict::Passed(_)));
        let off = Gate::at_most("--max-ping-ratio", "ping drift ratio", None, 9.0);
        assert_eq!(off.verdict(), Verdict::Off);
    }

    #[test]
    fn gate_below_its_floor_skips_and_names_the_floor() {
        let gate = |timed| {
            Gate::at_least("--min-open-speedup", "open speedup", Some(10.0), 1.0).floor(
                "Analyst::new total",
                timed,
                BASELINE_FLOOR_SECONDS,
            )
        };
        let Verdict::Skipped(note) = gate(0.005).verdict() else { panic!("must skip") };
        assert!(note.contains("Analyst::new total (5.0 ms) is below the 20 ms timing floor"));
        failed(&gate(0.020));
    }

    /// The floor reads median × repeats: one slow repeat among fast ones
    /// does not arm the gate (these five sum to 23 ms), repeats that are
    /// all slow do.
    #[test]
    fn one_slow_repeat_does_not_arm_a_floored_gate() {
        let verdict = |ms: &[u64]| {
            let t = Timing::of(ms.iter().map(|&m| Duration::from_millis(m)).collect());
            Gate::at_least("--min-load-speedup", "load speedup", Some(10.0), 30.0)
                .floor("CompiledTable::build", t.floor_seconds(), BASELINE_FLOOR_SECONDS)
                .verdict()
        };
        assert!(matches!(verdict(&[2, 2, 2, 2, 15]), Verdict::Skipped(_)));
        assert!(matches!(verdict(&[10, 10, 10]), Verdict::Passed(_)));
    }

    #[test]
    fn every_gate_is_judged_and_divergence_fails_unarmed() {
        let gates = [
            Gate::at_least("--min-conns", "connections", Some(5000.0), 4000.0),
            Gate::at_most("--max-threads", "server threads", Some(8.0), 5.0),
            Gate::at_most("--max-ping-ratio", "ping drift ratio", Some(5.0), 9.0),
        ];
        let (fails, verdicts) = judge(None, &gates);
        assert!(fails);
        assert!(matches!(
            verdicts[..],
            [Verdict::Failed(_), Verdict::Passed(_), Verdict::Failed(_)]
        ));
        assert!(!judge(None, &gates[1..2]).0);
        let unarmed = [Gate::at_least("--min-qps", "queries/s", None, 0.0)];
        let (fails, verdicts) = judge(Some("a run diverged".into()), &unarmed);
        assert!(fails);
        assert_eq!(verdicts, [Verdict::Failed("a run diverged".into()), Verdict::Off]);
    }

    #[test]
    fn parser_fills_slots_and_rejects_bad_tokens() {
        let parse = |argv: &[&str]| {
            let (mut scale, mut seed, mut arity, mut bar) = (Scale::Quick, 1u64, 4usize, None);
            let (mut threads, mut k_positive, mut k_negative) = (vec![1], 50, 50);
            parse_flags(
                argv,
                &mut [
                    ("--scale", &mut scale),
                    ("--seed", &mut seed),
                    ("--arity", &mut Positive(&mut arity)),
                    ("--min-speedup", &mut bar),
                    ("--threads", &mut threads),
                    ("--rules", &mut Rules(&mut k_positive, &mut k_negative)),
                ],
            )
            .map(|()| (scale, seed, arity, bar, threads, k_positive + 100 * k_negative))
        };
        assert_eq!(parse(&[]), Ok((Scale::Quick, 1, 4, None, vec![1], 5050)));
        let argv = ["--scale", "full", "--seed", "9", "--min-speedup", "1.5", "--threads", "1,2"];
        assert_eq!(parse(&argv), Ok((Scale::Full, 9, 4, Some(1.5), vec![1, 2], 5050)));
        assert_eq!(parse(&["--rules", "7"]).unwrap().5, 403, "7 rules split 3+ 4-");
        for (argv, expected) in [
            (&["--sead", "9"][..], "unknown flag `--sead`"),
            (&["--seed"][..], "--seed expects a value"),
            (&["--seed", "abc"][..], "bad --seed: `abc`"),
            (&["--min-speedup", "fast"][..], "bad --min-speedup: `fast`"),
            (&["--threads", "1,,2"][..], "bad --threads: `1,,2`"),
            (&["--scale", "medium"][..], "unknown scale `medium`"),
            (&["--arity", "0"][..], "bad --arity: must be positive"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(expected), "{argv:?}: {err}");
        }
    }

    #[test]
    fn json_layout_timing_and_median() {
        let json = Json::report("demo")
            .fixed("ratio", 1.23456, 3)
            .secs("wall_seconds", Duration::from_millis(5))
            .rows(
                "runs",
                [Json::default().field("a", 1).text("k", "x"), Json::default().field("a", 2)],
            )
            .rows("empty", [])
            .render();
        let expected =
            "{\n  \"bench\": \"demo\",\n  \"ratio\": 1.235,\n  \"wall_seconds\": 0.005000,\n  \
                        \"runs\": [\n    {\"a\": 1, \"k\": \"x\"},\n    {\"a\": 2}\n  ],\n  \
                        \"empty\": [\n  ]\n}\n";
        assert_eq!(json, expected);
        let t = Timing::of([3, 1, 2].map(Duration::from_millis).to_vec());
        assert_eq!((t.median, t.repeats), (Duration::from_millis(2), 3));
        assert_eq!(median(vec![9.0, 20.0], f64::total_cmp), Some(20.0), "upper median");
        assert_eq!(median(Vec::<f64>::new(), f64::total_cmp), None);
    }
}
