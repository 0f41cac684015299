//! Reproductions of the paper's result figures.
//!
//! Each function prints the same series the paper plots and returns the
//! numbers for programmatic use. Absolute numbers differ — our substrate
//! is a synthetic Adult stand-in on different hardware — but the *shapes*
//! are the reproduction target.

use std::time::Duration;

use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use privacy_maxent::engine::{Engine, EngineConfig, EngineStats};
use privacy_maxent::knowledge::KnowledgeBase;
use privacy_maxent::metrics::estimation_accuracy;

use crate::harness::{engine_config, mine, publish, FlagValue};
use crate::pipeline::{accuracy_for_rules, prepare, ExperimentData, Scale};

/// One point of an accuracy-vs-K curve.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Number of rules (K).
    pub k: usize,
    /// Estimation accuracy (weighted KL).
    pub accuracy: f64,
    /// Total solver time.
    pub solve_time: Duration,
}

/// A named curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label (`K+`, `K-`, `(K+, K-)`, `T=3`, …).
    pub label: String,
    /// The series.
    pub points: Vec<AccuracyPoint>,
}

/// Performance-experiment config for [`Engine::estimate_joint`]: the
/// paper's timing runs report solves that *converge*, so the dual tolerance
/// is the practical 1e-4 (count space) rather than the accuracy
/// experiments' 1e-9 — boundary-heavy systems then terminate inside the
/// iteration budget instead of polishing digits the timing axis cannot
/// show.
fn perf_config() -> EngineConfig {
    EngineConfig::builder().tolerance(1e-4).build()
}

fn k_grid(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![0, 100, 500, 1000, 5000, 10_000, 20_000, 50_000],
        Scale::Quick => vec![0, 20, 50, 100, 250, 500, 1000, 2000],
    }
}

fn curve_for(
    exp: &ExperimentData,
    label: &str,
    ks: &[usize],
    pick: impl Fn(usize) -> (usize, usize),
) -> Curve {
    let mut points = Vec::new();
    for &k in ks {
        let (kp, kn) = pick(k);
        let picked = exp.rules.top_k(kp, kn);
        let (accuracy, stats) = accuracy_for_rules(exp, &picked, engine_config(0));
        points.push(AccuracyPoint { k, accuracy, solve_time: stats.total_elapsed });
    }
    Curve { label: label.to_string(), points }
}

fn print_curves(title: &str, xlabel: &str, curves: &[Curve]) {
    println!("\n=== {title} ===");
    print!("{xlabel:>10}");
    for c in curves {
        print!("  {:>12}", c.label);
    }
    println!();
    let xs: Vec<usize> = curves[0].points.iter().map(|p| p.k).collect();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for c in curves {
            print!("  {:>12.4}", c.points[i].accuracy);
        }
        println!();
    }
}

/// **Figure 5** — Estimation Accuracy vs. number of association rules, for
/// the `K+`, `K−` and mixed `(K+, K−)` bounds.
pub fn figure5(scale: Scale, seed: u64) -> Vec<Curve> {
    let exp = prepare(scale, seed);
    let ks = k_grid(scale);
    let curves = vec![
        curve_for(&exp, "K+", &ks, |k| (k, 0)),
        curve_for(&exp, "K-", &ks, |k| (0, k)),
        curve_for(&exp, "(K+,K-)", &ks, |k| (k / 2, k - k / 2)),
    ];
    print_curves(
        "Figure 5: positive and negative association rules",
        "K",
        &curves,
    );
    curves
}

/// **Figure 6** — Estimation Accuracy vs. K for rules whose antecedents
/// contain exactly `T` QI attributes, `T = 1..=max_t`.
pub fn figure6(scale: Scale, seed: u64) -> Vec<Curve> {
    let max_t = match scale {
        Scale::Full => 8,
        Scale::Quick => 4,
    };
    // Shared data; per-T rule mining.
    let exp = prepare(scale, seed);
    let ks = k_grid(scale);
    let mut curves = Vec::new();
    for t in 1..=max_t {
        let rules = mine(&exp.data, vec![t]);
        let mut points = Vec::new();
        for &k in &ks {
            let picked = rules.top_k(k / 2, k - k / 2);
            let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema())
                .expect("mined rules valid");
            let est = Engine::new(engine_config(0))
                .estimate(&exp.table, &kb)
                .expect("mined knowledge feasible");
            points.push(AccuracyPoint {
                k,
                accuracy: estimation_accuracy(&exp.truth, &est),
                solve_time: est.stats.total_elapsed,
            });
        }
        curves.push(Curve { label: format!("T={t}"), points });
    }
    print_curves(
        "Figure 6: number of QI attributes in knowledge",
        "K",
        &curves,
    );
    curves
}

/// One point of a performance sweep.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// X value (constraints for 7(a), buckets for 7(b)/(c)).
    pub x: usize,
    /// Solver wall time.
    pub time: Duration,
    /// Solver iterations (single joint solve: the Section 5.5 optimisation
    /// is disabled here, matching the paper's performance runs).
    pub iterations: usize,
    /// Why the joint solve stopped, as the tables print it: a point that
    /// hit the iteration budget plots the budget, not a converged solve
    /// (`-` when preprocessing fixed every term).
    pub stop: String,
}

impl PerfPoint {
    /// The point of one [`Engine::estimate_joint`] solve at `x`.
    fn of(x: usize, stats: &EngineStats) -> Self {
        Self {
            x,
            time: stats.solver_elapsed(),
            iterations: stats.max_iterations(),
            stop: stats
                .component_stats
                .first()
                .map_or_else(|| "-".into(), |s| format!("{:?}", s.stop)),
        }
    }
}

/// **Figure 7(a)** — running time and iterations vs. number of
/// background-knowledge constraints (log-spaced), fixed dataset.
pub fn figure7a(scale: Scale, seed: u64) -> Vec<PerfPoint> {
    let exp = prepare(scale, seed);
    let grid: Vec<usize> = match scale {
        Scale::Full => vec![100, 300, 1000, 3000, 10_000, 30_000],
        Scale::Quick => vec![30, 100, 300, 1000, 3000],
    };
    let mut out = Vec::new();
    println!("\n=== Figure 7(a): performance vs knowledge ===");
    println!("{:>12}  {:>12}  {:>10}  {:>16}", "#constraints", "time(s)", "iterations", "stop");
    for &k in &grid {
        let picked = exp.rules.top_k(k / 2, k - k / 2);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema())
            .expect("mined rules valid");
        let stats = Engine::new(perf_config())
            .estimate_joint(&exp.table, &kb)
            .expect("mined knowledge feasible")
            .stats;
        let point = PerfPoint::of(k, &stats);
        println!(
            "{:>12}  {:>12.3}  {:>10}  {:>16}",
            point.x,
            point.time.as_secs_f64(),
            point.iterations,
            point.stop
        );
        out.push(point);
    }
    out
}

/// **Figures 7(b) & 7(c)** — running time (b) and iterations (c) vs. number
/// of buckets, one curve per background-knowledge size.
///
/// Each dataset size is generated, bucketized and mined independently so
/// its constraint system is self-consistent (the paper varies "the size of
/// dataset, i.e., the number of buckets").
pub fn figure7bc(scale: Scale, seed: u64) -> Vec<(usize, Vec<PerfPoint>)> {
    let (max_records, constraint_curves): (usize, Vec<usize>) = match scale {
        Scale::Full => (14_210, vec![0, 100, 1000, 10_000]),
        Scale::Quick => (2_500, vec![0, 50, 200, 1000]),
    };
    let sizes: Vec<usize> = (1..=5)
        .map(|i| max_records * i / 5 / 5 * 5) // multiples of 5 records
        .collect();
    let full = AdultGenerator::new(AdultGeneratorConfig { records: max_records, seed })
        .generate();

    let mut results = Vec::new();
    println!("\n=== Figure 7(b)/(c): performance vs data size ===");
    println!(
        "{:>12} {:>9} {:>12} {:>11} {:>16}",
        "#constraints", "#buckets", "time(s)", "iterations", "stop"
    );
    for &kc in &constraint_curves {
        let mut series = Vec::new();
        for &n in &sizes {
            let data = full.head(n);
            let table = publish(&data);
            let rules = mine(&data, scale.arities());
            let picked = rules.top_k(kc / 2, kc - kc / 2);
            let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema())
                .expect("mined rules valid");
            let est = Engine::new(perf_config()).estimate_joint(&table, &kb).expect("feasible");
            let point = PerfPoint::of(table.num_buckets(), &est.stats);
            println!(
                "{kc:>12} {:>9} {:>12.3} {:>11} {:>16}",
                point.x,
                point.time.as_secs_f64(),
                point.iterations,
                point.stop
            );
            series.push(point);
        }
        results.push((kc, series));
    }
    results
}

/// The figures the `experiments` binary runs, from its command line:
/// `[fig5|fig6|fig7a|fig7b|fig7c|all]... [--full] [--seed N]`. No figure
/// named means all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiments {
    /// Paper scale with `--full`, else quick.
    pub scale: Scale,
    /// Generator seed (`--seed`, default 1).
    pub seed: u64,
    /// Figures named on the command line.
    pub figures: Vec<String>,
}

impl Experiments {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Names the bad token: an unknown figure or flag, or a `--seed`
    /// without a number after it.
    pub fn parse<S: AsRef<str>>(argv: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let mut exp = Self { scale: Scale::Quick, seed: 1, figures: Vec::new() };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            match arg.as_ref() {
                "--full" => exp.scale = Scale::Full,
                "--seed" => {
                    let raw = argv.next().ok_or("--seed expects a value")?;
                    exp.seed.set(raw.as_ref()).map_err(|e| format!("bad --seed: {e}"))?;
                }
                fig @ ("fig5" | "fig6" | "fig7a" | "fig7b" | "fig7c" | "all") => {
                    exp.figures.push(fig.to_string());
                }
                other => return Err(format!("unknown figure or flag `{other}`")),
            }
        }
        Ok(exp)
    }

    fn wants(&self, figure: &str) -> bool {
        self.figures.is_empty() || self.figures.iter().any(|f| f == figure || f == "all")
    }

    /// Runs the selected figures in paper order.
    pub fn run(&self) {
        println!(
            "Privacy-MaxEnt experiment harness — scale: {:?}, seed: {}\n\
             (accuracy = weighted KL distance; lower = adversary closer to truth)",
            self.scale, self.seed
        );
        if self.wants("fig5") {
            figure5(self.scale, self.seed);
        }
        if self.wants("fig6") {
            figure6(self.scale, self.seed);
        }
        if self.wants("fig7a") {
            figure7a(self.scale, self.seed);
        }
        if self.wants("fig7b") || self.wants("fig7c") {
            // 7(b) and 7(c) share one sweep: time and iterations per point.
            figure7bc(self.scale, self.seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_keeps_its_surface_and_names_bad_tokens() {
        let all = Experiments::parse(Vec::<String>::new()).unwrap();
        assert_eq!(all, Experiments { scale: Scale::Quick, seed: 1, figures: vec![] });
        assert!(all.wants("fig5") && all.wants("fig7c"));
        let some = Experiments::parse(["fig7b", "--full", "--seed", "7", "fig5"]).unwrap();
        assert_eq!((some.scale, some.seed), (Scale::Full, 7));
        assert!(some.wants("fig5") && some.wants("fig7b") && !some.wants("fig6"));
        assert!(Experiments::parse(["all"]).unwrap().wants("fig6"));
        for (argv, token) in [
            (&["fig9", "--seed", "abc", "--ful"][..], "`fig9`"),
            (&["fig5", "--ful"][..], "`--ful`"),
            (&["--seed", "abc"][..], "`abc`"),
            (&["--seed"][..], "--seed expects a value"),
        ] {
            let err = Experiments::parse(argv).unwrap_err();
            assert!(err.contains(token), "{argv:?}: {err}");
        }
    }
}
