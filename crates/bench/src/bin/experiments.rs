//! Experiment driver: regenerates every result figure of the paper.
//!
//! ```text
//! cargo run --release -p pm-bench --bin experiments -- [fig5|fig6|fig7a|fig7b|fig7c|all] [--full] [--seed N]
//! ```
//!
//! Default scale is `quick` (2,500 records, arities ≤ 3, minutes);
//! `--full` runs the paper's scale (14,210 records / 2,842 buckets /
//! arities ≤ 8), which takes substantially longer on the Figure 5/6
//! sweeps. Any other argument exits 1 with a message naming it.

use std::process::ExitCode;

use pm_bench::figures::Experiments;
use pm_bench::harness;

fn main() -> ExitCode {
    match Experiments::parse(std::env::args().skip(1)) {
        Ok(experiments) => {
            experiments.run();
            ExitCode::SUCCESS
        }
        Err(e) => harness::fail("experiments", &e),
    }
}
