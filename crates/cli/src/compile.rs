//! `pmx compile` — prebuild the shared `CompiledTable` artifact and print
//! its stats.
//!
//! Everything knowledge-independent about a publication (term index,
//! D'-invariants, QI→bucket inverted index, baseline partition + Theorem 5
//! solution) compiles exactly once into the artifact; `pmx session` reuses
//! the same build path, so a scripted session pays the compile once and
//! every session (re)open from it is O(1) — see the `reset` session
//! command.

use std::error::Error;
use std::sync::Arc;

use pm_microdata::dataset::Dataset;
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::engine::EngineConfig;

use crate::args::{CompileOptions, Options};
use crate::quantify;

/// Loads the microdata, publishes it and compiles the artifact under the
/// library's default engine config (and its accuracy contract) with
/// `--threads` applied — the shared front half of `pmx compile`,
/// `pmx session` and `pmx serve`.
pub(crate) fn build_artifact(
    options: &Options,
) -> Result<(Dataset, Arc<CompiledTable>), Box<dyn Error>> {
    let data = quantify::load_source(options)?;
    let table = quantify::publish(&data, options)?;
    let config = EngineConfig::builder().threads(options.threads).build();
    let artifact = Arc::new(CompiledTable::build(table, config)?);
    println!("{}", artifact.stats());
    Ok((data, artifact))
}

/// Runs `pmx compile`: build the artifact once, print its stats, exit —
/// optionally saving it as a versioned snapshot (`--out`) that
/// `pmx session --artifact` / `--persist` reopens without recompiling.
pub fn run(options: &CompileOptions) -> Result<(), Box<dyn Error>> {
    let (_, artifact) = build_artifact(&options.base)?;
    println!(
        "baseline max disclosure (no background knowledge): {:.4}",
        privacy_maxent::metrics::max_disclosure(&artifact.baseline_estimate())
    );
    if let Some(out) = &options.out {
        let bytes = artifact.save(out)?;
        println!(
            "saved snapshot: {bytes} bytes -> {out} (reopen with `pmx session --artifact {out}`)"
        );
    }
    println!(
        "this is the exact knowledge-independent build `pmx session` runs at \
         startup; within a session, every open and `reset` reuses it in O(1)"
    );
    Ok(())
}
