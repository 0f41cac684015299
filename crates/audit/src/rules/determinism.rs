//! **determinism** — the engine's headline guarantee is bit-identical
//! estimates across thread counts, epochs, rebases and server replay, so
//! the solve/compile hot paths must not read wall clocks into anything
//! observable or iterate hash-ordered collections into ordered outputs.
//! This rule flags, inside `pm-solver`, `pm-linalg`, `pm-parallel` and the
//! core `engine`/`compiled`/`delta`/`partition` modules — plus the session
//! layer's `analyst` (component dispatch + merge) and `overlay` (flat
//! epoch-indexed solution memory) modules, whose ordering decisions decide
//! the merge order:
//!
//! * any `SystemTime` use and any `Instant::now` call — wall-clock reads.
//!   Telemetry-only timing (solver stats, `CompileStats`) is legitimate
//!   but must say so with a pragma, which turns an implicit assumption
//!   into a reviewed, greppable contract;
//! * iteration over a `HashMap`/`HashSet`-typed binding (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for _ in map`, …) — hash order
//!   is nondeterministic across processes, so any collection into an
//!   ordered output must either use a `BTreeMap`, sort afterwards, or
//!   justify order-independence with a pragma.

use std::collections::BTreeSet;

use crate::source::{Diagnostic, Severity, SourceFile};

/// Rule id.
pub const ID: &str = "determinism";
/// Catalog summary.
pub const SUMMARY: &str =
    "solver/linalg/parallel/core hot paths (incl. analyst/overlay): \
     no wall-clock reads, no hash-ordered iteration into ordered outputs \
     (bit-replayability contract)";

/// Iteration methods whose order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Scope: the solver, linalg and parallel crates wholesale, plus the core
/// modules on the compile/solve path — including the session layer's
/// dispatch and overlay modules (`analyst`, `overlay`), where a
/// hash-ordered iteration would reorder the dispatch or the merge.
#[must_use]
pub fn applies(rel_path: &str) -> bool {
    rel_path.starts_with("crates/solver/src/")
        || rel_path.starts_with("crates/linalg/src/")
        || rel_path.starts_with("crates/parallel/src/")
        || matches!(
            rel_path,
            "crates/core/src/engine.rs"
                | "crates/core/src/compiled.rs"
                | "crates/core/src/delta.rs"
                | "crates/core/src/partition.rs"
                | "crates/core/src/analyst.rs"
                | "crates/core/src/overlay.rs"
        )
}

/// The check.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;

    // Pass 1: names bound to hash-ordered collections — `name: HashMap<…>`
    // ascriptions (fields, params, lets) and `let [mut] name = …HashMap::…`
    // initialisations.
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    let mut pending_let: Option<String> = None;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            pending_let = None;
            continue;
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            pending_let = toks.get(j).and_then(|t| t.ident()).map(str::to_string);
            continue;
        }
        let is_hash_ty = t
            .ident()
            .is_some_and(|id| id == "HashMap" || id == "HashSet");
        if !is_hash_ty {
            continue;
        }
        // `name : HashMap <` — a typed field / param / binding.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
            && toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(name) = i
                .checked_sub(2)
                .and_then(|k| toks.get(k))
                .and_then(|t| t.ident())
            {
                hash_names.insert(name.to_string());
            }
        }
        // `let name = … HashMap :: new()` — an inferred binding.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(name) = pending_let.take() {
                hash_names.insert(name);
            }
        }
    }

    // Pass 2: violations.
    let mut in_for_header = false;
    let mut after_in = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.in_test_code(t.line) {
            continue;
        }
        if t.is_ident("for") {
            in_for_header = true;
            after_in = false;
        } else if in_for_header && t.is_ident("in") {
            after_in = true;
        } else if t.is_punct('{') || t.is_punct(';') {
            in_for_header = false;
            after_in = false;
        }

        // Wall-clock reads.
        if t.is_ident("SystemTime") {
            out.push(diag(
                file,
                t.line,
                "`SystemTime` read on a deterministic path; results must be a pure \
                 function of the inputs. If this is telemetry that never feeds \
                 result bytes, say so with a pragma",
            ));
            continue;
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(diag(
                file,
                t.line,
                "`Instant::now` on a deterministic path; results must be a pure \
                 function of the inputs. If this is telemetry that never feeds \
                 result bytes, say so with a pragma",
            ));
            continue;
        }

        // Hash-ordered iteration.
        let Some(name) = t.ident() else { continue };
        if !hash_names.contains(name) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .and_then(|t| t.ident())
                .is_some_and(|m| ITER_METHODS.contains(&m))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let method = toks.get(i + 2).and_then(|t| t.ident()).unwrap_or_default();
            out.push(diag(
                file,
                t.line,
                &format!(
                    "`{name}.{method}()` iterates a hash-ordered collection; hash \
                     order differs across processes, so anything collected from it \
                     in order breaks bit-replayability. Sort first, use a BTreeMap, \
                     or justify order-independence with a pragma"
                ),
            ));
        } else if in_for_header && after_in {
            out.push(diag(
                file,
                t.line,
                &format!(
                    "`for _ in {name}` iterates a hash-ordered collection; hash \
                     order differs across processes, so anything collected from it \
                     in order breaks bit-replayability. Sort first, use a BTreeMap, \
                     or justify order-independence with a pragma"
                ),
            ));
        }
    }
}

fn diag(file: &SourceFile, line: u32, message: &str) -> Diagnostic {
    Diagnostic {
        rule: ID.to_string(),
        severity: Severity::Error,
        path: file.rel_path.clone(),
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("crates/solver/src/lbfgs.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_wall_clock_reads() {
        let d = run("fn f() {\nlet start = Instant::now();\nlet t = SystemTime::now();\n}\n");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn flags_hash_iteration_by_ascription_and_inference() {
        let d = run("struct S { overlay: HashMap<usize, f64> }\n\
                     fn f(s: &S) {\n\
                     let mut local = std::collections::HashMap::new();\n\
                     local.insert(1, 2);\n\
                     for (k, v) in &s.overlay {\n\
                     }\n\
                     let keys: Vec<_> = local.keys().collect();\n\
                     }\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 5, "for-loop over ascribed field");
        assert_eq!(d[1].line, 7, ".keys() on inferred binding");
    }

    #[test]
    fn keyed_lookup_is_deterministic_and_allowed() {
        let d = run("fn f() {\n\
                     let mut local_of = std::collections::HashMap::new();\n\
                     local_of.insert(t, 1);\n\
                     let x = local_of[&t];\n\
                     let y = local_of.get(&t);\n\
                     }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn vec_iteration_is_fine() {
        let d = run("fn f(v: Vec<u8>) { for x in v.iter() {} }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scope_covers_the_solve_path_and_batching_modules() {
        assert!(applies("crates/solver/src/maxent.rs"));
        assert!(applies("crates/core/src/partition.rs"));
        assert!(applies("crates/core/src/analyst.rs"), "component dispatch + merge");
        assert!(applies("crates/core/src/overlay.rs"), "flat overlay memory");
        assert!(applies("crates/parallel/src/lib.rs"), "chunk executor");
        assert!(!applies("crates/core/src/knowledge.rs"));
        assert!(!applies("crates/bench/src/parallel.rs"));
        assert!(!applies("crates/audit/src/rules/determinism.rs"));
    }
}
