//! Every repo path the living docs cite must exist.
//!
//! Scans ARCHITECTURE.md, PAPER.md and the verify skill for backticked
//! tokens outside fenced code blocks. A token counts when it starts with
//! `crates/`, `tests/`, `src/`, `examples/`, `perfbench/`, `.github/` or
//! `.claude/`, or names a `BENCH_*.json`. Text after a space or `:` is
//! dropped first, so `engine.rs:593` and `test.rs::case` cite the file. A
//! token with `*` passes when some repo path starts with the text before
//! its first `*`. CHANGES.md and ROADMAP.md are exempt: they record
//! history and plans.

use std::path::Path;

const DOCS: [&str; 3] = ["ARCHITECTURE.md", "PAPER.md", ".claude/skills/verify/SKILL.md"];
const ROOTS: [&str; 7] =
    ["crates/", "tests/", "src/", "examples/", "perfbench/", ".github/", ".claude/"];

/// The backticked tokens of `text`, skipping fenced code blocks.
fn cited(text: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .filter(|line| {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            !fence && !fenced
        })
        .collect();
    let prose = prose.join("\n");
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|token| token.split([' ', ':', '\n']).next().unwrap_or_default().to_string())
        .filter(|token| {
            ROOTS.iter().any(|root| token.starts_with(root))
                || (token.starts_with("BENCH_") && token.ends_with(".json"))
        })
        .collect()
}

/// Whether `token` names a repo path, or with a `*` prefixes one.
fn exists(root: &Path, token: &str) -> bool {
    let Some((prefix, _)) = token.split_once('*') else { return root.join(token).exists() };
    let (dir, name) = prefix.rsplit_once('/').unwrap_or(("", prefix));
    std::fs::read_dir(root.join(dir)).is_ok_and(|entries| {
        entries.flatten().any(|entry| entry.file_name().to_string_lossy().starts_with(name))
    })
}

#[test]
fn doc_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        let tokens = cited(&text);
        assert!(!tokens.is_empty(), "{doc} cites no repo path: the scan is broken");
        missing.extend(
            tokens.into_iter().filter(|t| !exists(root, t)).map(|t| format!("{doc}: `{t}`")),
        );
    }
    assert!(missing.is_empty(), "docs cite paths that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn scan_follows_the_rule() {
    let text = "`crates/a.rs:12` `tests/t.rs::case` `BENCH_x.json` `cargo test`\n\
                ```text\n`crates/fenced.rs`\n```\n`crates/b*.rs` `pipeline.rs`";
    assert_eq!(cited(text), ["crates/a.rs", "tests/t.rs", "BENCH_x.json", "crates/b*.rs"]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(exists(root, "tests/test_doc_*.rs"));
    assert!(exists(root, "BENCH_*.json"));
    assert!(!exists(root, "tests/no_such_*.rs"));
    assert!(!exists(root, "crates/bench/EXPERIMENTS.md"));
}
