//! Tier-1 static-analysis gate: the whole workspace must audit clean, the
//! committed known-bad fixtures must each produce their exact expected
//! diagnostics, and seeded mutations of *real* sources (a lock-order
//! violation in `registry.rs`, a wall-clock read in `partition.rs`) must
//! be caught at the correct `file:line` — proving the rules still detect
//! the violation classes they were written against, not just the shapes
//! in their unit tests.

use std::path::{Path, PathBuf};

use pm_audit::{audit_manifest, audit_source, audit_workspace, Severity, SourceFile};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", "audit", name].iter().collect();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Audits fixture `name` as if it lived at `as_path` in the workspace.
fn audit_fixture(name: &str, as_path: &str) -> (Vec<pm_audit::Diagnostic>, usize) {
    audit_source(&SourceFile::parse(as_path, &fixture(name)))
}

// ---------------------------------------------------------------------------
// The gate: the real workspace is clean.
// ---------------------------------------------------------------------------

#[test]
fn workspace_audits_clean() {
    let report = audit_workspace(workspace_root()).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    let rendered = report.render_human();
    assert_eq!(report.errors(), 0, "unsuppressed audit errors:\n{rendered}");
    assert_eq!(report.warnings(), 0, "audit warnings (stale pragmas?):\n{rendered}");
    assert!(report.is_clean(true));
    assert!(
        report.suppressed > 0,
        "the workspace carries justified suppressions; zero means pragmas stopped parsing"
    );
}

#[test]
fn workspace_report_is_deterministic_and_machine_readable() {
    let a = audit_workspace(workspace_root()).expect("scan");
    let b = audit_workspace(workspace_root()).expect("scan");
    assert_eq!(a.render_json(), b.render_json(), "two scans must render identically");
    let json = a.render_json();
    let summary = json.lines().last().expect("summary line");
    assert!(summary.contains("\"summary\":true"));
    assert!(summary.contains("\"errors\":0"));
}

// ---------------------------------------------------------------------------
// Committed known-bad fixtures: exact file / line / rule.
// ---------------------------------------------------------------------------

#[test]
fn lock_order_fixture_is_caught() {
    let (d, _) = audit_fixture("lock_order_bad.rs", "crates/serve/src/registry.rs");
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(
        (d[0].rule.as_str(), d[0].path.as_str(), d[0].line, d[0].severity),
        ("lock-order", "crates/serve/src/registry.rs", 6, Severity::Error)
    );
    assert!(d[0].message.contains("chain"), "{}", d[0].message);
}

#[test]
fn determinism_fixture_is_caught() {
    let (d, _) = audit_fixture("determinism_bad.rs", "crates/solver/src/fixture.rs");
    let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        got,
        vec![("determinism", 4), ("determinism", 5), ("determinism", 6)],
        "{d:?}"
    );
    assert!(d[2].message.contains("counts.iter()"), "{}", d[2].message);
}

#[test]
fn panic_policy_fixture_is_caught_and_test_mod_exempt() {
    let (d, _) = audit_fixture("panic_policy_bad.rs", "crates/serve/src/conn.rs");
    let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        got,
        vec![
            ("panic-policy", 4),  // buf[0]
            ("panic-policy", 5),  // .unwrap()
            ("panic-policy", 6),  // .expect()
            ("panic-policy", 7),  // panic!
        ],
        "{d:?}"
    );
    // The unwrap and indexing inside #[cfg(test)] (lines 10..) must NOT
    // appear — the exemption is what makes the rule adoptable.
    assert!(d.iter().all(|d| d.line < 10), "{d:?}");
}

#[test]
fn error_code_fixture_is_caught() {
    let (d, _) = audit_fixture("error_code_bad.rs", "crates/serve/src/protocol.rs");
    let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        got,
        vec![("error-code-range", 7), ("error-code-range", 9)],
        "{d:?}"
    );
    assert!(d[0].message.contains("reuses discriminant 1"));
    assert!(d[1].message.contains("application range"));
}

#[test]
fn shim_bypass_fixture_is_caught() {
    let d = audit_manifest("crates/bad/Cargo.toml", &fixture("shim_bypass_Cargo.toml"));
    let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(got, vec![("shim-hygiene", 7), ("shim-hygiene", 8)], "{d:?}");
}

#[test]
fn suppression_round_trip() {
    let (d, suppressed) = audit_fixture("suppressed_ok.rs", "crates/solver/src/fixture.rs");
    assert!(d.is_empty(), "valid pragmas must silence the findings: {d:?}");
    assert_eq!(suppressed, 2, "both the trailing and the standalone pragma must bind");
}

#[test]
fn pragma_hygiene_fixture() {
    let (d, suppressed) = audit_fixture("pragma_no_reason.rs", "crates/solver/src/fixture.rs");
    assert_eq!(suppressed, 0, "none of these pragmas may suppress anything");
    let got: Vec<(&str, u32, Severity)> =
        d.iter().map(|d| (d.rule.as_str(), d.line, d.severity)).collect();
    assert!(
        got.contains(&("determinism", 4, Severity::Error)),
        "reasonless pragma must not hide the finding: {d:?}"
    );
    assert!(got.contains(&("pragma", 4, Severity::Error)), "missing reason: {d:?}");
    assert!(got.contains(&("pragma", 5, Severity::Error)), "unknown rule id: {d:?}");
    assert!(got.contains(&("pragma", 6, Severity::Warning)), "stale pragma: {d:?}");
    assert_eq!(d.len(), 4, "{d:?}");
}

// ---------------------------------------------------------------------------
// Mutation tests: seed a violation into the REAL sources; the rule must
// catch it at exactly the seeded line.
// ---------------------------------------------------------------------------

#[test]
fn seeded_lock_order_violation_in_real_registry_is_caught() {
    let src = std::fs::read_to_string(workspace_root().join("crates/serve/src/registry.rs"))
        .expect("read registry.rs");
    let base_lines = src.lines().count() as u32;
    let mutated = format!(
        "{src}impl Registry {{\n    fn seeded(&self) {{\n        let guard = self.tenants.read();\n        let latest = self.latest();\n    }}\n}}\n"
    );
    let (clean, _) = audit_source(&SourceFile::parse("crates/serve/src/registry.rs", &src));
    assert!(clean.is_empty(), "today's registry must be clean: {clean:?}");
    let (d, _) = audit_source(&SourceFile::parse("crates/serve/src/registry.rs", &mutated));
    let hits: Vec<&pm_audit::Diagnostic> =
        d.iter().filter(|d| d.rule == "lock-order").collect();
    assert_eq!(hits.len(), 1, "{d:?}");
    assert_eq!(hits[0].line, base_lines + 4, "anchored to the seeded `self.latest()` line");
}

#[test]
fn seeded_hash_iteration_in_real_batcher_is_caught() {
    // The session's dispatch order IS the merge order (bit-identity
    // anchor), so the determinism rule must cover the module that sets it:
    // seed a dispatch list built by iterating a hash-ordered set.
    let src = std::fs::read_to_string(workspace_root().join("crates/core/src/analyst.rs"))
        .expect("read analyst.rs");
    let base_lines = src.lines().count() as u32;
    // Named so it cannot collide with real bindings: the rule's hash-name
    // pass is file-global.
    let mutated = format!(
        "{src}fn seeded_plan(seeded_set: HashSet<usize>) -> Vec<usize> {{\n    let mut order = Vec::new();\n    for ci in seeded_set.iter() {{\n        order.push(*ci);\n    }}\n    order\n}}\n"
    );
    let (clean, _) = audit_source(&SourceFile::parse("crates/core/src/analyst.rs", &src));
    assert!(clean.is_empty(), "today's analyst.rs must be clean: {clean:?}");
    let (d, _) = audit_source(&SourceFile::parse("crates/core/src/analyst.rs", &mutated));
    let hits: Vec<&pm_audit::Diagnostic> =
        d.iter().filter(|d| d.rule == "determinism").collect();
    assert_eq!(hits.len(), 1, "{d:?}");
    assert_eq!(hits[0].line, base_lines + 3, "anchored to the seeded hash iteration line");
    assert!(hits[0].message.contains("hash-ordered"), "{}", hits[0].message);
}

#[test]
fn seeded_wall_clock_read_in_real_overlay_is_caught() {
    // The flat overlay joined the determinism scope with this refactor;
    // prove the rule actually bites there, not just in its unit tests.
    let src = std::fs::read_to_string(workspace_root().join("crates/core/src/overlay.rs"))
        .expect("read overlay.rs");
    let base_lines = src.lines().count() as u32;
    let mutated =
        format!("{src}fn seeded_stamp() {{\n    let t = std::time::Instant::now();\n}}\n");
    let (clean, _) = audit_source(&SourceFile::parse("crates/core/src/overlay.rs", &src));
    assert!(clean.is_empty(), "today's overlay.rs must be clean: {clean:?}");
    let (d, _) = audit_source(&SourceFile::parse("crates/core/src/overlay.rs", &mutated));
    let hits: Vec<&pm_audit::Diagnostic> =
        d.iter().filter(|d| d.rule == "determinism").collect();
    assert_eq!(hits.len(), 1, "{d:?}");
    assert_eq!(hits[0].line, base_lines + 2, "anchored to the seeded Instant::now line");
}

#[test]
fn seeded_wall_clock_read_in_real_partition_is_caught() {
    let src = std::fs::read_to_string(workspace_root().join("crates/core/src/partition.rs"))
        .expect("read partition.rs");
    let base_lines = src.lines().count() as u32;
    let mutated = format!("{src}fn seeded_stamp() {{\n    let t = std::time::Instant::now();\n}}\n");
    let (clean, _) = audit_source(&SourceFile::parse("crates/core/src/partition.rs", &src));
    assert!(clean.is_empty(), "today's partition.rs must be clean: {clean:?}");
    let (d, _) = audit_source(&SourceFile::parse("crates/core/src/partition.rs", &mutated));
    let hits: Vec<&pm_audit::Diagnostic> =
        d.iter().filter(|d| d.rule == "determinism").collect();
    assert_eq!(hits.len(), 1, "{d:?}");
    assert_eq!(hits[0].line, base_lines + 2, "anchored to the seeded Instant::now line");
}
