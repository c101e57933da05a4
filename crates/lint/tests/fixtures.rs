//! Fixture-file tests: every shipped rule, with exact line/column
//! assertions.
//!
//! The fixture sources live under `crates/lint/fixtures/` — a directory the
//! workspace walker skips, so the lint binary never scans them — and are
//! lexed here under synthetic workspace paths, so each rule sees exactly
//! the shape it polices.

use lint::rules::{
    FloatExactCompare, MissingDocsGate, NoPanicInEngine, NoSendUnderLock, Rule, ScopedThreadsOnly,
    SingleClock, VendorHygiene,
};
use lint::{CrateRoot, ManifestFile, Violation, Workspace};

const PANIC_SRC: &str = include_str!("../fixtures/panic.rs");
const CLOCK_SRC: &str = include_str!("../fixtures/clock.rs");
const FLOAT_SRC: &str = include_str!("../fixtures/float.rs");
const THREADS_SRC: &str = include_str!("../fixtures/threads.rs");
const LOCK_SRC: &str = include_str!("../fixtures/lock.rs");
const DOCS_GATED_SRC: &str = include_str!("../fixtures/docs_gated.rs");
const DOCS_UNGATED_SRC: &str = include_str!("../fixtures/docs_ungated.rs");
const VENDOR_SRC: &str = include_str!("../fixtures/vendor.toml");

/// Run one rule over one in-memory source and return the sorted findings
/// plus the suppressed count.
fn check_one(rule: Box<dyn Rule>, path: &str, text: &str) -> (Vec<Violation>, usize) {
    Workspace::from_sources(&[(path, text)]).check(&[rule])
}

/// The `(line, column)` pairs of the findings, in report order.
fn positions(violations: &[Violation]) -> Vec<(usize, usize)> {
    violations.iter().map(|v| (v.line, v.column)).collect()
}

#[test]
fn no_panic_in_engine_fixture() {
    let path = "crates/online/src/fixture_panic.rs";
    let (violations, suppressed) = check_one(Box::new(NoPanicInEngine), path, PANIC_SRC);
    assert_eq!(
        positions(&violations),
        vec![(4, 32), (5, 36), (7, 9), (9, 5), (13, 5)],
        "unwrap, expect, panic!, todo!, unimplemented! at exact positions"
    );
    assert!(violations.iter().all(|v| v.rule == "no-panic-in-engine"));
    assert_eq!(
        violations[0].snippet,
        "let first = values.first().unwrap();"
    );
    assert!(violations[2].message.contains("panic!"));
    // The `lint:allow(no-panic-in-engine)` line fires but is suppressed;
    // the commented/string mentions and the `#[cfg(test)]` module never
    // fire at all.
    assert_eq!(suppressed, 1);
}

#[test]
fn no_panic_in_engine_ignores_non_engine_crates() {
    let path = "crates/telemetry/src/fixture_panic.rs";
    let (violations, suppressed) = check_one(Box::new(NoPanicInEngine), path, PANIC_SRC);
    assert!(violations.is_empty());
    assert_eq!(suppressed, 0);
}

#[test]
fn single_clock_fixture() {
    let path = "crates/cli/src/bin/fixture_clock.rs";
    let (violations, suppressed) = check_one(Box::new(SingleClock), path, CLOCK_SRC);
    assert_eq!(positions(&violations), vec![(4, 28)]);
    assert_eq!(violations[0].rule, "single-clock");
    assert_eq!(
        violations[0].snippet,
        "let start = std::time::Instant::now();"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn single_clock_exempts_the_span_timer() {
    let path = "crates/telemetry/src/clock.rs";
    let (violations, _) = check_one(Box::new(SingleClock), path, CLOCK_SRC);
    assert!(
        violations.is_empty(),
        "SpanTimer's own file may touch the clock"
    );
}

#[test]
fn float_exact_compare_fixture() {
    let path = "crates/simulator/src/fixture_float.rs";
    let (violations, suppressed) = check_one(Box::new(FloatExactCompare), path, FLOAT_SRC);
    assert_eq!(
        positions(&violations),
        vec![(4, 14), (8, 11)],
        "`makespan == target` and `ratio != 1.0`; `.len()` compares stay quiet"
    );
    assert!(violations.iter().all(|v| v.rule == "float-exact-compare"));
    assert!(violations[0].message.contains("`makespan` vs `target`"));
    assert_eq!(suppressed, 1, "the lint:allow(float-exact-compare) line");
}

#[test]
fn scoped_threads_only_fixture() {
    let path = "crates/simulator/src/fixture_threads.rs";
    let (violations, suppressed) = check_one(Box::new(ScopedThreadsOnly), path, THREADS_SRC);
    assert_eq!(
        positions(&violations),
        vec![(4, 23)],
        "thread::spawn fires; thread::scope / scope.spawn stay quiet"
    );
    assert_eq!(violations[0].rule, "scoped-threads-only");
    assert_eq!(suppressed, 0);
}

#[test]
fn no_send_under_lock_fixture() {
    let path = "crates/simulator/src/fixture_lock.rs";
    let (violations, suppressed) = check_one(Box::new(NoSendUnderLock), path, LOCK_SRC);
    assert_eq!(
        positions(&violations),
        vec![(4, 8)],
        "send on the lock-holding line fires; bind-then-send stays quiet"
    );
    assert_eq!(violations[0].rule, "no-send-under-lock");
    assert_eq!(
        violations[0].snippet,
        "tx.send(*state.lock().expect(\"poisoned\")).ok();"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn missing_docs_gate_fixture() {
    let mut ws = Workspace::from_sources(&[
        ("crates/gated/src/lib.rs", DOCS_GATED_SRC),
        ("crates/ungated/src/lib.rs", DOCS_UNGATED_SRC),
    ]);
    ws.crate_roots = vec![
        CrateRoot {
            name: "gated".to_string(),
            path: "crates/gated/src/lib.rs".to_string(),
        },
        CrateRoot {
            name: "ungated".to_string(),
            path: "crates/ungated/src/lib.rs".to_string(),
        },
    ];
    let (violations, suppressed) = ws.check(&[Box::new(MissingDocsGate) as Box<dyn Rule>]);
    assert_eq!(positions(&violations), vec![(1, 1)]);
    assert_eq!(violations[0].rule, "missing-docs-gate");
    assert_eq!(violations[0].path, "crates/ungated/src/lib.rs");
    // The gate mentioned inside a comment does not satisfy the rule — only
    // the masked code channel counts.
    assert!(violations[0].message.contains("crate `ungated`"));
    assert_eq!(suppressed, 0);
}

#[test]
fn vendor_hygiene_fixture() {
    let ws = Workspace {
        manifests: vec![ManifestFile {
            path: "crates/fixture/Cargo.toml".to_string(),
            text: VENDOR_SRC.to_string(),
        }],
        ..Workspace::default()
    };
    let (violations, suppressed) = ws.check(&[Box::new(VendorHygiene) as Box<dyn Rule>]);
    assert_eq!(
        positions(&violations),
        vec![(10, 1), (11, 1), (13, 1)],
        "registry version, git source, and path-less dependency table"
    );
    assert!(violations.iter().all(|v| v.rule == "vendor-hygiene"));
    assert!(violations[0].message.contains("`rand`"));
    assert!(violations[1].message.contains("`serde`"));
    assert!(violations[2].message.contains("`proptest`"));
    assert_eq!(violations[2].snippet, "[dependencies.proptest]");
    assert_eq!(suppressed, 0);
}
