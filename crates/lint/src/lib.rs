//! Workspace-native static analysis for the malleable-scheduling workspace.
//!
//! `cargo clippy` sees Rust; it cannot see *this system's* invariants — the
//! code-level disciplines that the engine's guarantees (the paper's
//! dual-approximation bound, work conservation under re-allotment, the
//! deterministic sharded solves) actually rest on.  This crate is a small,
//! self-contained rule engine that can:
//!
//! * lex Rust source precisely enough to never fire inside `//` comments,
//!   `/* */` blocks (nested), string literals, raw strings (`r#"…"#`), byte
//!   strings, or char literals ([`lexer`]);
//! * run a registry of domain [`rules`] over every workspace source file and
//!   manifest;
//! * honor per-line `// lint:allow(<rule>)` suppressions;
//! * report as text or JSON, with telemetry-style counters ([`report`]).
//!
//! Run it as `cargo run -p lint -- check [--json]` from the workspace root:
//! any finding that is not suppressed fails the run.

#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use lexer::LexedFile;

/// Counter names recorded by a lint run, in the same `SCREAMING_SNAKE`
/// style as [`telemetry::names`] so the figures slot into the same
/// dashboards.
pub mod names {
    /// Rust source files scanned.
    pub const LINT_FILES: &str = "LINT_FILES";
    /// Manifests (`Cargo.toml`) scanned.
    pub const LINT_MANIFESTS: &str = "LINT_MANIFESTS";
    /// Source lines lexed.
    pub const LINT_LINES: &str = "LINT_LINES";
    /// Violations kept after suppression (the failing set).
    pub const LINT_VIOLATIONS: &str = "LINT_VIOLATIONS";
    /// Violations silenced by an inline `lint:allow` suppression.
    pub const LINT_SUPPRESSED: &str = "LINT_SUPPRESSED";
}

/// One finding of one rule at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the rule that fired (e.g. `no-panic-in-engine`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column of the offending token.
    pub column: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A manifest (`Cargo.toml`) presented to manifest-level rules.
#[derive(Debug, Clone)]
pub struct ManifestFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Raw manifest text.
    pub text: String,
}

/// A crate root (`src/lib.rs` / `src/main.rs` of a workspace member) that
/// the `missing-docs-gate` rule must find gated.
#[derive(Debug, Clone)]
pub struct CrateRoot {
    /// The crate's directory name under `crates/`.
    pub name: String,
    /// Workspace-relative path of the root source file.
    pub path: String,
}

/// Everything a lint run sees: lexed sources, manifests, and the crate
/// roots subject to the docs gate.  Rules receive the whole workspace so
/// cross-file rules (docs gate, vendor hygiene) need no side channels;
/// tests build tiny synthetic workspaces via [`Workspace::from_sources`].
#[derive(Debug, Default)]
pub struct Workspace {
    /// Lexed Rust sources.
    pub sources: Vec<LexedFile>,
    /// Workspace manifests.
    pub manifests: Vec<ManifestFile>,
    /// Crate roots subject to `missing-docs-gate`.
    pub crate_roots: Vec<CrateRoot>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, text)` sources — the unit-
    /// and property-test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        Workspace {
            sources: sources
                .iter()
                .map(|(path, text)| lexer::lex(path, text))
                .collect(),
            manifests: Vec::new(),
            crate_roots: Vec::new(),
        }
    }

    /// Run every rule in `rules` over the workspace, dropping findings the
    /// source suppressed with `// lint:allow(<rule>)` on the offending
    /// line.  Returns `(kept, suppressed_count)`.
    pub fn check(&self, rules: &[Box<dyn rules::Rule>]) -> (Vec<Violation>, usize) {
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for rule in rules {
            for violation in rule.check(self) {
                if self.is_suppressed(&violation) {
                    suppressed += 1;
                } else {
                    kept.push(violation);
                }
            }
        }
        kept.sort_by(|a, b| {
            (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
        });
        (kept, suppressed)
    }

    fn is_suppressed(&self, violation: &Violation) -> bool {
        self.sources
            .iter()
            .find(|file| file.path == violation.path)
            .and_then(|file| file.lines.get(violation.line.saturating_sub(1)))
            .is_some_and(|line| line.allows.iter().any(|rule| rule == violation.rule))
    }
}
