//! The rule registry and the shared token-scanning helpers.
//!
//! A [`Rule`] sees the whole [`Workspace`] (lexed sources + manifests +
//! crate roots) and returns [`Violation`]s.  All scanning happens on the
//! lexer's masked code channel, so comments and literals can never fire a
//! rule; columns are 1-based character positions in the raw line.

mod clock;
mod docs;
mod float;
mod lock;
mod panic;
mod threads;
mod vendor;

pub use clock::SingleClock;
pub use docs::MissingDocsGate;
pub use float::FloatExactCompare;
pub use lock::NoSendUnderLock;
pub use panic::NoPanicInEngine;
pub use threads::ScopedThreadsOnly;
pub use vendor::VendorHygiene;

use crate::{Violation, Workspace};

/// A named static-analysis rule.
pub trait Rule {
    /// The rule's registry name, as used in `lint:allow(<name>)` and
    /// baseline entries.
    fn name(&self) -> &'static str;
    /// One-line description for `lint rules` and reports.
    fn description(&self) -> &'static str;
    /// Scan the workspace and return every finding.
    fn check(&self, ws: &Workspace) -> Vec<Violation>;
}

/// The shipped rule set, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicInEngine),
        Box::new(SingleClock),
        Box::new(FloatExactCompare),
        Box::new(ScopedThreadsOnly),
        Box::new(NoSendUnderLock),
        Box::new(MissingDocsGate),
        Box::new(VendorHygiene),
    ]
}

/// The crates whose `src/` trees carry the engine's correctness guarantees
/// and therefore must stay panic-free outside tests.
pub const ENGINE_CRATES: &[&str] = &[
    "online",
    "packing",
    "solver",
    "baselines",
    "hetero",
    "malleable-core",
];

/// Whether `path` is non-test library source of one of `crates`
/// (`crates/<name>/src/…`).
pub(crate) fn in_crate_src(path: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Is the character part of an identifier?
pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// 0-based character positions where `name` occurs as a whole identifier in
/// `code`.
pub(crate) fn ident_positions(code: &str, name: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let pattern: Vec<char> = name.chars().collect();
    let mut positions = Vec::new();
    if pattern.is_empty() || chars.len() < pattern.len() {
        return positions;
    }
    for start in 0..=chars.len() - pattern.len() {
        if chars[start..start + pattern.len()] != pattern[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(chars[start - 1]);
        let after = start + pattern.len();
        let after_ok = after >= chars.len() || !is_ident(chars[after]);
        if before_ok && after_ok {
            positions.push(start);
        }
    }
    positions
}

/// The first non-whitespace character at or after `from`, with its position.
pub(crate) fn next_non_ws(chars: &[char], from: usize) -> Option<(usize, char)> {
    (from..chars.len())
        .find(|&i| !chars[i].is_whitespace())
        .map(|i| (i, chars[i]))
}

/// The last non-whitespace character strictly before `before`, with its
/// position.
pub(crate) fn prev_non_ws(chars: &[char], before: usize) -> Option<(usize, char)> {
    (0..before).rev().find_map(|i| {
        if chars[i].is_whitespace() {
            None
        } else {
            Some((i, chars[i]))
        }
    })
}

/// 0-based positions where `.name(` occurs as a method call in `code`.
pub(crate) fn method_call_positions(code: &str, name: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    ident_positions(code, name)
        .into_iter()
        .filter(|&p| {
            matches!(prev_non_ws(&chars, p), Some((_, '.')))
                && matches!(
                    next_non_ws(&chars, p + name.chars().count()),
                    Some((_, '('))
                )
        })
        .collect()
}

/// 0-based positions where `name!` occurs as a macro invocation in `code`.
pub(crate) fn macro_positions(code: &str, name: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    ident_positions(code, name)
        .into_iter()
        .filter(|&p| {
            matches!(
                next_non_ws(&chars, p + name.chars().count()),
                Some((_, '!'))
            )
        })
        .collect()
}

/// 0-based positions where the `::`-joined `segments` path occurs in `code`
/// (e.g. `["Instant", "now"]` matches `Instant::now` and
/// `std::time::Instant::now`).
pub(crate) fn path_positions(code: &str, segments: &[&str]) -> Vec<usize> {
    let needle = segments.join("::");
    let chars: Vec<char> = code.chars().collect();
    let pattern: Vec<char> = needle.chars().collect();
    let mut positions = Vec::new();
    if chars.len() < pattern.len() {
        return positions;
    }
    for start in 0..=chars.len() - pattern.len() {
        if chars[start..start + pattern.len()] != pattern[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(chars[start - 1]);
        let after = start + pattern.len();
        let after_ok = after >= chars.len() || !is_ident(chars[after]);
        if before_ok && after_ok {
            positions.push(start);
        }
    }
    positions
}

/// Build a [`Violation`] for `file` at a 0-based `(line, column)` pair.
pub(crate) fn violation(
    rule: &'static str,
    path: &str,
    raw_line: &str,
    line0: usize,
    col0: usize,
    message: String,
) -> Violation {
    Violation {
        rule,
        path: path.to_string(),
        line: line0 + 1,
        column: col0 + 1,
        message,
        snippet: raw_line.trim().to_string(),
    }
}
