//! `float-exact-compare`: no `==`/`!=` on floating-point scheduling
//! quantities.
//!
//! Makespans, allotment times, speeds and work fractions are all `f64`s
//! produced by chains of rounding operations; bit-exact comparison on them
//! is how work-conservation checks and epoch tie-breaks silently diverge
//! between solvers.  The EPS helpers (`malleable_core::eps`) make the
//! tolerance explicit and reviewable.
//!
//! Lexical heuristic: an `==`/`!=` fires when either operand *looks like* a
//! floating scheduling quantity — it contains a float literal (`1.0`,
//! `1e-9`, `f64::…`), or an identifier whose `_`-separated segments include
//! a known quantity name (`makespan`, `omega`, `speed`, `work`, …).
//! Intentionally bit-exact comparisons (dedup of breakpoint arrays,
//! deterministic tie-breaks) carry an explicit
//! `// lint:allow(float-exact-compare)` with a justification.

use super::{violation, Rule};
use crate::{Violation, Workspace};

/// See the module docs.
pub struct FloatExactCompare;

/// Identifier segments that name floating scheduling quantities in this
/// workspace.
const QUANTITY_NAMES: &[&str] = &[
    "makespan",
    "omega",
    "lambda",
    "speed",
    "speeds",
    "deadline",
    "departs",
    "ratio",
    "utilization",
    "capacity",
    "fraction",
    "integral",
    "horizon",
    "flow",
    "work",
    "times",
    "busy",
    "goodput",
    "wall",
];

/// Characters that may appear inside a comparison operand expression.
fn is_operand_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | '[' | ']' | '(' | ')' | ':' | '-' | '+')
}

/// The operand substring to the left of the operator at `op` (0-based).
fn left_operand(chars: &[char], op: usize) -> String {
    let mut end = op;
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_operand_char(chars[start - 1]) {
        start -= 1;
    }
    chars[start..end].iter().collect()
}

/// The operand substring to the right of the operator ending at `after`.
fn right_operand(chars: &[char], after: usize) -> String {
    let mut start = after;
    while start < chars.len() && chars[start].is_whitespace() {
        start += 1;
    }
    let mut end = start;
    while end < chars.len() && is_operand_char(chars[end]) {
        end += 1;
    }
    chars[start..end].iter().collect()
}

/// Does the operand contain a float literal (`1.5`, `1e-9`, `f64::…`)?
fn has_float_literal(operand: &str) -> bool {
    let chars: Vec<char> = operand.chars().collect();
    for i in 0..chars.len() {
        if chars[i] == '.'
            && i > 0
            && chars[i - 1].is_ascii_digit()
            && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
        if (chars[i] == 'e' || chars[i] == 'E') && i > 0 && chars[i - 1].is_ascii_digit() {
            let mut j = i + 1;
            if matches!(chars.get(j), Some('+') | Some('-')) {
                j += 1;
            }
            if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
                return true;
            }
        }
    }
    operand.contains("f64::") || operand.contains("f32::")
}

/// Does the operand mention a known floating scheduling quantity?
fn has_quantity_name(operand: &str) -> bool {
    operand
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .flat_map(|token| token.split('_'))
        .any(|segment| QUANTITY_NAMES.contains(&segment))
}

fn looks_float(operand: &str) -> bool {
    // `.len()` / `.count()` chains yield integers regardless of what the
    // receiver is called (`times().len()` compares lengths, not times).
    if operand.ends_with(".len()") || operand.ends_with(".count()") {
        return false;
    }
    has_float_literal(operand) || has_quantity_name(operand)
}

/// 0-based positions of bare `==` / `!=` operators in `code` (compound
/// operators like `<=`, `>=`, `+=` and pattern arms like `=>` excluded).
fn comparison_positions(code: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        let pair = (chars[i], chars[i + 1]);
        if (pair == ('=', '=') || pair == ('!', '='))
            && chars.get(i + 2) != Some(&'=')
            && (i == 0
                || !matches!(
                    chars[i - 1],
                    '<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
                ))
        {
            out.push(i);
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

impl Rule for FloatExactCompare {
    fn name(&self) -> &'static str {
        "float-exact-compare"
    }

    fn description(&self) -> &'static str {
        "no ==/!= on floating scheduling quantities — use the malleable_core::eps helpers"
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in &ws.sources {
            for (line0, line) in file.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let chars: Vec<char> = line.code.chars().collect();
                for op in comparison_positions(&line.code) {
                    let left = left_operand(&chars, op);
                    let right = right_operand(&chars, op + 2);
                    if looks_float(&left) || looks_float(&right) {
                        out.push(violation(
                            self.name(),
                            &file.path,
                            &line.raw,
                            line0,
                            op,
                            format!(
                                "exact {}{} on a floating scheduling quantity \
                                 (`{left}` vs `{right}`); compare through \
                                 malleable_core::eps (approx_eq / approx_ne)",
                                chars[op],
                                chars[op + 1]
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_names_look_float() {
        assert!(has_float_literal("1.5"));
        assert!(has_float_literal("x*1e-9"));
        assert!(has_float_literal("f64::INFINITY"));
        assert!(!has_float_literal("v[0].1"));
        assert!(!has_float_literal("10"));
        assert!(has_quantity_name("self.makespan"));
        assert!(has_quantity_name("total_work"));
        assert!(!has_quantity_name("worker"));
        assert!(!has_quantity_name("index"));
    }

    #[test]
    fn length_chains_are_integers() {
        assert!(!looks_float("times().len()"));
        assert!(!looks_float("self.times.len()"));
        assert!(!looks_float("speeds.iter().count()"));
        assert!(looks_float("self.times[id]"));
    }

    #[test]
    fn compound_operators_do_not_count() {
        assert!(comparison_positions("a <= b").is_empty());
        assert!(comparison_positions("a >= b").is_empty());
        assert!(comparison_positions("a += 1.0").is_empty());
        assert_eq!(comparison_positions("a == b"), vec![2]);
        assert_eq!(comparison_positions("a != b"), vec![2]);
    }
}
