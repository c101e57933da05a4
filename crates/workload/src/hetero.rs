//! Heterogeneous-cluster workload support: machine-class specifications and
//! scenario generation for classed clusters.
//!
//! The `hetero` crate models clusters whose processors come in *named
//! classes* (e.g. an old partition at speed 1.0 next to a new partition at
//! speed 2.0).  The specification syntax lives here, next to the other
//! workload inputs, so the CLI, the benches and the `hetero` crate parse one
//! format:
//!
//! ```text
//! old=8x1.0,new=4x2.0
//! ```
//!
//! — comma-separated `name=COUNTxSPEED` entries with unique names, positive
//! counts and positive finite speed factors.
//!
//! ```rust
//! use workload::{parse_class_specs, ClassSpec};
//!
//! let classes = parse_class_specs("old=8x1.0,new=4x2.0").unwrap();
//! assert_eq!(classes.len(), 2);
//! assert_eq!(classes[0], ClassSpec::new("old", 8, 1.0));
//! assert_eq!(classes[1].count, 4);
//! ```

use crate::arrivals::{ArrivalPattern, ArrivalTrace, TraceConfig};
use crate::generator::WorkloadConfig;

/// One machine class of a heterogeneous cluster: a name, how many
/// processors it contributes, and a multiplicative speed factor relative to
/// the reference (speed 1.0) machines the base speed-up profiles describe.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class name (unique within a cluster spec).
    pub name: String,
    /// Number of processors in the class.
    pub count: usize,
    /// Speed factor: a task's execution time in this class is the base
    /// profile time divided by this factor.
    pub speed: f64,
}

impl ClassSpec {
    /// Build a class spec.
    pub fn new(name: &str, count: usize, speed: f64) -> Self {
        ClassSpec {
            name: name.to_string(),
            count,
            speed,
        }
    }

    /// Render the spec in the `name=COUNTxSPEED` input syntax.
    pub fn render(&self) -> String {
        format!("{}={}x{}", self.name, self.count, self.speed)
    }
}

/// Parse a comma-separated cluster specification (`old=8x1.0,new=4x2.0`)
/// into class specs.  Returns a human-readable message on malformed input:
/// empty specs, missing `=`/`x` separators, non-numeric counts or speeds,
/// zero counts, non-positive or non-finite speeds, and duplicate names are
/// all rejected.
pub fn parse_class_specs(spec: &str) -> Result<Vec<ClassSpec>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err("cluster spec is empty".to_string());
    }
    let mut classes: Vec<ClassSpec> = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        let (name, shape) = entry
            .split_once('=')
            .ok_or_else(|| format!("`{entry}` is not of the form name=COUNTxSPEED"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("`{entry}` has an empty class name"));
        }
        if classes.iter().any(|c| c.name == name) {
            return Err(format!("class `{name}` appears twice"));
        }
        let (count, speed) = shape
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("`{entry}` is not of the form name=COUNTxSPEED"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("`{entry}` has a non-integer processor count"))?;
        if count == 0 {
            return Err(format!("class `{name}` has zero processors"));
        }
        let speed: f64 = speed
            .trim()
            .parse()
            .map_err(|_| format!("`{entry}` has a non-numeric speed factor"))?;
        if !(speed.is_finite() && speed > 0.0) {
            return Err(format!("class `{name}` has invalid speed {speed}"));
        }
        classes.push(ClassSpec::new(name, count, speed));
    }
    Ok(classes)
}

/// Total processor count of a class list.
pub fn total_class_processors(classes: &[ClassSpec]) -> usize {
    classes.iter().map(|c| c.count).sum()
}

/// Generate a deterministic bursty arrival trace sized to a classed
/// cluster: the machine size is the total processor count of `classes`, the
/// task population is the standard mixed workload.  The same seed always
/// produces the same trace, so classed-vs-baseline comparisons run on
/// identical inputs.
pub fn classed_trace(
    classes: &[ClassSpec],
    tasks: usize,
    seed: u64,
) -> malleable_core::Result<ArrivalTrace> {
    let processors = total_class_processors(classes);
    let config = TraceConfig {
        workload: WorkloadConfig::mixed(tasks, processors, seed),
        pattern: ArrivalPattern::Bursty {
            burst_size: (tasks / 4).clamp(2, 16),
            burst_gap: 2.0,
        },
    };
    ArrivalTrace::generate(&config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_two_class_spec() {
        let classes = parse_class_specs("old=8x1.0,new=4x2.0").unwrap();
        assert_eq!(
            classes,
            vec![ClassSpec::new("old", 8, 1.0), ClassSpec::new("new", 4, 2.0)]
        );
        assert_eq!(total_class_processors(&classes), 12);
        assert_eq!(classes[1].render(), "new=4x2");
    }

    #[test]
    fn tolerates_whitespace_and_uppercase_x() {
        let classes = parse_class_specs(" fast = 2X2.5 , slow = 6 x 0.5 ").unwrap();
        assert_eq!(classes[0].name, "fast");
        assert_eq!(classes[0].count, 2);
        assert_eq!(classes[0].speed, 2.5);
        assert_eq!(classes[1].name, "slow");
    }

    #[test]
    fn rejects_malformed_specs_with_specific_messages() {
        for (spec, needle) in [
            ("", "empty"),
            ("old8x1.0", "name=COUNTxSPEED"),
            ("old=8", "name=COUNTxSPEED"),
            ("=8x1.0", "empty class name"),
            ("old=ax1.0", "non-integer"),
            ("old=0x1.0", "zero processors"),
            ("old=8xfast", "non-numeric"),
            ("old=8x0.0", "invalid speed"),
            ("old=8x-1.0", "invalid speed"),
            ("old=8x1.0,old=4x2.0", "twice"),
        ] {
            let err = parse_class_specs(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn classed_trace_is_deterministic_and_sized_to_the_cluster() {
        let classes = parse_class_specs("old=8x1.0,new=4x2.0").unwrap();
        let a = classed_trace(&classes, 20, 7).unwrap();
        let b = classed_trace(&classes, 20, 7).unwrap();
        assert_eq!(a.processors(), 12);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
    }
}
