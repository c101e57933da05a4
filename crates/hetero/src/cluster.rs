//! Classed clusters: named machine classes with per-class counts and speed
//! factors, laid out contiguously on the global processor axis.

use malleable_core::{Error, ProcessorRange, Result, Slice};
use workload::ClassSpec;

/// One machine class: `count` identical processors running at `speed` times
/// the reference rate.  A task whose base profile needs `t(p)` time on `p`
/// reference processors needs `t(p) / speed` time on `p` processors of this
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineClass {
    /// Class name (unique within the cluster).
    pub name: String,
    /// Number of processors in the class.
    pub count: usize,
    /// Speed factor relative to the reference machines.
    pub speed: f64,
}

/// A heterogeneous cluster: an ordered list of machine classes.  Classes
/// occupy contiguous processor ranges in declaration order, so a classed
/// schedule maps onto one global processor axis (class 0 owns processors
/// `0..count_0`, class 1 the next `count_1`, and so on).
///
/// The identical-machines model is the strict special case of a single
/// class at speed 1.0 ([`ClassedCluster::uniform`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassedCluster {
    classes: Vec<MachineClass>,
    offsets: Vec<usize>,
}

impl ClassedCluster {
    /// Build a cluster from machine classes, validating that there is at
    /// least one class, every class has at least one processor, speeds are
    /// positive and finite, and names are unique.
    pub fn new(classes: Vec<MachineClass>) -> Result<Self> {
        if classes.is_empty() {
            return Err(Error::InvalidConfig {
                key: "machine-classes",
                message: "a cluster needs at least one machine class".to_string(),
            });
        }
        for (i, class) in classes.iter().enumerate() {
            if class.count == 0 {
                return Err(Error::InvalidConfig {
                    key: "machine-classes",
                    message: format!("class `{}` has zero processors", class.name),
                });
            }
            if !(class.speed.is_finite() && class.speed > 0.0) {
                return Err(Error::InvalidConfig {
                    key: "machine-classes",
                    message: format!("class `{}` has invalid speed {}", class.name, class.speed),
                });
            }
            if classes[..i].iter().any(|c| c.name == class.name) {
                return Err(Error::InvalidConfig {
                    key: "machine-classes",
                    message: format!("class `{}` appears twice", class.name),
                });
            }
        }
        let mut offsets = Vec::with_capacity(classes.len());
        let mut first = 0usize;
        for class in &classes {
            offsets.push(first);
            first += class.count;
        }
        Ok(ClassedCluster { classes, offsets })
    }

    /// Parse the `name=COUNTxSPEED,...` spec syntax (shared with the
    /// workload layer and the CLI's `--machine-classes` flag).
    pub fn from_spec(spec: &str) -> Result<Self> {
        let classes =
            workload::parse_class_specs(spec).map_err(|message| Error::InvalidConfig {
                key: "machine-classes",
                message,
            })?;
        Self::from_class_specs(&classes)
    }

    /// Build a cluster from parsed workload [`ClassSpec`]s.
    pub fn from_class_specs(classes: &[ClassSpec]) -> Result<Self> {
        Self::new(
            classes
                .iter()
                .map(|c| MachineClass {
                    name: c.name.clone(),
                    count: c.count,
                    speed: c.speed,
                })
                .collect(),
        )
    }

    /// The identical-machines special case: one class of `processors`
    /// reference-speed machines.
    pub fn uniform(processors: usize) -> Result<Self> {
        Self::new(vec![MachineClass {
            name: "uniform".to_string(),
            count: processors,
            speed: 1.0,
        }])
    }

    /// The machine classes, in processor-axis order.
    pub fn classes(&self) -> &[MachineClass] {
        &self.classes
    }

    /// Number of machine classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total number of processors across all classes.
    pub fn total_processors(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Total weighted capacity `Σ count·speed` — the work the cluster
    /// retires per unit time when fully busy.
    pub fn total_capacity(&self) -> f64 {
        self.classes.iter().map(|c| c.count as f64 * c.speed).sum()
    }

    /// The classes as the slices of a run record, in processor-axis order.
    pub fn slices(&self) -> Vec<Slice> {
        let slice = |c: &MachineClass| Slice {
            count: c.count,
            speed: c.speed,
        };
        self.classes.iter().map(slice).collect()
    }

    /// The contiguous global processor range class `class` occupies.
    pub fn class_range(&self, class: usize) -> ProcessorRange {
        ProcessorRange::new(self.offsets[class], self.classes[class].count)
    }

    /// The class owning global processor `processor`.
    pub fn processor_class(&self, processor: usize) -> usize {
        debug_assert!(processor < self.total_processors());
        match self.offsets.binary_search(&processor) {
            Ok(class) => class,
            Err(next) => next - 1,
        }
    }

    /// Index of the fastest class (first on ties).
    pub fn fastest_class(&self) -> usize {
        let mut best = 0;
        for (i, class) in self.classes.iter().enumerate().skip(1) {
            if class.speed > self.classes[best].speed {
                best = i;
            }
        }
        best
    }

    /// The class-blind baseline cluster of *equal total capacity*: one
    /// class with the same total processor count whose uniform speed is the
    /// mean per-processor capacity.  Comparing a classed run against a run
    /// on this cluster isolates what class-awareness buys, with the
    /// hardware budget held fixed.
    pub fn homogeneous_equivalent(&self) -> ClassedCluster {
        let total = self.total_processors();
        ClassedCluster::new(vec![MachineClass {
            name: "uniform".to_string(),
            count: total,
            speed: self.total_capacity() / total as f64,
        }])
        .expect("a valid cluster has a valid homogeneous equivalent")
    }

    /// Render the cluster back in the `name=COUNTxSPEED,...` spec syntax.
    pub fn spec(&self) -> String {
        self.classes
            .iter()
            .map(|c| format!("{}={}x{}", c.name, c.count, c.speed))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_class_cluster_lays_classes_out_contiguously() {
        let cluster = ClassedCluster::from_spec("old=8x1.0,new=4x2.0").unwrap();
        assert_eq!(cluster.class_count(), 2);
        assert_eq!(cluster.total_processors(), 12);
        assert!((cluster.total_capacity() - 16.0).abs() < 1e-12);
        assert_eq!(cluster.class_range(0), ProcessorRange::new(0, 8));
        assert_eq!(cluster.class_range(1), ProcessorRange::new(8, 4));
        for p in 0..8 {
            assert_eq!(cluster.processor_class(p), 0, "{p}");
        }
        for p in 8..12 {
            assert_eq!(cluster.processor_class(p), 1, "{p}");
        }
        assert_eq!(cluster.fastest_class(), 1);
        assert_eq!(cluster.spec(), "old=8x1,new=4x2");
    }

    #[test]
    fn uniform_cluster_is_the_identical_machines_special_case() {
        let cluster = ClassedCluster::uniform(6).unwrap();
        assert_eq!(cluster.class_count(), 1);
        assert_eq!(cluster.total_processors(), 6);
        assert!((cluster.total_capacity() - 6.0).abs() < 1e-12);
        assert_eq!(cluster.classes()[0].speed, 1.0);
    }

    #[test]
    fn homogeneous_equivalent_preserves_total_capacity() {
        let cluster = ClassedCluster::from_spec("old=8x1.0,new=4x2.5").unwrap();
        let flat = cluster.homogeneous_equivalent();
        assert_eq!(flat.class_count(), 1);
        assert_eq!(flat.total_processors(), cluster.total_processors());
        assert!((flat.total_capacity() - cluster.total_capacity()).abs() < 1e-9);
    }

    #[test]
    fn invalid_clusters_are_rejected_with_the_config_key() {
        for spec in ["", "a=0x1.0", "a=2x0.0", "a=2x1.0,a=3x2.0"] {
            match ClassedCluster::from_spec(spec) {
                Err(Error::InvalidConfig { key, .. }) => assert_eq!(key, "machine-classes"),
                other => panic!("{spec}: expected InvalidConfig, got {other:?}"),
            }
        }
        assert!(ClassedCluster::uniform(0).is_err());
    }
}
