//! One-dimensional bin packing heuristics.
//!
//! Bins have a fixed real capacity and items have real sizes.  The scheduling
//! layer uses a bin for "one processor over the length of a shelf" and an item
//! for "one small sequential task", following §4.1 of the paper where the set
//! `T₃` of tasks with canonical execution time at most `ω/2` is packed onto
//! the shelves with the First Fit algorithm of Johnson, Demers, Ullman, Garey
//! and Graham.

/// Result of a one-dimensional bin packing.
#[derive(Debug, Clone, PartialEq)]
pub struct BinPacking {
    /// `assignment[i]` is the bin index the `i`-th item was placed into.
    pub assignment: Vec<usize>,
    /// Remaining free capacity of every opened bin.
    pub residual: Vec<f64>,
    /// Capacity every bin started with.
    pub capacity: f64,
}

impl BinPacking {
    /// Number of bins opened by the packing.
    pub fn bins(&self) -> usize {
        self.residual.len()
    }

    /// Total size packed across all bins.
    pub fn packed_volume(&self) -> f64 {
        self.bins() as f64 * self.capacity - self.residual.iter().sum::<f64>()
    }

    /// Items assigned to the given bin, in placement order.
    pub fn items_in_bin(&self, bin: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == bin).then_some(i))
            .collect()
    }

    /// Verify that no bin is over-full with respect to the item sizes.
    pub fn is_valid(&self, sizes: &[f64]) -> bool {
        if self.assignment.len() != sizes.len() {
            return false;
        }
        let mut load = vec![0.0f64; self.bins()];
        for (i, &b) in self.assignment.iter().enumerate() {
            if b >= load.len() {
                return false;
            }
            load[b] += sizes[i];
        }
        load.iter().all(|&l| l <= self.capacity + 1e-9)
    }
}

/// First Fit: place each item into the lowest-indexed bin it fits in, opening
/// a new bin only when none fits.
pub fn first_fit(sizes: &[f64], capacity: f64) -> BinPacking {
    let mut assignment = Vec::with_capacity(sizes.len());
    let mut residual = Vec::new();
    first_fit_into(sizes, capacity, &mut assignment, &mut residual);
    BinPacking {
        assignment,
        residual,
        capacity,
    }
}

/// Allocation-free First Fit: same placement rule as [`first_fit`] (which
/// delegates here), but the per-item bin assignment and the per-bin residual
/// capacities are written into caller-provided buffers (cleared first), so
/// repeated packings — one per oracle probe in the scheduling layer — reuse
/// the same heap storage.  Both buffers are sized for the worst case, one
/// bin per item, so they only grow when the item count does.  Returns the
/// number of bins opened.
pub fn first_fit_into(
    sizes: &[f64],
    capacity: f64,
    assignment: &mut Vec<usize>,
    residual: &mut Vec<f64>,
) -> usize {
    assert!(capacity > 0.0, "bin capacity must be positive");
    assignment.clear();
    assignment.reserve(sizes.len());
    residual.clear();
    residual.reserve(sizes.len());
    for &size in sizes {
        assert!(
            size <= capacity + 1e-9,
            "item of size {size} exceeds bin capacity {capacity}"
        );
        let bin = match residual.iter().position(|&r| r >= size - 1e-9) {
            Some(b) => b,
            None => {
                residual.push(capacity);
                residual.len() - 1
            }
        };
        residual[bin] -= size;
        // Guard against tiny negative drift from floating point.
        if residual[bin] < 0.0 {
            residual[bin] = 0.0;
        }
        assignment.push(bin);
    }
    residual.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_fit_reuses_bins() {
        let packed = first_fit(&[0.6, 0.5, 0.4, 0.3], 1.0);
        // 0.6 -> bin0, 0.5 -> bin1, 0.4 -> bin0, 0.3 -> bin1
        assert_eq!(packed.assignment, vec![0, 1, 0, 1]);
        assert_eq!(packed.bins(), 2);
        assert!(packed.is_valid(&[0.6, 0.5, 0.4, 0.3]));
    }

    #[test]
    fn first_fit_into_matches_first_fit() {
        let sizes = [0.6, 0.5, 0.4, 0.3, 0.9, 0.1];
        let packed = first_fit(&sizes, 1.0);
        let mut assignment = Vec::new();
        let mut residual = Vec::new();
        let bins = first_fit_into(&sizes, 1.0, &mut assignment, &mut residual);
        assert_eq!(bins, packed.bins());
        assert_eq!(assignment, packed.assignment);
        assert_eq!(residual, packed.residual);
        // Buffers are reusable: a second run on different input clears them.
        let bins = first_fit_into(&[0.2, 0.2], 1.0, &mut assignment, &mut residual);
        assert_eq!(bins, 1);
        assert_eq!(assignment, vec![0, 0]);
    }

    #[test]
    fn empty_input_opens_no_bins() {
        let pack = first_fit(&[], 1.0);
        assert_eq!(pack.bins(), 0);
        assert!(pack.is_valid(&[]));
    }

    #[test]
    #[should_panic(expected = "exceeds bin capacity")]
    fn oversized_item_panics() {
        first_fit(&[1.5], 1.0);
    }

    #[test]
    fn packed_volume_matches_total_size() {
        let sizes = [0.2, 0.3, 0.4, 0.25];
        let packed = first_fit(&sizes, 0.5);
        let total: f64 = sizes.iter().sum();
        assert!((packed.packed_volume() - total).abs() < 1e-9);
    }

    /// The property the paper relies on (§4.1): when First Fit opens more than
    /// one bin, the total packed size is larger than half of `capacity · bins`.
    #[test]
    fn first_fit_half_full_property_example() {
        let sizes = [0.51, 0.51, 0.51, 0.2, 0.2];
        let packed = first_fit(&sizes, 1.0);
        assert!(packed.bins() > 1);
        let total: f64 = sizes.iter().sum();
        assert!(total > 0.5 * packed.capacity * packed.bins() as f64);
    }

    proptest! {
        #[test]
        fn all_heuristics_produce_valid_packings(
            sizes in prop::collection::vec(0.01f64..1.0, 0..40),
        ) {
            let pack = first_fit(&sizes, 1.0);
            prop_assert!(pack.is_valid(&sizes));
            prop_assert_eq!(pack.assignment.len(), sizes.len());
        }

        /// First Fit never opens a bin while an earlier one could host the item,
        /// which implies the classical "at most one bin at most half full" bound:
        /// bins ≤ ceil(2 * total / capacity) when bins > 1 is replaced by the
        /// volume property used in the paper.
        #[test]
        fn first_fit_volume_property(
            sizes in prop::collection::vec(0.01f64..1.0, 1..40),
        ) {
            let packed = first_fit(&sizes, 1.0);
            let total: f64 = sizes.iter().sum();
            if packed.bins() > 1 {
                prop_assert!(
                    total > 0.5 * packed.bins() as f64 - 1e-9,
                    "total {} bins {}", total, packed.bins()
                );
            }
        }
    }
}
