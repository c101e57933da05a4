//! # knapsack
//!
//! 0/1 knapsack solvers used by the malleable-task scheduling algorithms of
//! Mounié, Rapine and Trystram (SPAA 1999).
//!
//! The allotment-selection phase of the two-shelf algorithm (§4 of the paper)
//! is formulated as a knapsack problem `K(λ)`: every "large" task `j` is an
//! item whose *weight* is the number of processors `d_j` it needs to finish
//! within the second shelf (length `λ·ω`) and whose *profit* is its canonical
//! number of processors `q_j`.  Selecting a maximum-profit subset that fits
//! in the free capacity of the second shelf frees enough processors in the
//! first shelf for the remaining tasks.
//!
//! The paper uses three flavours of resolution, all provided here:
//!
//! * [`solve_exact`] — the classical pseudo-polynomial dynamic program over
//!   capacity, `O(n·C)` time, exact.
//! * [`solve_fptas`] — the fully polynomial approximation scheme obtained by
//!   profit scaling, `(1−ε)`-approximate, `O(n³/ε)` time.
//! * [`solve_dual_min_weight`] — the *dual* knapsack `K'(λ)` of the paper:
//!   minimise total weight subject to reaching a profit target (a covering
//!   problem), solved by an exact DP over profit, plus a scaled variant.
//!
//! A brute-force solver ([`solve_brute_force`]) is provided for testing and
//! for very small instances.
//!
//! All solvers work on integer weights/profits (`u64`).  The scheduling layer
//! maps processor counts (small integers) onto these, so the exact DP is the
//! common path; the FPTAS exists both for completeness with the paper and for
//! instances where the capacity (number of processors `m`) is huge.

#![warn(missing_docs)]

mod brute;
mod dual;
mod exact;
mod fptas;
mod item;

pub use brute::solve_brute_force;
pub use dual::{
    solve_dual_brute_force, solve_dual_min_weight, solve_dual_min_weight_in, DualSolution,
};
pub use exact::{solve_exact, solve_exact_in};
pub use fptas::solve_fptas;
pub use item::{Item, Solution};

/// Reusable DP tables for the exact and dual solvers.
///
/// The scheduling layer solves one knapsack (and sometimes one covering
/// knapsack) per oracle probe, and a dichotomic search performs dozens of
/// probes per solve.  Allocating the `O(n·C)` decision table afresh each time
/// dominates the solver cost on small machines; a `DpWorkspace` lets the
/// caller keep the tables alive across probes.  Buffers only ever grow, so
/// after a warm-up probe at the largest instance size the solvers stop
/// touching the allocator entirely (observable via [`capacity_signature`]).
///
/// [`capacity_signature`]: DpWorkspace::capacity_signature
#[derive(Debug, Clone, Default)]
pub struct DpWorkspace {
    /// Rolling best-profit row of the primal DP (`O(C)`).
    pub(crate) best: Vec<u64>,
    /// Minimum-weight row of the dual DP (`O(P)`).
    pub(crate) min_weight: Vec<u64>,
    /// Shared take/skip decision table (`O(n·C)` or `O(n·P)`); the primal and
    /// dual solvers never run concurrently on one workspace, so they share it.
    pub(crate) decisions: Vec<bool>,
}

impl DpWorkspace {
    /// An empty workspace; tables are sized lazily by the first resolution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the capacities of all internal buffers.  Two equal signatures
    /// around a resolution prove the resolution performed no allocation.
    pub fn capacity_signature(&self) -> usize {
        self.best.capacity() + self.min_weight.capacity() + self.decisions.capacity()
    }
}

/// Strategy used to solve a knapsack instance.
///
/// The scheduling layer picks a strategy based on the instance size, mirroring
/// the discussion in §4.3–4.4 of the paper: the exact DP is pseudo-polynomial
/// (`O(n·m)`) and is preferred whenever the capacity is moderate; the FPTAS is
/// used when the capacity is so large that the DP becomes the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Always run the exact dynamic program.
    Exact,
    /// Always run the FPTAS with the given `ε > 0`.
    Fptas(f64),
    /// Run the exact DP when `n · capacity` is at most the given budget,
    /// otherwise fall back to the FPTAS with the given `ε`.
    Auto {
        /// Largest `n · capacity` the exact DP runs on.
        dp_budget: u64,
        /// The FPTAS's `ε` beyond that budget.
        epsilon: f64,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Auto {
            dp_budget: 50_000_000,
            epsilon: 0.05,
        }
    }
}

/// Solve a 0/1 knapsack instance with the given [`Strategy`].
///
/// Returns the selected item indices and the achieved profit.  The solution is
/// optimal when the exact path is taken and `(1−ε)`-optimal otherwise.
pub fn solve(items: &[Item], capacity: u64, strategy: Strategy) -> Solution {
    solve_in(items, capacity, strategy, &mut DpWorkspace::new())
}

/// Same as [`solve`], reusing the DP tables of `workspace` on the exact path.
/// (The FPTAS path still allocates; the scheduling layer never takes it, since
/// its capacities are processor counts.)
pub fn solve_in(
    items: &[Item],
    capacity: u64,
    strategy: Strategy,
    workspace: &mut DpWorkspace,
) -> Solution {
    match strategy {
        Strategy::Exact => solve_exact_in(items, capacity, workspace),
        Strategy::Fptas(eps) => solve_fptas(items, capacity, eps),
        Strategy::Auto { dp_budget, epsilon } => {
            let cost = (items.len() as u64).saturating_mul(capacity.saturating_add(1));
            if cost <= dp_budget {
                solve_exact_in(items, capacity, workspace)
            } else {
                solve_fptas(items, capacity, epsilon)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(raw: &[(u64, u64)]) -> Vec<Item> {
        raw.iter()
            .map(|&(w, p)| Item {
                weight: w,
                profit: p,
            })
            .collect()
    }

    #[test]
    fn strategy_auto_small_uses_exact() {
        let it = items(&[(3, 4), (4, 5), (2, 3)]);
        let sol = solve(&it, 6, Strategy::default());
        assert_eq!(sol.profit, 8);
    }

    #[test]
    fn strategy_fptas_close_to_exact() {
        let it = items(&[(10, 60), (20, 100), (30, 120)]);
        let exact = solve(&it, 50, Strategy::Exact);
        let approx = solve(&it, 50, Strategy::Fptas(0.1));
        assert!(approx.profit as f64 >= 0.9 * exact.profit as f64);
    }

    #[test]
    fn strategy_auto_huge_capacity_falls_back() {
        let it = items(&[(1_000_000_000, 5), (2_000_000_000, 9)]);
        let sol = solve(
            &it,
            2_500_000_000,
            Strategy::Auto {
                dp_budget: 1_000,
                epsilon: 0.01,
            },
        );
        assert_eq!(sol.profit, 9);
    }
}
