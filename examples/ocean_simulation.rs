//! The paper's motivating application: load balancing an ocean-circulation
//! simulation with adaptive meshing (Blayo, Debreu, Mounié, Trystram 1999).
//!
//! The Atlantic is decomposed into rectangular regions; each region is an
//! independent malleable task whose work is proportional to its mesh density
//! (refined regions near strong currents carry much more work) and whose
//! speed-up saturates with a per-processor halo-exchange overhead.  At every
//! remeshing step the regions must be (re)scheduled on the machine so that the
//! whole step finishes as early as possible — exactly the independent
//! malleable makespan problem of the paper.
//!
//! ```text
//! cargo run -p mrt-examples --release --example ocean_simulation
//! ```

use malleable_core::prelude::*;
use mrt_examples::comparison_row;
use simulator::simulate;

/// One rectangular region of the ocean grid.
struct Region {
    name: &'static str,
    /// Number of mesh cells (work is proportional to it).
    cells: f64,
    /// Refinement level: refined regions have a higher per-cell cost and a
    /// larger halo overhead.
    refinement: u32,
}

fn region_profile(region: &Region, processors: usize) -> SpeedupProfile {
    // Work: cells × cost per cell (refined levels integrate with smaller time
    // steps, hence cost grows with refinement).
    let work = region.cells * 1e-4 * (1.0 + 0.6 * region.refinement as f64);
    // Halo-exchange overhead per extra processor, relative to the work: deeper
    // refinement means a larger surface-to-volume ratio.
    let overhead = 0.004 * (1.0 + region.refinement as f64);
    SpeedupProfile::from_fn(processors, |p| {
        work / p as f64 + work * overhead * (p as f64 - 1.0)
    })
    .expect("ocean region profiles are positive")
}

fn main() {
    let processors = 64;
    let regions = [
        Region {
            name: "gulf-stream",
            cells: 90_000.0,
            refinement: 3,
        },
        Region {
            name: "labrador",
            cells: 42_000.0,
            refinement: 2,
        },
        Region {
            name: "azores",
            cells: 35_000.0,
            refinement: 2,
        },
        Region {
            name: "equatorial",
            cells: 64_000.0,
            refinement: 1,
        },
        Region {
            name: "benguela",
            cells: 28_000.0,
            refinement: 2,
        },
        Region {
            name: "north-atlantic",
            cells: 120_000.0,
            refinement: 0,
        },
        Region {
            name: "south-atlantic",
            cells: 110_000.0,
            refinement: 0,
        },
        Region {
            name: "caribbean",
            cells: 22_000.0,
            refinement: 3,
        },
        Region {
            name: "biscay",
            cells: 9_000.0,
            refinement: 1,
        },
        Region {
            name: "baffin",
            cells: 7_000.0,
            refinement: 0,
        },
        Region {
            name: "sargasso",
            cells: 30_000.0,
            refinement: 1,
        },
        Region {
            name: "canaries",
            cells: 12_000.0,
            refinement: 1,
        },
        Region {
            name: "falklands",
            cells: 16_000.0,
            refinement: 2,
        },
        Region {
            name: "greenland-sea",
            cells: 14_000.0,
            refinement: 1,
        },
        Region {
            name: "mid-ridge",
            cells: 48_000.0,
            refinement: 0,
        },
        Region {
            name: "guinea",
            cells: 18_000.0,
            refinement: 1,
        },
    ];

    let tasks: Vec<MalleableTask> = regions
        .iter()
        .map(|r| MalleableTask::named(r.name, region_profile(r, processors)))
        .collect();
    let instance = Instance::new(tasks, processors).expect("valid instance");

    println!(
        "Ocean remeshing step: {} regions on {} processors",
        instance.task_count(),
        instance.processors()
    );
    println!(
        "area lower bound = {:.3}, critical-region bound = {:.3}\n",
        malleable_core::bounds::area_bound(&instance),
        malleable_core::bounds::critical_task_bound(&instance)
    );

    // Every scheduler comes from the workspace solver registry, by name.
    let registry = solver::default_registry();
    let solve = |name: &str| {
        registry
            .get(name)
            .expect("registered")
            .solve(&SolveRequest::new(&instance))
            .expect(name)
            .schedule
    };
    // The paper's scheduler…
    let mrt = solve("mrt");
    // …against the practical baselines it improves on.
    let ludwig_schedule = solve("ludwig");
    let gang = solve("gang");
    let lpt = solve("lpt");

    println!("{}", comparison_row("MRT (sqrt(3))", &instance, &mrt));
    println!(
        "{}",
        comparison_row("Ludwig two-phase", &instance, &ludwig_schedule)
    );
    println!("{}", comparison_row("gang scheduling", &instance, &gang));
    println!("{}", comparison_row("sequential LPT", &instance, &lpt));

    // Show how the MRT schedule allocated the heavy refined regions.
    println!("\nAllotment chosen by MRT for the five largest regions:");
    let mut entries: Vec<_> = mrt.entries().to_vec();
    entries.sort_by(|a, b| {
        (b.duration * b.processors.count as f64)
            .partial_cmp(&(a.duration * a.processors.count as f64))
            .unwrap()
    });
    for entry in entries.iter().take(5) {
        println!(
            "  {:<16} {:>3} processors for {:>6.3} time units",
            instance.task(entry.task).name.clone().unwrap_or_default(),
            entry.processors.count,
            entry.duration
        );
    }

    let trace = simulate(&instance, &mrt);
    println!(
        "\nmachine utilisation under MRT: {:.1}% (idle area {:.3})",
        100.0 * trace.utilization,
        trace.idle_area
    );
    assert!(mrt.validate(&instance).is_ok());
}
