//! Reproduce Figure 8 of the paper: the minimal machine size `m_λ` for which
//! the canonical list algorithm's two-level property (Property 3) is asserted,
//! as a function of the shelf parameter λ.
//!
//! The figure in the paper plots λ from 0.75 to 0.95 on the x axis, the
//! minimal number of processors (5 to 20) on the y axis, and highlights the
//! point λ = √3/2 where the curve crosses m = 8.  This example prints the
//! same series as text, followed by the two anchors of the reconstructed
//! closed form (README "Deviations from the paper"): the value at
//! λ = √3/2 and the non-increasing shape that diverges towards 3/4.
//!
//! ```text
//! cargo run -p examples --release --example figure8
//! ```

use malleable_core::canonical::{h_hat, k_star, m_lambda};

fn main() {
    println!("Figure 8 — minimal number of processors m_lambda as a function of lambda");
    println!(
        "{:>8}  {:>6}  {:>6}  {:>9}",
        "lambda", "k*", "h_hat", "m_lambda"
    );

    let mut lambda = 0.755;
    let mut non_increasing = true;
    let mut previous = usize::MAX;
    while lambda <= 1.0 + 1e-9 {
        let m = m_lambda(lambda).expect("lambda is above 3/4");
        println!(
            "{:>8.3}  {:>6}  {:>6}  {:>9}",
            lambda,
            k_star(lambda),
            h_hat(lambda),
            m
        );
        non_increasing &= m <= previous;
        previous = m;
        lambda += 0.01;
    }

    let sqrt3_over_2 = 3f64.sqrt() / 2.0;
    println!(
        "\nAt lambda = sqrt(3)/2 = {:.4} (the value used by Theorem 2): m_lambda = {}",
        sqrt3_over_2,
        m_lambda(sqrt3_over_2).unwrap()
    );
    println!("# shape: non-increasing in lambda = {non_increasing}");
    println!(
        "# divergence near 3/4: m_lambda(0.76) = {}, m_lambda(0.99) = {}",
        m_lambda(0.76).unwrap(),
        m_lambda(0.99).unwrap()
    );
    println!(
        "The curve decreases with lambda and diverges as lambda approaches 3/4, \
         matching the shape of the paper's figure."
    );

    // Simple textual plot, one row per lambda step, one '#' per 1 processor.
    println!("\nASCII rendering (x: lambda, bar length: m_lambda):");
    let mut lambda = 0.76;
    while lambda <= 1.0 + 1e-9 {
        let m = m_lambda(lambda).unwrap();
        println!("{lambda:>5.2} | {}", "#".repeat(m.min(60)));
        lambda += 0.02;
    }
}
