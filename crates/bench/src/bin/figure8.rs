//! Reproduce Figure 8 of the paper: `m_λ` (the minimal machine size for which
//! Property 3 of the canonical list algorithm is asserted) as a function of λ.
//!
//! ```text
//! cargo run -p mrt-bench --release --bin figure8
//! ```
//!
//! The output is a CSV-like table (λ, k*, ĥ_λ, m_λ) over the same λ range the
//! paper plots (0.75 < λ ≤ 1.0), followed by the two anchor checks of the
//! reconstructed closed form (README "Deviations from the paper"): the value
//! at λ = √3/2 and the monotone decreasing shape.

use malleable_core::canonical::{h_hat, k_star, m_lambda};

fn main() {
    println!("lambda,k_star,h_hat,m_lambda");
    let mut previous: Option<usize> = None;
    let mut monotone = true;
    let steps = 50usize;
    for i in 0..=steps {
        let lambda = 0.7551 + (1.0 - 0.7551) * i as f64 / steps as f64;
        let m = m_lambda(lambda).expect("lambda > 3/4");
        println!("{lambda:.4},{},{},{m}", k_star(lambda), h_hat(lambda));
        if let Some(prev) = previous {
            if m > prev {
                monotone = false;
            }
        }
        previous = Some(m);
    }

    let sqrt3_over_2 = 3f64.sqrt() / 2.0;
    println!();
    println!(
        "# anchor: m_lambda(sqrt(3)/2) = {}",
        m_lambda(sqrt3_over_2).unwrap()
    );
    println!("# shape: non-increasing in lambda = {monotone}");
    println!(
        "# divergence near 3/4: m_lambda(0.76) = {}, m_lambda(0.99) = {}",
        m_lambda(0.76).unwrap(),
        m_lambda(0.99).unwrap()
    );
}
