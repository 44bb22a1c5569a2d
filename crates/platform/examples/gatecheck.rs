//! Density-gate diagnostic: how many window hours each topic's
//! relative-density gate suppresses, and how much weight mass they carry.
//! Useful when retuning `SamplerConfig::gate_fraction`.
//!
//! Run with: `cargo run --release -p ytaudit-platform --example gatecheck`

use ytaudit_platform::{InterestDensity, SamplerConfig};
use ytaudit_types::Topic;

fn main() {
    let gate = SamplerConfig::default().gate_fraction;
    println!("gate fraction = {gate} (of the topic's mean hourly density)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "topic", "gated hours", "gated mass", "share of mass"
    );
    for topic in Topic::ALL {
        let density = InterestDensity::for_topic(&topic.spec());
        let gated = (0..density.len())
            .filter(|&i| density.is_gated(i, gate))
            .count();
        let mass: f64 = (0..density.len())
            .filter(|&i| density.is_gated(i, gate))
            .map(|i| density.weight(i))
            .sum();
        println!(
            "{:<10} {:>12} {:>12.1} {:>13.1}%",
            topic.key(),
            gated,
            mass,
            100.0 * mass / density.len() as f64
        );
    }
    println!(
        "\nGated hours return zero videos even when matching videos exist —\n\
         the paper's 'forced zero' observation (§4.2)."
    );
}
