//! A reduced end-to-end audit: collect several snapshots for two topics,
//! analyze them into one `AnalysisReport`, and print its consistency,
//! attrition, and pool-size results.
//!
//! This is the whole §3–§5 pipeline in miniature. The full 16-snapshot
//! version is `ytaudit collect --paper --store audit.yts` followed by
//! `ytaudit analyze --store audit.yts`, which prints every table and
//! figure as EXPERIMENTS.md shows them.
//!
//! Run with: `cargo run --release --example consistency_audit`

use ytaudit::core::testutil::test_client;
use ytaudit::core::{Analyzer, Collector, CollectorConfig};
use ytaudit::types::Topic;

fn main() {
    let (client, _service) = test_client(0.4);
    let config = CollectorConfig::quick(vec![Topic::Blm, Topic::Higgs], 6);
    println!(
        "Collecting {} snapshots × {:?} (hourly-binned queries)…\n",
        config.schedule.len(),
        config
            .topics
            .iter()
            .map(|t| t.display_name())
            .collect::<Vec<_>>()
    );
    let dataset = Collector::new(&client, config)
        .run()
        .expect("collection succeeds");
    let report = Analyzer::analyze_dataset(&dataset);

    // --- Figure 1: rolling Jaccards ---
    println!("Rolling Jaccard similarity (the paper's Figure 1):");
    for tc in &report.figure1 {
        print!("  {:9} J(St,S1):", tc.topic.key());
        for p in &tc.points {
            print!(" {:.2}", p.jaccard_first);
        }
        println!("   (final {:.3})", tc.final_jaccard_first());
    }

    // --- Table 1: returned counts ---
    println!("\nReturned per snapshot (the paper's Table 1):");
    for row in &report.table1 {
        println!(
            "  {:9} min {:4} max {:4} mean {:7.1} std {:5.1}",
            row.topic.key(),
            row.min,
            row.max,
            row.mean,
            row.std
        );
    }

    // --- Figure 3: attrition Markov chain ---
    if let Some(fig3) = &report.figure3 {
        println!("\nSecond-order Markov transitions (the paper's Figure 3):");
        for (i, label) in ["PP", "PA", "AP", "AA"].iter().enumerate() {
            println!(
                "  {label} → P {:.3} | A {:.3}   (n = {})",
                fig3.transitions[i][0], fig3.transitions[i][1], fig3.counts[i]
            );
        }
        println!(
            "  persistence: P(P|PP) = {:.3}, P(A|AA) = {:.3} — the 'rolling window'.",
            fig3.p_stay_present(),
            fig3.p_stay_absent()
        );
    }

    // --- Table 4: pool sizes ---
    println!("\ntotalResults pool estimates (the paper's Table 4):");
    for row in &report.table4 {
        println!(
            "  {:9} min {:>8} max {:>8} mean {:>8} mode {:>8}",
            row.topic.key(),
            row.min,
            row.max,
            row.mean,
            row.mode
        );
    }

    println!(
        "\nCollection cost: {} quota units (≈ {:.1} default-key days).",
        report.quota_units_spent,
        report.quota_units_spent as f64 / ytaudit::api::DEFAULT_DAILY_QUOTA as f64
    );
}
