//! The §6.1/§6.2 strategy experiments: the restriction ladder
//! (progressively more AND terms) and broad-vs-split topic collection.
//!
//! These validate the paper's recommendations experimentally: narrower
//! queries report smaller pools and replicate better, and splitting a
//! topic into subtopic queries beats one broad query on replicability.

use ytaudit_bench::tables;
use ytaudit_core::strategy::{restriction_ladder, split_topics, StrategyConfig};
use ytaudit_core::testutil::full_scale_client;
use ytaudit_types::Topic;

fn main() {
    let (client, _service) = full_scale_client();
    println!("Strategy experiment 1 — restriction ladder (hourly-binned collections)\n");
    for topic in [Topic::WorldCup, Topic::Blm, Topic::Grammys] {
        let config = StrategyConfig {
            levels: 3,
            hourly: true,
            ..StrategyConfig::new(topic)
        };
        let ladder = restriction_ladder(&client, &config).expect("ladder runs");
        println!("{}:", topic.display_name());
        let rows: Vec<Vec<String>> = ladder
            .iter()
            .map(|p| {
                vec![
                    p.level.to_string(),
                    format!("\"{}\"", p.query),
                    tables::pool(p.pool_mean),
                    p.returned_first.to_string(),
                    p.returned_last.to_string(),
                    tables::f3(p.jaccard),
                ]
            })
            .collect();
        print!(
            "{}",
            tables::render(
                &[
                    "level",
                    "query",
                    "pool",
                    "n(first)",
                    "n(last)",
                    "J(first,last)"
                ],
                &rows
            )
        );
        println!();
    }

    println!("Strategy experiment 2 — broad query vs split subtopic queries\n");
    let mut rows = Vec::new();
    for topic in [Topic::WorldCup, Topic::Blm, Topic::Capitol] {
        let config = StrategyConfig {
            hourly: true,
            ..StrategyConfig::new(topic)
        };
        let cmp = split_topics(&client, &config).expect("split comparison runs");
        rows.push(vec![
            topic.display_name().to_string(),
            tables::f3(cmp.broad_jaccard),
            tables::f3(cmp.split_jaccard),
            cmp.broad_returned.to_string(),
            cmp.split_returned.to_string(),
            cmp.broad_quota.to_string(),
            cmp.split_quota.to_string(),
        ]);
    }
    print!(
        "{}",
        tables::render(
            &[
                "topic",
                "J broad",
                "J split",
                "n broad",
                "n split",
                "quota broad",
                "quota split"
            ],
            &rows
        )
    );
    println!(
        "\nShape check (paper §6.1): lower totalResults ⇒ more stable returns;\n\
         splitting topics beats splitting time frames, at proportionally\n\
         higher quota cost when hourly-binned."
    );
    println!(
        "\nTotal quota consumed by this experiment: {} units\n\
         (= {:.1} default-key days; researcher quotas exist for a reason).",
        client.budget().units_spent(),
        client
            .budget()
            .days_of_quota(ytaudit_api::DEFAULT_DAILY_QUOTA)
    );
}
