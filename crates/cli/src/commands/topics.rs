//! `ytaudit topics` — list the six audit topics and their parameters.

use crate::args::{ArgError, Args};
use ytaudit_bench::tables;
use ytaudit_types::Topic;

/// Usage text.
pub const USAGE: &str = "\
ytaudit topics — list the six audit topics (Appendix A of the paper)

No options.";

/// Runs the command.
pub fn run(_args: &Args) -> Result<(), ArgError> {
    let rows: Vec<Vec<String>> = Topic::ALL
        .iter()
        .map(|t| {
            let spec = t.spec();
            vec![
                t.key().to_string(),
                format!("\"{}\"", spec.query),
                spec.focal_date.to_rfc3339(),
                tables::pool(spec.pool_size),
                spec.subtopics.join(", "),
            ]
        })
        .collect();
    out!(
        "{}",
        tables::render(
            &[
                "key",
                "query",
                "focal date",
                "pool",
                "subtopics (AND terms)"
            ],
            &rows
        )
    );
    outln!(
        "\nEach topic's collection window is its focal date ± 14 days,\n\
         queried one hour at a time (672 searches per topic per snapshot)."
    );
    Ok(())
}
