//! `ytaudit quota` — price a collection plan in quota units.

use crate::args::{ArgError, Args};
use ytaudit_api::{DEFAULT_DAILY_QUOTA, RESEARCHER_DAILY_QUOTA};
use ytaudit_client::budget::price;

/// Usage text.
pub const USAGE: &str = "\
ytaudit quota — price a collection plan

USAGE:
    ytaudit quota --searches <N> [--id-calls <M>] [--daily <LIMIT>]
    ytaudit quota --paper               price the paper's full collection

OPTIONS:
    --searches <N>    number of Search.list calls (100 units each)
    --id-calls <M>    number of ID-based calls (1 unit each; default 0)
    --daily <LIMIT>   your key's daily quota (default 10 000)
    --paper           shorthand for one snapshot of the paper's design:
                      4 032 searches + ~1 500 ID calls, ×16 snapshots";

/// Runs the command.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let daily: u64 = args.get_parsed("daily", DEFAULT_DAILY_QUOTA)?;
    let (searches, id_calls, label) = if args.flag("paper") {
        // 24 h × 28 d × 6 topics searches per snapshot, 16 snapshots;
        // ID calls: ~14 Videos.list pages × 6 topics × 16 + channels +
        // comments ≈ 1 500 per snapshot-equivalent.
        (
            4_032u64 * 16,
            24_000u64,
            "the paper's full 16-snapshot collection",
        )
    } else {
        let searches: u64 = args
            .get("searches")
            .ok_or_else(|| ArgError("quota needs --searches (or --paper); see --help".into()))?
            .parse()
            .map_err(|_| ArgError("invalid --searches".into()))?;
        let id_calls: u64 = args.get_parsed("id-calls", 0)?;
        (searches, id_calls, "your plan")
    };
    let units = price(searches, id_calls);
    outln!("plan: {label}");
    outln!(
        "  search calls : {searches:>10}  × 100 units = {:>10}",
        searches * 100
    );
    outln!("  id calls     : {id_calls:>10}  ×   1 unit  = {id_calls:>10}");
    outln!("  total        : {units:>10} units");
    outln!();
    outln!(
        "  with a {daily}-unit/day key : {:.1} key-days",
        units as f64 / daily as f64
    );
    outln!(
        "  with the default key ({DEFAULT_DAILY_QUOTA}/day) : {:.1} key-days",
        units as f64 / DEFAULT_DAILY_QUOTA as f64
    );
    outln!(
        "  with a researcher key ({RESEARCHER_DAILY_QUOTA}/day) : {:.2} key-days",
        units as f64 / RESEARCHER_DAILY_QUOTA as f64
    );
    if units > daily {
        outln!(
            "\n  ⚠ the plan exceeds one day of your quota; the Search endpoint\n\
             \u{2002}\u{2002}'is not designed for volume' — consider the ID-based pipeline\n\
             \u{2002}\u{2002}or narrower queries (see `ytaudit topics` and the paper's §6.1)."
        );
    }
    Ok(())
}
