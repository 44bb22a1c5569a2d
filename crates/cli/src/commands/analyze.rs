//! `ytaudit analyze` — run the paper's analyses on a stored dataset.
//!
//! Batch (`<dataset.json>` or `--store`) and streaming (`--store
//! --follow`) runs share one numeric path: both fold `(topic, snapshot)`
//! pairs into the same streaming accumulators
//! ([`ytaudit_core::Analyzer`]), so their reports are bit-identical —
//! `--report` emits the canonical JSON the equivalence suite compares.

use crate::args::{ArgError, Args};
use crate::commands::collect::parse_platform;
use std::path::PathBuf;
use ytaudit_bench::experiments;
use ytaudit_core::{AnalysisReport, Analyzer, AuditDataset};
use ytaudit_store::{follow_analyze, FollowOptions};
use ytaudit_types::PlatformKind;

/// Usage text.
pub const USAGE: &str = "\
ytaudit analyze — run the paper's analyses on a collected dataset

USAGE:
    ytaudit analyze <dataset.json> [--experiment <id>] [--report <path|->]
    ytaudit analyze --store <file.yts> [--follow [--poll-ms 250]]
                    [--checkpoint <file.ckpt>] [--max-buffered <N>]
                    [--experiment <id>] [--report <path|->]

OPTIONS:
    --experiment <id>    print one EXPERIMENTS.md section: all (default),
                         table1, fig1, table2, fig2, fig3, table3, table6,
                         table7, table4, table5, fig4; the --report JSON
                         always holds every experiment
    --store <file.yts>   analyze a snapshot store instead of a JSON dataset:
                         its committed pairs up to the end of the file, with
                         the missing topics of a partly committed snapshot
                         folded as empty
    --follow             tail a live store: fold each committed pair into the
                         running accumulators the moment it lands, and finish
                         once the collection ends (progress on stderr)
    --poll-ms <n>        follow poll interval in milliseconds (default 250)
    --checkpoint <path>  persist analyzer state after every advancing poll;
                         a restarted analysis resumes from the checkpoint
                         instead of re-folding from scratch
    --max-buffered <n>   cap on out-of-order pairs held in memory
                         (exceeding it is an error)
    --platform <name>    assert the store was collected from this backend
                         (youtube | tiktok); a mismatch is an error before
                         any pair is read
    --report <path|->    also write the canonical report JSON (`-` = stdout)

The JSON dataset comes from `ytaudit collect --out dataset.json`; the
store comes from `ytaudit collect --store audit.yts`. Batch and follow
runs fold pairs through the same accumulators, so their `--report`
output is byte-identical for the same collection.";

/// Runs the command.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let which = args.get("experiment").unwrap_or("all");
    if which != "all" && !experiments::IDS.contains(&which) {
        return Err(ArgError(format!(
            "unknown experiment {which:?}; see `ytaudit analyze --help`"
        )));
    }
    let report = build_report(args)?;
    match args.get("report") {
        Some("-") => {
            // Machine output: the canonical JSON alone on stdout.
            outln!("{}", report.to_json());
            return Ok(());
        }
        Some(path) => {
            let mut json = report.to_json();
            json.push('\n');
            std::fs::write(path, json)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        }
        None => {}
    }
    for id in experiments::IDS
        .into_iter()
        .filter(|&id| which == "all" || id == which)
    {
        out!("{}", experiments::render(id, &report).unwrap_or_default());
    }
    Ok(())
}

/// Produces the report: by following the store live, by folding a
/// one-shot read of the store (a follow that stops at the end of the
/// file), or by replaying a JSON dataset — all through the same
/// accumulators. Reading a store never writes it.
fn build_report(args: &Args) -> Result<AnalysisReport, ArgError> {
    let expect_platform: Option<PlatformKind> = match args.get("platform") {
        None => None,
        Some(_) => Some(parse_platform(args)?),
    };
    let Some(spath) = args.get("store") else {
        if args.flag("follow") {
            return Err(ArgError("--follow needs --store <file.yts>".into()));
        }
        return analyze_json(args);
    };
    if args.positionals().len() > 1 {
        return Err(ArgError(
            "pass either a JSON dataset path or --store, not both".into(),
        ));
    }
    let follow = args.flag("follow");
    let options = FollowOptions {
        follow,
        poll_ms: args.get_parsed("poll-ms", 250u64)?,
        checkpoint: args.get("checkpoint").map(PathBuf::from),
        max_buffered: match args.get("max-buffered") {
            None => None,
            Some(_) => Some(args.get_parsed("max-buffered", 0usize)?),
        },
        expect_platform,
    };
    let outcome = follow_analyze(std::path::Path::new(spath), &options, |p| {
        if !follow {
            return;
        }
        match p.planned_pairs {
            Some(planned) => eprint!(
                "\rfollow: {}/{planned} pairs folded{} ",
                p.folded_pairs,
                if p.ended { ", collection ended" } else { "" }
            ),
            None => eprint!("\rfollow: waiting for a collection plan "),
        }
    })
    .map_err(|e| ArgError(format!("cannot analyze {spath}: {e}")))?;
    if follow {
        eprintln!();
    }
    if let Some(folded) = outcome.resumed_from {
        eprintln!("analyze: resumed from a checkpoint holding {folded} folded pairs");
    }
    Ok(outcome.report)
}

/// Replays a JSON dataset through the accumulators.
fn analyze_json(args: &Args) -> Result<AnalysisReport, ArgError> {
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("analyze needs a dataset path; see --help".into()))?;
    if args.positionals().len() > 2 {
        return Err(ArgError(format!(
            "unexpected extra arguments: {:?}",
            &args.positionals()[2..]
        )));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let dataset = AuditDataset::from_json(&text)
        .map_err(|e| ArgError(format!("{path} is not a dataset: {e}")))?;
    Ok(Analyzer::analyze_dataset(&dataset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_core::testutil::test_client;
    use ytaudit_core::{Collector, CollectorConfig};
    use ytaudit_store::{Store, TempDir};
    use ytaudit_types::Topic;

    fn analyze_args(extra: &[&str]) -> Args {
        let tokens = ["analyze"].iter().chain(extra).map(|s| s.to_string());
        Args::parse(tokens, &["follow"]).unwrap()
    }

    /// A small collection with comments and metadata, stored at
    /// `dir/audit.yts`.
    fn collected_store(dir: &TempDir) -> PathBuf {
        let path = dir.path().join("audit.yts");
        let (client, _service) = test_client(0.1);
        let mut config = CollectorConfig::quick(vec![Topic::Brexit, Topic::Higgs], 3);
        config.fetch_comments = true;
        let mut store = Store::create(&path).unwrap();
        Collector::new(&client, config)
            .run_with_sink(&mut store)
            .unwrap();
        path
    }

    /// `--experiment` picks what is printed, never what is analyzed: the
    /// report JSON of a one-experiment run equals the full run's.
    #[test]
    fn experiment_filter_does_not_change_the_report() {
        let dir = TempDir::new("analyze-experiment");
        let path = collected_store(&dir);

        let spath = path.to_str().unwrap();
        let full = build_report(&analyze_args(&["--store", spath])).unwrap();
        assert!(
            !full.table5.is_empty(),
            "the store holds comment collections"
        );
        assert!(full.regression.is_ok(), "the store holds metadata");
        let one = build_report(&analyze_args(&["--store", spath, "--experiment", "table1"]));
        assert_eq!(one.unwrap().to_json(), full.to_json());
    }

    /// Batch and follow are one driver, so `--checkpoint` works in both:
    /// a checkpointed batch run, its resumed rerun and a follow give the
    /// batch report.
    #[test]
    fn checkpointed_batch_and_follow_give_the_batch_report() {
        let dir = TempDir::new("analyze-one-driver");
        let path = collected_store(&dir);
        let spath = path.to_str().unwrap();
        let batch = build_report(&analyze_args(&["--store", spath])).unwrap();
        let ckpt = dir.path().join("analyze.ckpt");
        let cpath = ckpt.to_str().unwrap();
        for extra in [
            ["--checkpoint", cpath],
            ["--checkpoint", cpath],
            ["--follow", "--poll-ms=1"],
        ] {
            let args: Vec<&str> = ["--store", spath].into_iter().chain(extra).collect();
            let report = build_report(&analyze_args(&args)).unwrap();
            assert_eq!(report.to_json(), batch.to_json(), "{args:?}");
            assert!(ckpt.exists());
        }
    }
}
