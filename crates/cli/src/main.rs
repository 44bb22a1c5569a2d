//! `ytaudit` — the command-line face of the reproduction.
//!
//! ```text
//! ytaudit serve    [--addr 127.0.0.1:8080] [--scale 1.0] [--seed N]
//!                  [--researcher-key KEY] [--miss-rate 0.012] [--error-rate 0.0]
//!                  [--idle-timeout-ms N] [--max-conns N]
//!                  [--max-in-flight N] [--tenant-key KEY] [--tenant-rate U]
//! ytaudit collect  [--topics blm,brexit,…|all] [--snapshots N] [--interval-days 5]
//!                  [--paper] [--no-comments] [--no-metadata] [--scale 1.0]
//!                  [--base-url http://…] [--out dataset.json]
//!                  [--store audit.yts] [--resume]
//!                  [--workers N] [--rate units/sec]
//! ytaudit coordinate --store audit.yts [--shards N] [--listen 127.0.0.1:0]
//!                  [--ttl-secs 30] [--merge] [plan flags as collect]
//! ytaudit work     --coordinator http://… [--workdir dist-work] [--name W]
//!                  [--key KEY] [--workers N] [--scale 1.0] [--base-url http://…]
//!                  [--platform youtube|tiktok]
//! ytaudit analyze  <dataset.json> [--store audit.yts] [--experiment all|table1|
//!                  table2|table3|table4|table5|table6|table7|fig1|fig2|fig3|fig4]
//!                  [--follow] [--poll-ms 250] [--checkpoint analyze.ckpt]
//!                  [--max-buffered N] [--report report.json|-]
//! ytaudit store    <info|verify|compact|merge|export-json> <file.yts> [--out …]
//! ytaudit quota    --searches N [--id-calls M] [--daily 10000]
//! ytaudit lint     [--root PATH] [--format human|json] [--rule NAME]...
//! ytaudit topics
//! ```
//!
//! `serve` starts the simulated Data API on a real socket; `collect`
//! runs the paper's methodology against an in-process platform (default)
//! or any served instance (`--base-url`), writing the dataset as JSON or
//! committing it pair-by-pair to a crash-safe snapshot store (`--store`,
//! resumable with `--resume`); `coordinate`/`work` partition the same
//! plan across processes, on one host or many — crash-safe leases over
//! HTTP, exactly-once shard hand-off, byte-canonical merge; `analyze`
//! re-runs any of the paper's analyses on a stored dataset — or, with
//! `--store --follow`, tails a live store and folds each committed pair
//! into streaming accumulators as it lands, checkpointing so a crashed
//! analysis resumes instead of restarting; `store` inspects, verifies,
//! compacts, merges (`coordinate` shard output), or exports snapshot
//! stores; `quota` prices a collection plan in quota units and
//! key-days; `lint` runs the workspace invariant checker
//! (`ytaudit-lint`) over the source tree. Each command rejects an
//! option its usage text does not declare.

mod args;
mod commands;

use args::{ArgError, Args};

const USAGE: &str = "\
ytaudit — simulated YouTube Data API audit toolkit

USAGE:
    ytaudit <command> [options]

COMMANDS:
    serve      start the simulated Data API v3 on a TCP socket
    collect    run an audit collection (JSON dataset or snapshot store)
    coordinate lease a collection plan to distributed workers over HTTP
    work       execute leased ranges for a coordinator
    analyze    run the paper's analyses on a collected dataset
    store      inspect, verify, compact, merge, or export a snapshot store
    quota      price a collection plan in quota units
    lint       check workspace source invariants (ytaudit-lint)
    topics     list the six audit topics and their parameters
    help       show this message

Run `ytaudit <command> --help` for command options.";

/// Options that take no value, across every command.
const FLAGS: &[&str] = &[
    "help",
    "paper",
    "no-comments",
    "no-metadata",
    "no-channels",
    "resume",
    "merge",
    "follow",
];

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match run(tokens) {
        Ok(()) => {}
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}

fn run(tokens: Vec<String>) -> Result<(), ArgError> {
    let args = Args::parse(tokens, FLAGS)?;
    let command = args.positional(0).unwrap_or("help");
    if args.flag("help") {
        return print_usage(
            &mut std::io::stdout().lock(),
            commands::usage_for(command).unwrap_or(USAGE),
        );
    }
    if let Some(usage) = commands::usage_for(command) {
        args.reject_unknown(command, usage)?;
    }
    match command {
        "serve" => commands::serve::run(&args),
        "collect" => commands::collect::run(&args),
        "coordinate" => commands::dist::coordinate(&args),
        "work" => commands::dist::work(&args),
        "analyze" => commands::analyze::run(&args),
        "store" => commands::store::run(&args),
        "quota" => commands::quota::run(&args),
        "lint" => commands::lint::run(&args),
        "topics" => commands::topics::run(&args),
        "help" | "--help" => print_usage(&mut std::io::stdout().lock(), USAGE),
        other => Err(ArgError(format!(
            "unknown command {other:?}; run `ytaudit help`"
        ))),
    }
}

/// Writes usage text to `out`. A reader that closed the pipe early
/// (`ytaudit collect --help | head`) wanted no more of it: that is a
/// quiet success, not a panic.
fn print_usage(out: &mut impl std::io::Write, text: &str) -> Result<(), ArgError> {
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(err) if err.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(ArgError(format!("cannot write usage: {err}")))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_a_command_does_not_declare_fail_before_any_work() {
        for (line, unknown) in [
            ("collect --shards 2 --store never-created.yts", "--shards"),
            ("collect --paper --bogus 3", "--bogus"),
            ("analyze --store a.yts --merge", "--merge"),
            ("topics --all", "--all"),
        ] {
            let err = run(tokens(line)).unwrap_err();
            assert!(err.0.contains(unknown), "{line}: {err}");
        }
        assert!(!std::path::Path::new("never-created.yts").exists());
    }

    #[test]
    fn every_declared_option_is_accepted() {
        for line in [
            "coordinate --shards 4 --store a.yts --paper --platform tiktok --merge --ttl-secs 5",
            "work --coordinator http://h --platform tiktok --workers 2 --seed 1",
            "collect --paper --workers 2 --store a.yts --seed 1",
            "collect --paper --workers 2 --store a.yts --base-url http://h --key k --in-flight 4",
            "analyze --store a.yts --follow --poll-ms 5 --checkpoint c --report r",
            "serve --addr 127.0.0.1:0 --seed 1 --researcher-key k --tenant-key k --tenant-rate 1",
            "store compact a.yts --out b.yts",
        ] {
            let args = Args::parse(tokens(line), FLAGS).unwrap();
            let command = args.positional(0).unwrap();
            let usage = commands::usage_for(command).unwrap();
            assert_eq!(args.reject_unknown(command, usage), Ok(()), "{line}");
        }
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(std::io::ErrorKind);

    impl std::io::Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn usage_on_a_closed_pipe_is_a_quiet_success() {
        let mut closed = Failing(std::io::ErrorKind::BrokenPipe);
        assert!(print_usage(&mut closed, USAGE).is_ok());
        let mut full = Failing(std::io::ErrorKind::StorageFull);
        assert!(print_usage(&mut full, USAGE).is_err());
        let mut out = Vec::new();
        print_usage(&mut out, "usage: x").unwrap();
        assert_eq!(out, b"usage: x\n");
    }
}
