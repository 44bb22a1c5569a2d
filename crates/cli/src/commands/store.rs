//! `ytaudit store` — inspect and maintain snapshot stores.

use crate::args::{ArgError, Args};
use crate::commands::write_atomic;
use std::path::{Path, PathBuf};
use ytaudit_store::{
    discover_shard_paths, discover_shard_paths_in, merge_shards, read_dataset, Store,
};

/// Usage text.
pub const USAGE: &str = "\
ytaudit store — inspect and maintain snapshot stores (.yts files)

USAGE:
    ytaudit store info        <file.yts>
    ytaudit store verify      <file.yts>
    ytaudit store compact     <file.yts> [--out <dest.yts>]
    ytaudit store merge       <dest.yts> [shard.yts | dir | glob ...]
    ytaudit store export-json <file.yts> [--out dataset.json]

ACTIONS:
    info          show size, record counts, dedup ratio, and collection
                  progress (read-only: a torn tail is reported, not cut)
    verify        read-only integrity check: every frame's checksum, every
                  record's decode, every commit's references; exits
                  non-zero on damage
    compact       rewrite committed data into a fresh file, dropping
                  orphan records and dead segments (in place via
                  tmp+rename unless --out names a destination)
    merge         fold the shard stores of a `coordinate` run into one
                  canonical store at <dest.yts>, byte-identical to a
                  single-sink collection. With no shard arguments,
                  shards are discovered next to <dest.yts> by their
                  canonical names; each argument may be a shard file, a
                  directory to discover shards in, or a `*` glob (quote
                  it past the shell). Crash-safe: an interrupted merge
                  resumes from its `.merging` file
    export-json   materialize the store as a legacy JSON dataset
                  (equivalent to `ytaudit collect --out`)";

/// Runs the command.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let action = args
        .positional(1)
        .ok_or_else(|| ArgError("store needs an action; see `ytaudit store --help`".into()))?;
    let spath = args
        .positional(2)
        .ok_or_else(|| ArgError(format!("store {action} needs a store path")))?;
    let path = Path::new(spath);
    match action {
        "info" => info(spath, path),
        "verify" => verify(spath, path),
        "compact" => compact(spath, path, args.get("out")),
        "merge" => merge(spath, path, &args.positionals()[3..]),
        "export-json" => export_json(spath, path, args.get("out").unwrap_or("dataset.json")),
        other => Err(ArgError(format!(
            "unknown store action {other:?}; see `ytaudit store --help`"
        ))),
    }
}

/// Read-only, so it is safe beside a live collector: a torn tail is
/// reported, not truncated.
fn info(spath: &str, path: &Path) -> Result<(), ArgError> {
    let s =
        Store::inspect(path).map_err(|e| ArgError(format!("cannot read store {spath}: {e}")))?;
    println!("store {spath}");
    println!(
        "  size:      {} bytes, {} segments, {} records",
        s.log_len, s.segments, s.records
    );
    println!(
        "  blobs:     {} unique ({} bytes), {} references, dedup ×{:.2}",
        s.blobs,
        s.blob_bytes,
        s.refs_total,
        s.dedup_ratio()
    );
    match s.planned_pairs {
        Some(planned) => println!(
            "  progress:  {}/{planned} (topic, snapshot) pairs committed, complete: {}",
            s.committed_pairs,
            if s.complete { "yes" } else { "no" }
        ),
        None => println!("  progress:  no collection started"),
    }
    println!("  quota:     {} units recorded", s.quota_units);
    if s.torn_tail_bytes > 0 {
        println!(
            "  torn tail: {} bytes past byte {} (an interrupted append; left in place — \
             `collect --resume` truncates it)",
            s.torn_tail_bytes, s.log_len
        );
    }
    Ok(())
}

fn verify(spath: &str, path: &Path) -> Result<(), ArgError> {
    let report =
        Store::verify_path(path).map_err(|e| ArgError(format!("cannot verify {spath}: {e}")))?;
    println!(
        "verified {spath}: {} records in {} bytes, {} blobs, {} commits{}",
        report.records,
        report.file_len,
        report.blobs,
        report.commits,
        if report.complete { ", complete" } else { "" }
    );
    if report.torn_tail_bytes > 0 {
        println!(
            "  torn tail: {} bytes past byte {} (an interrupted append; reopening the \
             store will truncate it)",
            report.torn_tail_bytes, report.valid_len
        );
    }
    if let Some(error) = &report.first_error {
        return Err(ArgError(format!("{spath} is damaged: {error}")));
    }
    if report.torn_tail_bytes > 0 {
        return Err(ArgError(format!("{spath} has a torn tail (recoverable)")));
    }
    println!("  ok");
    Ok(())
}

fn compact(spath: &str, path: &Path, out: Option<&str>) -> Result<(), ArgError> {
    let store =
        Store::open(path).map_err(|e| ArgError(format!("cannot open store {spath}: {e}")))?;
    let before = store.stats().log_len;
    match out {
        Some(dest) => {
            if Path::new(dest).exists() {
                return Err(ArgError(format!("{dest} already exists")));
            }
            let compacted = store
                .compact(Path::new(dest))
                .map_err(|e| ArgError(format!("compaction failed: {e}")))?;
            println!(
                "compacted {spath} ({before} bytes) into {dest} ({} bytes)",
                compacted.stats().log_len
            );
        }
        None => {
            let compacted = store
                .compact_in_place()
                .map_err(|e| ArgError(format!("compaction failed: {e}")))?;
            let after = compacted.stats().log_len;
            println!("compacted {spath} in place: {before} → {after} bytes");
        }
    }
    Ok(())
}

/// Expands one `store merge` shard argument: a directory discovers the
/// canonically named shards inside it, a `*` pattern matches file names
/// in its parent directory, anything else is a literal path.
fn expand_shard_arg(dest: &Path, raw: &str) -> Result<Vec<PathBuf>, ArgError> {
    let path = Path::new(raw);
    if path.is_dir() {
        return discover_shard_paths_in(dest, path)
            .map_err(|e| ArgError(format!("cannot discover shards in {raw}: {e}")));
    }
    let pattern = path.file_name().and_then(|n| n.to_str()).unwrap_or(raw);
    if !pattern.contains('*') {
        return Ok(vec![path.to_path_buf()]);
    }
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ArgError(format!("cannot read directory {}: {e}", dir.display())))?;
    let mut matches: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|name| glob_match(pattern, name))
        })
        .map(|e| e.path())
        .collect();
    if matches.is_empty() {
        return Err(ArgError(format!("no files match {raw:?}")));
    }
    matches.sort();
    Ok(matches)
}

/// Matches a `*`-only glob (no `?`, no character classes): the literal
/// pieces between stars must appear in order, with the first and last
/// anchored to the ends of the name.
fn glob_match(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    let Some((first, rest_parts)) = parts.split_first() else {
        return name.is_empty();
    };
    if parts.len() == 1 {
        return pattern == name;
    }
    let Some(mut rest) = name.strip_prefix(first) else {
        return false;
    };
    for (i, part) in rest_parts.iter().enumerate() {
        if i == rest_parts.len() - 1 {
            return rest.ends_with(part);
        }
        match rest.find(part) {
            Some(pos) => rest = &rest[pos + part.len()..],
            None => return false,
        }
    }
    true
}

fn merge(spath: &str, dest: &Path, explicit: &[String]) -> Result<(), ArgError> {
    let shard_paths: Vec<PathBuf> = if explicit.is_empty() {
        discover_shard_paths(dest)
            .map_err(|e| ArgError(format!("cannot discover shards for {spath}: {e}")))?
    } else {
        let mut paths = Vec::new();
        for raw in explicit {
            paths.append(&mut expand_shard_arg(dest, raw)?);
        }
        paths.sort();
        paths.dedup();
        paths
    };
    eprintln!(
        "[store] merging {} shard stores into {spath}…",
        shard_paths.len()
    );
    for p in &shard_paths {
        eprintln!("[store]   {}", p.display());
    }
    let report =
        merge_shards(dest, &shard_paths).map_err(|e| ArgError(format!("merge failed: {e}")))?;
    println!(
        "merged {} shard stores into {spath}: {}/{} pairs ({} re-committed this run{}), \
         {} bytes",
        shard_paths.len(),
        report.pairs_total,
        report.pairs_total,
        report.pairs_merged,
        if report.resumed {
            ", resumed from an interrupted merge"
        } else {
            ""
        },
        report.bytes
    );
    println!(
        "the shard files are no longer needed; verify with `ytaudit store verify {spath}` \
         and delete them when satisfied"
    );
    Ok(())
}

/// Read-only, like `info`.
fn export_json(spath: &str, path: &Path, out: &str) -> Result<(), ArgError> {
    let dataset = read_dataset(path)
        .map_err(|e| ArgError(format!("cannot load dataset from {spath}: {e}")))?;
    let json = dataset
        .to_json()
        .map_err(|e| ArgError(format!("cannot serialize dataset: {e}")))?;
    write_atomic(out, &json).map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {out}: {} snapshots, {} videos with metadata, {} channels, {} quota units",
        dataset.len(),
        dataset.video_meta.len(),
        dataset.channel_meta.len(),
        dataset.quota_units_spent
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `store info`, `store export-json` and `analyze --store` only read
    /// the store. Run beside a collector whose last append is still in
    /// flight, none of them may cut that torn tail.
    #[test]
    fn reading_commands_leave_a_torn_store_byte_identical() {
        use ytaudit_core::testutil::test_client;
        use ytaudit_core::{AuditDataset, Collector, CollectorConfig};
        use ytaudit_types::Topic;

        let dir = ytaudit_store::TempDir::new("cli-read-only");
        let path = dir.file("audit.yts");
        let (client, _service) = test_client(0.1);
        let mut config = CollectorConfig::quick(vec![Topic::Brexit, Topic::Higgs], 2);
        config.fetch_comments = true;
        let mut store = Store::create(&path).unwrap();
        Collector::new(&client, config)
            .run_with_sink(&mut store)
            .unwrap();
        let committed = store.load_dataset().unwrap();
        drop(store);
        // Half a frame past the end record: an append in flight.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 20]);
        std::fs::write(&path, &bytes).unwrap();

        let spath = path.to_str().unwrap();
        let out = dir.file("dataset.json");
        let out = out.to_str().unwrap();
        let runs: [&[&str]; 3] = [
            &["store", "info", spath],
            &["store", "export-json", spath, "--out", out],
            &["analyze", "--store", spath],
        ];
        for tokens in runs {
            let args = Args::parse(tokens.iter().map(|s| s.to_string()), &[]).unwrap();
            match tokens[0] {
                "store" => run(&args),
                _ => crate::commands::analyze::run(&args),
            }
            .unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "{tokens:?} changed the store"
            );
        }
        let exported = std::fs::read_to_string(out).unwrap();
        assert_eq!(AuditDataset::from_json(&exported).unwrap(), committed);
    }

    /// The dataset JSON keys its metadata maps in ID order, so exporting
    /// one store twice writes the same bytes (hash-ordered maps would
    /// list the videos in a different order on every run).
    #[test]
    fn export_json_writes_identical_bytes_every_run() {
        use ytaudit_core::testutil::test_client;
        use ytaudit_core::{Collector, CollectorConfig};
        use ytaudit_types::Topic;

        let dir = ytaudit_store::TempDir::new("cli-export-stable");
        let path = dir.file("audit.yts");
        let (client, _service) = test_client(0.1);
        let config = CollectorConfig::quick(vec![Topic::Brexit, Topic::Higgs], 2);
        let mut store = Store::create(&path).unwrap();
        Collector::new(&client, config)
            .run_with_sink(&mut store)
            .unwrap();
        let dataset = store.load_dataset().unwrap();
        assert!(dataset.video_meta.len() > 1 && dataset.channel_meta.len() > 1);
        drop(store);

        let spath = path.to_str().unwrap();
        let exports: Vec<Vec<u8>> = ["first.json", "second.json"]
            .into_iter()
            .map(|name| {
                let out = dir.file(name);
                let tokens = [
                    "store",
                    "export-json",
                    spath,
                    "--out",
                    out.to_str().unwrap(),
                ];
                let args = Args::parse(tokens.iter().map(|s| s.to_string()), &[]).unwrap();
                run(&args).unwrap();
                std::fs::read(out).unwrap()
            })
            .collect();
        assert_eq!(exports[0], exports[1]);
    }

    #[test]
    fn glob_matches_star_patterns() {
        assert!(glob_match("audit.shard-*.yts", "audit.shard-higgs.yts"));
        assert!(glob_match("audit.shard-*.yts", "audit.shard-0.yts"));
        assert!(!glob_match("audit.shard-*.yts", "audit.channels.yts"));
        assert!(!glob_match("audit.shard-*.yts", "other.shard-0.yts"));
        assert!(!glob_match("audit.shard-*.yts", "audit.shard-0.yts.bak"));
        assert!(glob_match("*.yts", "a.yts"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*b*c", "a-x-b-y-c"));
        assert!(!glob_match("a*b*c", "a-x-c"));
        assert!(!glob_match("a*a", "a"));
        assert!(glob_match("exact.yts", "exact.yts"));
        assert!(!glob_match("exact.yts", "other.yts"));
    }

    #[test]
    fn expand_falls_back_to_literal_paths() {
        let dest = Path::new("audit.yts");
        assert_eq!(
            expand_shard_arg(dest, "some/literal.yts").unwrap(),
            vec![PathBuf::from("some/literal.yts")]
        );
        assert!(expand_shard_arg(dest, "no-such-dir/*.yts").is_err());
    }

    #[test]
    fn expand_discovers_in_directory_and_glob() {
        let dir = ytaudit_store::TempDir::new("cli-merge-expand");
        let dest = dir.file("audit.yts");
        let a = dir.file("audit.shard-0.yts");
        let b = dir.file("audit.shard-1.yts");
        let c = dir.file("audit.channels.yts");
        for p in [&a, &b, &c] {
            std::fs::write(p, b"x").unwrap();
        }
        std::fs::write(dir.file("unrelated.yts"), b"x").unwrap();

        let dir_arg = dir.path().to_str().unwrap().to_string();
        let mut expected = vec![a.clone(), b.clone(), c.clone()];
        expected.sort();
        assert_eq!(expand_shard_arg(&dest, &dir_arg).unwrap(), expected);

        let glob_arg = format!("{dir_arg}/audit.shard-*.yts");
        let mut shards_only = vec![a, b];
        shards_only.sort();
        assert_eq!(expand_shard_arg(&dest, &glob_arg).unwrap(), shards_only);
    }
}
