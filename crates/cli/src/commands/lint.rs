//! `ytaudit lint` — the workspace invariant checker, wired into the main
//! CLI so a contributor never has to remember the `-p ytaudit-lint`
//! spelling. Exits 0 when clean and 1 when violations are found, so the
//! command composes in shell scripts and CI the same way the standalone
//! binary does.

use crate::args::{ArgError, Args};
use ytaudit_lint::{all_rules, check_path, find_root, render, rule_names, CheckOptions, Format};

pub const USAGE: &str = "\
ytaudit lint — check workspace invariants (determinism, panic-freedom,
retry-classification exhaustiveness, quota-table consistency, lock
ordering, fsync-then-rename discipline)

USAGE:
    ytaudit lint [--root PATH] [--format human|json|sarif] [--rule NAME]...
    ytaudit lint rules

OPTIONS:
    --root PATH      workspace root (default: walk up from the cwd)
    --format FMT     human (default), json, or sarif (2.1.0, for CI
                     code-scanning annotations)
    --rule NAME      run only this rule (repeatable; default: all rules,
                     including suppression hygiene)

Suppress a provably-safe finding at its site:
    // ytlint: allow(rule) — <why this site is safe>
or for a whole file of fixed-size-array arithmetic:
    // ytlint: allow-file(rule) — <why every site is safe>";

pub fn run(args: &Args) -> Result<(), ArgError> {
    match args.positional(1) {
        Some("rules") => {
            for rule in all_rules() {
                outln!("{:<18} {}", rule.name(), rule.description());
            }
            return Ok(());
        }
        Some(other) => {
            return Err(ArgError(format!(
                "unknown lint subcommand {other:?}; expected `rules` or no subcommand"
            )));
        }
        None => {}
    }

    let format = match args.get("format").unwrap_or("human") {
        "human" => Format::Human,
        "json" => Format::Json,
        "sarif" => Format::Sarif,
        other => {
            return Err(ArgError(format!(
                "unknown format {other:?}; expected human, json, or sarif"
            )))
        }
    };

    let rules: Vec<String> = args.get_all("rule").iter().map(|s| s.to_string()).collect();
    let known = rule_names();
    for rule in &rules {
        if !known.contains(&rule.as_str()) {
            return Err(ArgError(format!(
                "unknown rule {rule:?}; valid rules: {}",
                known.join(", ")
            )));
        }
    }

    let root = match args.get("root") {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| ArgError(format!("cannot determine working directory: {e}")))?;
            find_root(&cwd).ok_or_else(|| {
                ArgError(
                    "no workspace root (Cargo.toml + crates/) at or above the current \
                     directory; pass --root"
                        .into(),
                )
            })?
        }
    };

    let diags = check_path(&root, &CheckOptions { rules })
        .map_err(|e| ArgError(format!("cannot load workspace at {}: {e}", root.display())))?;
    out!("{}", render(&diags, format));
    if !diags.is_empty() {
        // Mirror the standalone binary's exit-code contract: 1 means the
        // workspace has violations (2 is reserved for usage/IO errors).
        std::process::exit(1);
    }
    Ok(())
}
