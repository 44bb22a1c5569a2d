//! Workspace discovery: finds every Rust source file the rules should
//! see, classifies it by crate and target kind, and parses it once.
//!
//! Discovery is path-convention based (`crates/*/src`, `crates/*/tests`,
//! root `src`, `tests`, `examples`) rather than driven by Cargo metadata,
//! so the linter works without Cargo and without network access.

use crate::source::{SourceFile, TargetKind};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose *library and binary* code is exempt from the
/// panic-freedom rule: offline report generators whose process-level
/// panics cannot corrupt a collection. Kept here (not in per-file
/// annotations) so the exemption is visible in one place and documented
/// in DESIGN.md.
pub const PANIC_EXEMPT_CRATES: &[&str] = &["bench"];

/// A parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// All discovered files, parsed.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads the workspace rooted at `root` from disk. A root that does
    /// not exist or contains no Rust sources is an error, not a clean
    /// result — otherwise a typo'd `--root` would report green in CI.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("workspace root {} is not a directory", root.display()),
            ));
        }
        let mut files = Vec::new();
        // Member crates: crates/<name>/{src,tests,benches,examples}.
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut names: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            names.sort();
            for krate in names {
                let crate_name = krate
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                collect_crate_files(root, &krate, &crate_name, &mut files)?;
            }
        }
        // The root package.
        collect_crate_files(root, root, "ytaudit", &mut files)?;
        if files.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no Rust sources found under {}", root.display()),
            ));
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory `(path, text)` pairs — the
    /// fixture-test entry point. Paths use the same conventions as
    /// on-disk discovery (`crates/<name>/src/…`).
    pub fn from_files(files: &[(&str, &str)]) -> Workspace {
        let mut parsed = Vec::new();
        for (path, text) in files {
            let (crate_name, target) = classify(path);
            parsed.push(SourceFile::parse(path, &crate_name, target, text));
        }
        parsed.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files: parsed }
    }

    /// The file at exactly `path`, if discovered.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// Classifies a workspace-relative path into (crate name, target kind).
fn classify(path: &str) -> (String, TargetKind) {
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("ytaudit")
        .to_string();
    let in_crate = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .map_or(path, |(_, rest)| rest);
    let target = if in_crate.starts_with("tests/") {
        TargetKind::Test
    } else if in_crate.starts_with("benches/") {
        TargetKind::Bench
    } else if in_crate.starts_with("examples/") {
        TargetKind::Example
    } else if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
        TargetKind::Bin
    } else {
        TargetKind::Lib
    };
    (crate_name, target)
}

/// Walks one package directory for lintable files.
fn collect_crate_files(
    root: &Path,
    package: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    for sub in ["src", "tests", "benches", "examples"] {
        let dir = package.join(sub);
        if dir.is_dir() {
            walk(root, &dir, crate_name, out)?;
        }
    }
    Ok(())
}

fn walk(root: &Path, dir: &Path, crate_name: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            walk(root, &entry, crate_name, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .to_string_lossy()
                .replace('\\', "/");
            // Root-package discovery would otherwise re-walk crates/*.
            if out.iter().any(|f| f.path == rel) {
                continue;
            }
            let (_, target) = classify(&rel);
            let text = fs::read_to_string(&entry)?;
            out.push(SourceFile::parse(&rel, crate_name, target, &text));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_path_conventions() {
        assert_eq!(classify("crates/net/src/url.rs").1, TargetKind::Lib);
        assert_eq!(classify("crates/net/src/url.rs").0, "net");
        assert_eq!(classify("crates/cli/src/main.rs").1, TargetKind::Bin);
        assert_eq!(classify("crates/bench/src/bin/repro.rs").1, TargetKind::Bin);
        assert_eq!(
            classify("crates/types/tests/proptests.rs").1,
            TargetKind::Test
        );
        assert_eq!(
            classify("crates/bench/benches/sched.rs").1,
            TargetKind::Bench
        );
        assert_eq!(classify("examples/quickstart.rs").1, TargetKind::Example);
        assert_eq!(classify("src/lib.rs").1, TargetKind::Lib);
        assert_eq!(classify("src/lib.rs").0, "ytaudit");
        assert_eq!(classify("tests/audit_pipeline.rs").1, TargetKind::Test);
    }

    #[test]
    fn loading_a_missing_or_sourceless_root_is_an_error() {
        assert!(Workspace::load(Path::new("/nonexistent-ytlint-root")).is_err());
        let empty = std::env::temp_dir().join(format!("ytlint-empty-{}", std::process::id()));
        fs::create_dir_all(&empty).unwrap();
        assert!(Workspace::load(&empty).is_err());
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn from_files_builds_a_queryable_workspace() {
        let ws = Workspace::from_files(&[
            ("crates/x/src/lib.rs", "pub fn f() {}"),
            ("crates/x/tests/t.rs", "fn t() {}"),
        ]);
        assert_eq!(ws.files.len(), 2);
        assert!(ws.file("crates/x/src/lib.rs").is_some());
        assert_eq!(
            ws.file("crates/x/tests/t.rs").map(|f| f.target),
            Some(TargetKind::Test)
        );
    }
}
