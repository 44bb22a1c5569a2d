//! One lintable source file: its token stream, comments, `#[cfg(test)]`
//! regions, and `ytlint: allow` suppression directives.

use crate::lex::{lex, Comment, Lexed, Token, TokenKind};
use std::cell::Cell;

/// What kind of build target a file belongs to. Rules use this to scope
/// themselves (e.g. panic-freedom applies to library and binary code but
/// not to tests, benches, or examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Part of a crate's library (`src/**` excluding `src/bin`).
    Lib,
    /// A binary (`src/main.rs`, `src/bin/**`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
}

/// One `// ytlint: allow(rule, …) — reason` directive (or its
/// file-scope form `allow-file`, which covers the whole file).
#[derive(Debug)]
pub struct Allow {
    /// The rules this directive suppresses.
    pub rules: Vec<String>,
    /// Whether the directive covers the whole file (`allow-file`).
    pub file_scope: bool,
    /// The line the directive applies to (its own line for trailing
    /// comments, the next code line for standalone ones). Unused for
    /// file-scope directives.
    pub target_line: usize,
    /// The line the directive itself is written on (for diagnostics).
    pub directive_line: usize,
    /// Justification text after the rule list; `None` when missing.
    pub reason: Option<String>,
    /// Set when a diagnostic was actually suppressed by this directive.
    pub used: Cell<bool>,
}

/// A parsed, classified source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Name of the owning crate (directory under `crates/`, or the
    /// workspace package name for root `src/`).
    pub crate_name: String,
    /// Which target the file belongs to.
    pub target: TargetKind,
    /// Non-comment tokens.
    pub tokens: Vec<Token>,
    /// Comments (directives are parsed out of these).
    pub comments: Vec<Comment>,
    /// Suppression directives.
    pub allows: Vec<Allow>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items and
    /// `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Parses `text` as the file at `path` belonging to `crate_name`.
    pub fn parse(path: &str, crate_name: &str, target: TargetKind, text: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(text);
        let test_spans = find_test_spans(&tokens);
        let allows = parse_allows(&comments, &tokens);
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            target,
            tokens,
            comments,
            allows,
            test_spans,
        }
    }

    /// Whether `line` falls inside test code (`#[cfg(test)]` modules or
    /// `#[test]` functions).
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether the whole file is test-only (integration tests, benches,
    /// examples).
    pub fn is_test_target(&self) -> bool {
        matches!(
            self.target,
            TargetKind::Test | TargetKind::Bench | TargetKind::Example
        )
    }

    /// Checks directives for a suppression of `rule` covering `line`,
    /// marking the match used.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        for allow in &self.allows {
            if (allow.file_scope || allow.target_line == line)
                && allow.rules.iter().any(|r| r == rule)
            {
                allow.used.set(true);
                return true;
            }
        }
        false
    }
}

/// Finds line spans of `#[cfg(test)]`-gated items and `#[test]`
/// functions by matching the brace block that follows the attribute.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_len) = test_attribute_len(&tokens[i..]) {
            let start_line = tokens[i].line;
            // Find the opening brace of the item the attribute gates,
            // then its matching close.
            let mut j = i + attr_len;
            // Skip any further attributes (`#[test] #[ignore] fn …`).
            while j < tokens.len() {
                if tokens[j].kind == TokenKind::Punct && tokens[j].text == "#" {
                    j += skip_attribute(&tokens[j..]);
                } else {
                    break;
                }
            }
            let mut depth = 0usize;
            let mut end_line = start_line;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                end_line = t.line;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            // Braceless item (`#[cfg(test)] use …;`).
                            end_line = t.line;
                            break;
                        }
                        _ => {}
                    }
                }
                end_line = t.line;
                j += 1;
            }
            spans.push((start_line, end_line));
            i = j.max(i + attr_len);
        }
        i += 1;
    }
    spans
}

/// If `tokens` starts with `#[cfg(test)]` or `#[test]`, returns the
/// token length of that attribute.
fn test_attribute_len(tokens: &[Token]) -> Option<usize> {
    let texts: Vec<&str> = tokens.iter().take(8).map(|t| t.text.as_str()).collect();
    match texts.as_slice() {
        ["#", "[", "cfg", "(", "test", ")", "]", ..] => Some(7),
        ["#", "[", "test", "]", ..] => Some(4),
        _ => None,
    }
}

/// Returns the token length of an attribute starting at `tokens[0]`
/// (which must be `#`).
fn skip_attribute(tokens: &[Token]) -> usize {
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return idx + 1;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len()
}

/// The directive prefix inside a comment.
const DIRECTIVE: &str = "ytlint:";

/// Parses `ytlint: allow(rule, …) — reason` directives out of comments.
/// A trailing comment targets its own line; a standalone comment targets
/// the next line that has code.
fn parse_allows(comments: &[Comment], tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in comments {
        let body = comment
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix(DIRECTIVE) else {
            continue;
        };
        let rest = rest.trim_start();
        // Verbs: `allow-file` (whole file) and `allow` (one line).
        // Unknown verbs become a malformed directive (reason: None,
        // rules: empty) so the engine reports them instead of silently
        // ignoring them. `allow-file` is checked first because `allow`
        // is its prefix.
        let (file_scope, args) = match rest.strip_prefix("allow-file") {
            Some(after) => (true, Some(after)),
            None => (false, rest.strip_prefix("allow")),
        };
        let (rules, reason) = match args {
            Some(after) => parse_allow_args(after),
            None => (Vec::new(), None),
        };
        let target_line = if comment.trailing {
            comment.line
        } else {
            next_code_line(tokens, comment.line).unwrap_or(comment.line)
        };
        allows.push(Allow {
            rules,
            file_scope,
            target_line,
            directive_line: comment.line,
            reason,
            used: Cell::new(false),
        });
    }
    allows
}

/// Parses `(rule, …) — reason` after the `allow` verb.
fn parse_allow_args(after: &str) -> (Vec<String>, Option<String>) {
    let after = after.trim_start();
    let Some(open) = after.strip_prefix('(') else {
        return (Vec::new(), None);
    };
    let Some(close) = open.find(')') else {
        return (Vec::new(), None);
    };
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = open[close + 1..].trim();
    // Accept `— reason`, `-- reason`, `- reason`, or `: reason`.
    let reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix("--"))
        .or_else(|| tail.strip_prefix('-'))
        .or_else(|| tail.strip_prefix(':'))
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(str::to_string);
    (rules, reason)
}

/// The first line at or after `line + 1` that holds a token.
fn next_code_line(tokens: &[Token], line: usize) -> Option<usize> {
    tokens.iter().map(|t| t.line).find(|&l| l > line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", "x", TargetKind::Lib, src)
    }

    #[test]
    fn cfg_test_module_span_covers_the_block() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = file(src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn bare_test_fn_span() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    boom();\n}\nfn z() {}\n";
        let f = file(src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = v.unwrap(); // ytlint: allow(panics) — length checked above\n";
        let f = file(src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].target_line, 1);
        assert_eq!(f.allows[0].rules, vec!["panics"]);
        assert!(f.allows[0].reason.is_some());
        assert!(f.suppressed("panics", 1));
        assert!(!f.suppressed("determinism", 1));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// ytlint: allow(determinism) — wall-clock metrics only\nlet t = now();\n";
        let f = file(src);
        assert_eq!(f.allows[0].target_line, 2);
        assert!(f.suppressed("determinism", 2));
    }

    #[test]
    fn missing_reason_is_preserved_as_none() {
        let f = file("x(); // ytlint: allow(panics)\n");
        assert_eq!(f.allows[0].reason, None);
        // Suppression still works; hygiene reporting is the engine's job.
        assert!(f.suppressed("panics", 1));
    }

    #[test]
    fn multiple_rules_in_one_directive() {
        let f = file("y(); // ytlint: allow(panics, determinism) -- both fine here\n");
        assert!(f.suppressed("panics", 1));
        assert!(f.suppressed("determinism", 1));
        assert!(f.allows[0].reason.is_some());
    }

    #[test]
    fn allow_file_covers_every_line() {
        let src = "// ytlint: allow-file(indexing) — fixed-size kernel\n\
                   fn a(c: &[f64; 3]) -> f64 { c[0] }\n\
                   fn b(c: &[f64; 3]) -> f64 { c[2] }\n";
        let f = file(src);
        assert!(f.allows[0].file_scope);
        assert!(f.suppressed("indexing", 2));
        assert!(f.suppressed("indexing", 3));
        assert!(!f.suppressed("panics", 2));
    }

    #[test]
    fn used_flag_tracks_suppressions() {
        let f = file("z(); // ytlint: allow(panics) — reason\n");
        assert!(!f.allows[0].used.get());
        f.suppressed("panics", 1);
        assert!(f.allows[0].used.get());
    }
}
