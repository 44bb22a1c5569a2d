//! Rule `quota-consistency`: one canonical quota table.
//!
//! Quota arithmetic appears in three places — the simulated API's ledger
//! (`crates/api/src/quota.rs`, the canonical source), the client's
//! planning budget, and the scheduler's governor. If they disagree, the
//! collector either trips the server's 403 mid-run (client prices too
//! low) or wastes researcher quota (prices too high). Checks:
//!
//! 1. `Endpoint::cost()` in the canonical file covers every `Endpoint`
//!    variant explicitly — no `_ =>` wildcard, so a new endpoint cannot
//!    silently inherit a price;
//! 2. any `const NAME: … = <int>` in the mirror files whose name also
//!    exists as a const in the canonical file has the same value.

use super::retry::{enum_variants, fn_body_span};
use super::Rule;
use crate::diag::Diagnostic;
use crate::lex::{int_value, TokenKind};
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// The canonical quota table.
const CANONICAL_FILE: &str = "crates/api/src/quota.rs";

/// Files that mirror quota arithmetic and must agree with the table.
const MIRROR_FILES: &[&str] = &[
    "crates/client/src/budget.rs",
    "crates/sched/src/governor.rs",
    "crates/cli/src/commands/quota.rs",
];

/// The quota-consistency rule.
pub struct QuotaConsistency;

impl Rule for QuotaConsistency {
    fn name(&self) -> &'static str {
        "quota-consistency"
    }

    fn description(&self) -> &'static str {
        "client/scheduler quota constants agree with the canonical api table"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(canonical) = ws.file(CANONICAL_FILE) else {
            return; // fixture workspaces without the anchor skip the rule
        };

        // 1. Endpoint::cost() must be explicit.
        match enum_variants(canonical, "Endpoint") {
            Some((variants, _)) => {
                if let Some((start, end)) = fn_body_span(canonical, "cost") {
                    let toks = &canonical.tokens;
                    for (variant, line) in &variants {
                        let mentioned = (start..end)
                            .any(|i| toks[i].kind == TokenKind::Ident && toks[i].text == *variant);
                        if !mentioned {
                            out.push(
                                Diagnostic::new(
                                    self.name(),
                                    &canonical.path,
                                    *line,
                                    1,
                                    format!("`Endpoint::{variant}` has no explicit arm in cost()"),
                                )
                                .with_help("price every endpoint explicitly"),
                            );
                        }
                    }
                    for i in start..end {
                        if toks[i].kind == TokenKind::Ident
                            && toks[i].text == "_"
                            && toks.get(i + 1).is_some_and(|a| a.text == "=")
                            && toks.get(i + 2).is_some_and(|b| b.text == ">")
                        {
                            out.push(
                                Diagnostic::new(
                                    self.name(),
                                    &canonical.path,
                                    toks[i].line,
                                    toks[i].col,
                                    "wildcard `_ =>` in Endpoint::cost(): a new endpoint \
                                     would silently inherit a price"
                                        .to_string(),
                                )
                                .with_help("list every endpoint's cost explicitly"),
                            );
                        }
                    }
                } else {
                    out.push(Diagnostic::new(
                        self.name(),
                        &canonical.path,
                        1,
                        1,
                        "rule anchor missing: `fn cost` not found".to_string(),
                    ));
                }
            }
            None => {
                out.push(Diagnostic::new(
                    self.name(),
                    &canonical.path,
                    1,
                    1,
                    "rule anchor missing: `enum Endpoint` not found".to_string(),
                ));
            }
        }

        // 2. Same-named integer consts must agree.
        let canon_consts = int_consts(canonical);
        for mirror_path in MIRROR_FILES {
            let Some(mirror) = ws.file(mirror_path) else {
                continue;
            };
            for (name, value, line) in int_consts(mirror) {
                if let Some((canon_value, _)) = canon_consts
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map(|(_, v, l)| (*v, *l))
                {
                    if canon_value != value {
                        out.push(
                            Diagnostic::new(
                                self.name(),
                                &mirror.path,
                                line,
                                1,
                                format!(
                                    "const {name} = {value} disagrees with the canonical \
                                     {canon_value} in {CANONICAL_FILE}"
                                ),
                            )
                            .with_help("import the canonical const instead of redefining it"),
                        );
                    }
                }
            }
        }
    }
}

/// Extracts `(name, value, line)` from every `const NAME: … = <int literal>;`.
fn int_consts(file: &SourceFile) -> Vec<(String, u64, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "const" {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    // Scan to `=` then expect an integer then `;`.
                    let mut j = i + 2;
                    while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
                        j += 1;
                    }
                    if j < toks.len() && toks[j].text == "=" {
                        if let (Some(val_tok), Some(end_tok)) = (toks.get(j + 1), toks.get(j + 2)) {
                            if val_tok.kind == TokenKind::Int && end_tok.text == ";" {
                                if let Some(value) = int_value(&val_tok.text) {
                                    out.push((name_tok.text.clone(), value, name_tok.line));
                                }
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}
