//! Rule `panics`: non-test library and binary code must not contain
//! reachable panic sites.
//!
//! A collector that panics mid-run loses its in-flight pair and, worse,
//! can leave a store tail for recovery to clean up; every failure must
//! instead flow through the workspace's typed error enums so the
//! scheduler can classify it (retry vs. drain). Flagged forms:
//!
//! - `.unwrap()` / `.expect(…)`
//! - `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `dbg!`
//!
//! Literal indexing (`xs[0]`) panics too but is checked by the sibling
//! [`indexing`](super::Indexing) rule, so math kernels built on
//! fixed-size arrays can file-allow that rule without weakening this one.
//!
//! Report-generator binaries (see
//! [`PANIC_EXEMPT_CRATES`](crate::workspace::PANIC_EXEMPT_CRATES)) are
//! exempt, as are tests, benches, and examples. Provably-infallible
//! sites keep an `expect` with a `ytlint: allow(panics) — reason`
//! annotation.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lex::TokenKind;
use crate::workspace::{Workspace, PANIC_EXEMPT_CRATES};

/// Method calls that panic on failure.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that panic (or must not ship, in `dbg!`'s case).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "dbg"];

/// The panic-freedom rule.
pub struct Panics;

impl Rule for Panics {
    fn name(&self) -> &'static str {
        "panics"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/literal-index in non-test library code"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if file.is_test_target() || PANIC_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            let toks = &file.tokens;
            for i in 0..toks.len() {
                let t = &toks[i];
                if file.in_test_code(t.line) {
                    continue;
                }
                // `.unwrap(` / `.expect(`
                if t.kind == TokenKind::Ident
                    && PANIC_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && toks[i - 1].kind == TokenKind::Punct
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|p| p.text == "(")
                {
                    out.push(
                        Diagnostic::new(
                            self.name(),
                            &file.path,
                            t.line,
                            t.col,
                            format!("`.{}()` in non-test code can panic", t.text),
                        )
                        .with_help(
                            "propagate a typed error (ytaudit_types::Error / store::Error), or \
                             annotate a provably-infallible site with `// ytlint: allow(panics) \
                             — <proof>`",
                        ),
                    );
                }
                // `panic!(` and friends.
                if t.kind == TokenKind::Ident
                    && PANIC_MACROS.contains(&t.text.as_str())
                    && toks
                        .get(i + 1)
                        .is_some_and(|p| p.kind == TokenKind::Punct && p.text == "!")
                    && toks
                        .get(i + 2)
                        .is_some_and(|p| matches!(p.text.as_str(), "(" | "[" | "{"))
                {
                    out.push(
                        Diagnostic::new(
                            self.name(),
                            &file.path,
                            t.line,
                            t.col,
                            format!("`{}!` in non-test code", t.text),
                        )
                        .with_help("return an error instead of aborting the worker"),
                    );
                }
            }
        }
    }
}
