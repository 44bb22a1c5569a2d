//! A small Rust lexer: just enough token structure for pattern-based
//! invariant checks, with precise line/column positions.
//!
//! The lexer is deliberately forgiving — it never fails. Anything it does
//! not recognize becomes a one-character [`TokenKind::Punct`]. What it
//! *must* get right (and what unit tests pin down) is the classification
//! of comments, string/char literals, and raw strings, because rules
//! match token sequences and a `panic!` inside a string literal or a
//! doc comment is not a violation.

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `match`, `r#type`, …).
    Ident,
    /// An integer literal (`0`, `10_000`, `0xFF`, `1u8`).
    Int,
    /// A float literal (`1.0`, `2e9`).
    Float,
    /// A string, raw-string, byte-string, or char literal.
    Str,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`.`, `!`, `[`, …).
    Punct,
}

/// One lexed token with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (for `Ident`/`Int`: the exact source spelling).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in characters).
    pub col: usize,
}

/// A comment, kept separate from the token stream (suppression
/// directives live here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text including the delimiters (`// …` or `/* … */`).
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Whether any non-whitespace source precedes it on its line
    /// (a trailing comment annotates its own line; a standalone one
    /// annotates the next line of code).
    pub trailing: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    chars: Vec<char>,
    src: std::marker::PhantomData<&'a str>,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            chars: src.chars().collect(),
            src: std::marker::PhantomData,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: unrecognized bytes
/// degrade into punctuation tokens.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    // Tracks whether the current line already produced a token (to mark
    // trailing comments).
    let mut line_has_code = false;
    let mut code_line = 0usize;

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if line != code_line {
            line_has_code = false;
        }
        match c {
            ch if ch.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if ch == '\n' {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.comments.push(Comment {
                    text,
                    line,
                    trailing: line_has_code,
                });
            }
            '/' if cur.peek_at(1) == Some('*') => {
                let mut text = String::new();
                let mut depth = 0usize;
                while let Some(ch) = cur.peek() {
                    if ch == '/' && cur.peek_at(1) == Some('*') {
                        depth += 1;
                        text.push('/');
                        text.push('*');
                        cur.bump();
                        cur.bump();
                    } else if ch == '*' && cur.peek_at(1) == Some('/') {
                        depth -= 1;
                        text.push('*');
                        text.push('/');
                        cur.bump();
                        cur.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(ch);
                        cur.bump();
                    }
                }
                out.comments.push(Comment {
                    text,
                    line,
                    trailing: line_has_code,
                });
            }
            '"' => {
                lex_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line,
                    col,
                });
                line_has_code = true;
                code_line = cur.line;
            }
            'r' | 'b' | 'c' if starts_prefixed_literal(&cur) => {
                lex_prefixed_literal(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line,
                    col,
                });
                line_has_code = true;
                code_line = cur.line;
            }
            '\'' => {
                if lex_char_or_lifetime(&mut cur) {
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: String::new(),
                        line,
                        col,
                    });
                } else {
                    // A lifetime: the identifier was consumed.
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: String::new(),
                        line,
                        col,
                    });
                }
                line_has_code = true;
                code_line = cur.line;
            }
            ch if ch.is_ascii_digit() => {
                let (text, float) = lex_number(&mut cur);
                out.tokens.push(Token {
                    kind: if float {
                        TokenKind::Float
                    } else {
                        TokenKind::Int
                    },
                    text,
                    line,
                    col,
                });
                line_has_code = true;
                code_line = cur.line;
            }
            ch if is_ident_start(ch) => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                });
                line_has_code = true;
                code_line = cur.line;
            }
            ch => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: ch.to_string(),
                    line,
                    col,
                });
                line_has_code = true;
                code_line = cur.line;
            }
        }
    }
    out
}

/// Whether the cursor sits on a prefixed literal such as `r"…"`,
/// `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, or `c"…"` (and not on an
/// identifier like `b` or a raw identifier like `r#type`).
fn starts_prefixed_literal(cur: &Cursor<'_>) -> bool {
    let mut ahead = 0usize;
    // Consume the prefix letters (at most two: `br`, `cr`, `rb`? — Rust
    // only has r, b, c, br, cr; two letters suffice).
    for _ in 0..2 {
        match cur.peek_at(ahead) {
            Some('r' | 'b' | 'c') => ahead += 1,
            _ => break,
        }
    }
    if ahead == 0 {
        return false;
    }
    // Then `"`, `'` (byte char), or `#…"` (raw).
    match cur.peek_at(ahead) {
        Some('"') => true,
        Some('\'') => cur.peek_at(ahead.saturating_sub(1)) == Some('b'),
        Some('#') => {
            let mut j = ahead;
            while cur.peek_at(j) == Some('#') {
                j += 1;
            }
            // `r#ident` is a raw identifier, not a string.
            cur.peek_at(j) == Some('"')
        }
        _ => false,
    }
}

/// Consumes a `"…"` string with escapes. The opening quote is at the
/// cursor.
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a prefixed literal (`r"…"`, `br#"…"#`, `b'x'`, …).
fn lex_prefixed_literal(cur: &mut Cursor<'_>) {
    let mut raw = false;
    let mut byte = false;
    while let Some(ch) = cur.peek() {
        match ch {
            'r' => {
                raw = true;
                cur.bump();
            }
            'b' | 'c' => {
                byte = ch == 'b';
                cur.bump();
            }
            _ => break,
        }
    }
    if raw {
        let mut hashes = 0usize;
        while cur.peek() == Some('#') {
            hashes += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        'outer: while let Some(ch) = cur.bump() {
            if ch == '"' {
                for _ in 0..hashes {
                    if cur.peek() == Some('#') {
                        cur.bump();
                    } else {
                        continue 'outer;
                    }
                }
                break;
            }
        }
    } else if byte && cur.peek() == Some('\'') {
        // Byte char `b'x'`.
        cur.bump();
        while let Some(ch) = cur.bump() {
            match ch {
                '\\' => {
                    cur.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    } else {
        lex_string(cur);
    }
}

/// Consumes either a char literal (returns `true`) or a lifetime
/// (returns `false`). The `'` is at the cursor.
fn lex_char_or_lifetime(cur: &mut Cursor<'_>) -> bool {
    // Lifetime: `'ident` NOT followed by a closing `'`.
    if let Some(next) = cur.peek_at(1) {
        if is_ident_start(next) && cur.peek_at(2) != Some('\'') {
            cur.bump(); // '
            while let Some(ch) = cur.peek() {
                if !is_ident_continue(ch) {
                    break;
                }
                cur.bump();
            }
            return false;
        }
    }
    cur.bump(); // opening '
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
    true
}

/// Consumes a numeric literal, returning (text, is_float).
fn lex_number(cur: &mut Cursor<'_>) -> (String, bool) {
    let mut text = String::new();
    let mut float = false;
    // Radix prefix.
    if cur.peek() == Some('0') && matches!(cur.peek_at(1), Some('x' | 'o' | 'b')) {
        text.push('0');
        cur.bump();
        if let Some(radix) = cur.peek() {
            text.push(radix);
            cur.bump();
        }
        while let Some(ch) = cur.peek() {
            if ch.is_ascii_hexdigit() || ch == '_' {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
    } else {
        while let Some(ch) = cur.peek() {
            if ch.is_ascii_digit() || ch == '_' {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
        // Fraction: `1.5` but not `1.max(…)` or `0..n`.
        if cur.peek() == Some('.') {
            if let Some(after) = cur.peek_at(1) {
                if after.is_ascii_digit() {
                    float = true;
                    text.push('.');
                    cur.bump();
                    while let Some(ch) = cur.peek() {
                        if ch.is_ascii_digit() || ch == '_' {
                            text.push(ch);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some('e' | 'E'))
            && matches!(cur.peek_at(1), Some(c) if c.is_ascii_digit() || c == '+' || c == '-')
        {
            float = true;
            if let Some(e) = cur.peek() {
                text.push(e);
            }
            cur.bump();
            while let Some(ch) = cur.peek() {
                if ch.is_ascii_digit() || ch == '_' || ch == '+' || ch == '-' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Type suffix (`u8`, `f64`, `usize`).
    let mut suffix = String::new();
    while let Some(ch) = cur.peek() {
        if is_ident_continue(ch) {
            suffix.push(ch);
            cur.bump();
        } else {
            break;
        }
    }
    if suffix.starts_with('f') {
        float = true;
    }
    text.push_str(&suffix);
    (text, float)
}

/// Parses the numeric value of an [`TokenKind::Int`] token's text
/// (handling `_` separators, radix prefixes, and type suffixes).
pub fn int_value(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(hex) = cleaned.strip_prefix("0x") {
        (hex, 16)
    } else if let Some(oct) = cleaned.strip_prefix("0o") {
        (oct, 8)
    } else if let Some(bin) = cleaned.strip_prefix("0b") {
        (bin, 2)
    } else {
        (cleaned.as_str(), 10)
    };
    // Stop at the first character that is not a digit of the radix; this
    // also drops any type suffix (`u8`, `i64`, `usize`).
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    u64::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let lexed = lex("let x = 1; // panic!\n/* unwrap() */ let y;\n");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
        assert!(!idents("// panic!\nfoo").contains(&"panic".to_string()));
    }

    #[test]
    fn strings_swallow_their_contents() {
        assert_eq!(
            idents(r#"let s = "a.unwrap()"; done"#),
            vec!["let", "s", "done"]
        );
        assert_eq!(
            idents(r##"let s = r#"panic!(x)"# ; done"##),
            vec!["let", "s", "done"]
        );
        assert_eq!(
            idents(r#"let b = b"unwrap"; done"#),
            vec!["let", "b", "done"]
        );
    }

    #[test]
    fn chars_versus_lifetimes() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2, "exactly the two char literals: {lexed:?}");
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(idents("/* outer /* inner */ still */ code"), vec!["code"]);
    }

    #[test]
    fn numbers_and_positions() {
        let lexed = lex("a[0] + 10_000 + 0xFF + 1.5 + 2e3");
        let kinds: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| (t.kind, t.text.clone()))
            .collect();
        assert_eq!(kinds[0], (TokenKind::Int, "0".to_string()));
        assert_eq!(kinds[1], (TokenKind::Int, "10_000".to_string()));
        assert_eq!(kinds[2], (TokenKind::Int, "0xFF".to_string()));
        assert_eq!(kinds[3].0, TokenKind::Float);
        assert_eq!(kinds[4].0, TokenKind::Float);
        assert_eq!(int_value("10_000"), Some(10_000));
        assert_eq!(int_value("0xFF"), Some(255));
        assert_eq!(int_value("100u64"), Some(100));
    }

    #[test]
    fn line_numbers_are_accurate() {
        let lexed = lex("one\ntwo three\n\nfour");
        let lines: Vec<_> = lexed
            .tokens
            .iter()
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(
            lines,
            vec![
                ("one".to_string(), 1),
                ("two".to_string(), 2),
                ("three".to_string(), 2),
                ("four".to_string(), 4),
            ]
        );
    }

    #[test]
    fn range_after_int_is_not_a_float() {
        let lexed = lex("for i in 0..n {}");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "0"));
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Float));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "r", "type"]);
    }
}
