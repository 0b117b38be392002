//! Token-level lexer for Rust source.
//!
//! The lock passes never want a full parse, but they do need comments,
//! string literals, char literals and raw strings to never produce
//! identifier tokens: a doc example or a log message mentioning
//! `.lock_recover()` must not become an acquisition. This module
//! therefore lexes exactly enough of Rust's lexical grammar to classify
//! every byte of a source file as identifier, punctuation, literal or
//! comment, with precise line/column positions, and leaves everything
//! else to the item parse.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (text available via [`Tok::text`]).
    Ident,
    /// A single punctuation byte (`.`, `!`, `{`, …).
    Punct(u8),
    /// String, raw-string, byte-string, byte or char literal.
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// `// …` comment.
    LineComment,
    /// `/* … */` comment (possibly nested).
    BlockComment,
}

/// One token with its position in the source file.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based byte column of the token's first byte within its line.
    pub col: u32,
    /// Token text; populated for identifiers, empty for everything else.
    pub text: String,
}

impl Tok {
    /// True for every token but comments, which are position markers
    /// only.
    pub fn is_code(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Ident
                | TokKind::Punct(_)
                | TokKind::Literal
                | TokKind::Number
                | TokKind::Lifetime
        )
    }
}

/// Byte-oriented scanner with line/column tracking.
struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a [u8]) -> Self {
        Scanner {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    /// Advance one byte, maintaining line/col counters.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.bump().is_none() {
                break;
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into a token stream.
///
/// The lexer is total: any byte sequence produces a token list (malformed
/// input degrades to punctuation tokens rather than failing), so the
/// passes can run on any file the walker hands them.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut s = Scanner::new(src.as_bytes());
    let mut toks = Vec::new();
    while let Some(b) = s.peek() {
        let (line, col) = (s.line, s.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek_at(1) == Some(b'/') => {
                while let Some(c) = s.peek() {
                    if c == b'\n' {
                        break;
                    }
                    s.bump();
                }
                toks.push(Tok {
                    kind: TokKind::LineComment,
                    line,
                    col,
                    text: String::new(),
                });
            }
            b'/' if s.peek_at(1) == Some(b'*') => {
                s.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (s.peek(), s.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            s.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            s.bump_n(2);
                        }
                        (Some(_), _) => {
                            s.bump();
                        }
                        (None, _) => break,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::BlockComment,
                    line,
                    col,
                    text: String::new(),
                });
            }
            b'"' => {
                lex_string(&mut s);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    line,
                    col,
                    text: String::new(),
                });
            }
            b'\'' => {
                let kind = lex_quote(&mut s);
                toks.push(Tok {
                    kind,
                    line,
                    col,
                    text: String::new(),
                });
            }
            b'0'..=b'9' => {
                // Numeric literal: digits plus any alphanumeric suffix
                // (covers 0x…, 1_000u64, 1e9). The `.` of a float is left
                // as punctuation; `1.5` lexes as Number/Punct/Number,
                // which no pattern can confuse with a method call.
                while let Some(c) = s.peek() {
                    if is_ident_continue(c) {
                        s.bump();
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Number,
                    line,
                    col,
                    text: String::new(),
                });
            }
            c if is_ident_start(c) => {
                let start = s.pos;
                while let Some(c) = s.peek() {
                    if is_ident_continue(c) {
                        s.bump();
                    } else {
                        break;
                    }
                }
                let ident = &s.src[start..s.pos];
                // Raw-string / byte-string / byte-char prefixes, and raw
                // identifiers (`r#match`). The prefix identifier has
                // already been consumed; on a match the literal body is
                // consumed too and the whole thing becomes one token.
                match ident {
                    b"r" | b"br" => {
                        if lex_raw_string_body(&mut s) {
                            toks.push(Tok {
                                kind: TokKind::Literal,
                                line,
                                col,
                                text: String::new(),
                            });
                            continue;
                        }
                        if ident == b"r"
                            && s.peek() == Some(b'#')
                            && s.peek_at(1).is_some_and(is_ident_start)
                        {
                            // Raw identifier r#foo: emit `foo` as the
                            // identifier text.
                            s.bump(); // '#'
                            let rstart = s.pos;
                            while let Some(c) = s.peek() {
                                if is_ident_continue(c) {
                                    s.bump();
                                } else {
                                    break;
                                }
                            }
                            let text = String::from_utf8_lossy(&s.src[rstart..s.pos]).into_owned();
                            toks.push(Tok {
                                kind: TokKind::Ident,
                                line,
                                col,
                                text,
                            });
                            continue;
                        }
                    }
                    b"b" => {
                        if s.peek() == Some(b'"') {
                            lex_string(&mut s);
                            toks.push(Tok {
                                kind: TokKind::Literal,
                                line,
                                col,
                                text: String::new(),
                            });
                            continue;
                        }
                        if s.peek() == Some(b'\'') {
                            lex_quote(&mut s);
                            toks.push(Tok {
                                kind: TokKind::Literal,
                                line,
                                col,
                                text: String::new(),
                            });
                            continue;
                        }
                    }
                    _ => {}
                }
                let text = String::from_utf8_lossy(ident).into_owned();
                toks.push(Tok {
                    kind: TokKind::Ident,
                    line,
                    col,
                    text,
                });
            }
            _ => {
                s.bump();
                toks.push(Tok {
                    kind: TokKind::Punct(b),
                    line,
                    col,
                    text: String::new(),
                });
            }
        }
    }
    toks
}

/// Consume a `"…"` string starting at the opening quote.
fn lex_string(s: &mut Scanner<'_>) {
    s.bump(); // opening quote
    while let Some(c) = s.peek() {
        match c {
            b'\\' => s.bump_n(2),
            b'"' => {
                s.bump();
                return;
            }
            _ => {
                s.bump();
            }
        }
    }
}

/// Consume what follows a `'`: either a char literal or a lifetime/label.
///
/// Disambiguation mirrors rustc's lexer: `'` followed by a backslash is a
/// char escape; `'` followed by exactly one character and a closing `'`
/// is a char literal; anything else identifier-like is a lifetime.
fn lex_quote(s: &mut Scanner<'_>) -> TokKind {
    s.bump(); // opening quote
    match s.peek() {
        Some(b'\\') => {
            // Escape: consume until the closing quote.
            s.bump_n(2);
            while let Some(c) = s.peek() {
                match c {
                    b'\\' => s.bump_n(2),
                    b'\'' => {
                        s.bump();
                        break;
                    }
                    _ => {
                        s.bump();
                    }
                }
            }
            TokKind::Literal
        }
        Some(c) if is_ident_start(c) => {
            // Could be 'x' (char) or 'x…(lifetime). Scan the identifier
            // run; a closing quote right after exactly that run makes it
            // a char literal only when the run is one character long —
            // otherwise ('abc' is not valid Rust) treat as lifetime.
            let mut len = 1usize;
            while s.peek_at(len).is_some_and(is_ident_continue) {
                len += 1;
            }
            // Count continuation bytes so a single multi-byte char (e.g.
            // 'é') still reads as one character.
            let chars = s.src[s.pos..s.pos + len]
                .iter()
                .filter(|b| (**b & 0xC0) != 0x80)
                .count();
            if chars == 1 && s.peek_at(len) == Some(b'\'') {
                s.bump_n(len + 1);
                TokKind::Literal
            } else {
                s.bump_n(len);
                TokKind::Lifetime
            }
        }
        Some(b'\'') => {
            // Empty '' — not valid Rust; consume and move on.
            s.bump();
            TokKind::Literal
        }
        Some(_) => {
            // Non-identifier char literal like '.', '(' or a multi-byte
            // symbol; consume the char and the closing quote if present.
            s.bump();
            if s.peek() == Some(b'\'') {
                s.bump();
            } else {
                // Multi-byte char: skip continuation bytes then the quote.
                while s.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                    s.bump();
                }
                if s.peek() == Some(b'\'') {
                    s.bump();
                }
            }
            TokKind::Literal
        }
        None => TokKind::Literal,
    }
}

/// Try to consume a raw-string body (`#*"…"#*`) after an `r`/`br`
/// prefix. Returns false (consuming nothing) if what follows is not a
/// raw string.
fn lex_raw_string_body(s: &mut Scanner<'_>) -> bool {
    let mut hashes = 0usize;
    while s.peek_at(hashes) == Some(b'#') {
        hashes += 1;
    }
    if s.peek_at(hashes) != Some(b'"') {
        return false;
    }
    s.bump_n(hashes + 1); // hashes + opening quote
    loop {
        match s.peek() {
            None => return true,
            Some(b'"') => {
                let mut close = 0usize;
                while close < hashes && s.peek_at(1 + close) == Some(b'#') {
                    close += 1;
                }
                if close == hashes {
                    s.bump_n(1 + hashes);
                    return true;
                }
                s.bump();
            }
            Some(_) => {
                s.bump();
            }
        }
    }
}
