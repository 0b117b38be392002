//! Test-code scoping.
//!
//! The concurrency passes model production code only: `#[test]`
//! functions, `#[cfg(test)]` items and `mod tests { … }` blocks may take
//! locks in any order. This module walks the token stream once and
//! produces a per-token mask of test-scoped regions; the item parse
//! skips what it masks.

use crate::lexer::{Tok, TokKind};

fn ident_is(toks: &[Tok], code: &[usize], ci: usize, text: &str) -> bool {
    code.get(ci)
        .and_then(|&i| toks.get(i))
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_is(toks: &[Tok], code: &[usize], ci: usize, b: u8) -> bool {
    code.get(ci)
        .and_then(|&i| toks.get(i))
        .is_some_and(|t| t.kind == TokKind::Punct(b))
}

/// `mask[i]` is true when token `i` belongs to a test-only item.
///
/// Recognized forms:
/// - an attribute whose argument tokens mention `test` (covers
///   `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`) and do not
///   mention `not` (so `#[cfg(not(test))]` stays production code),
///   applied to the item that follows;
/// - `mod tests { … }` with or without an attribute.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    // Indices of code tokens (identifiers, punctuation, literals);
    // comments never participate in structure.
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let n = code.len();
    let mut ci = 0usize;
    while ci < n {
        if punct_is(toks, &code, ci, b'#') && punct_is(toks, &code, ci + 1, b'[') {
            let close = match match_delim(toks, &code, ci + 1, b'[', b']') {
                Some(c) => c,
                None => break,
            };
            let mut mentions_test = false;
            let mut mentions_not = false;
            for &k in &code[ci + 2..close] {
                if toks[k].kind == TokKind::Ident {
                    match toks[k].text.as_str() {
                        "test" => mentions_test = true,
                        "not" => mentions_not = true,
                        _ => {}
                    }
                }
            }
            if mentions_test && !mentions_not {
                // Skip any further attributes, then the item itself.
                let mut k = close + 1;
                while punct_is(toks, &code, k, b'#') && punct_is(toks, &code, k + 1, b'[') {
                    match match_delim(toks, &code, k + 1, b'[', b']') {
                        Some(c) => k = c + 1,
                        None => break,
                    }
                }
                let end = skip_item(toks, &code, k);
                mark_range(&code, ci, end, &mut mask);
                ci = end;
                continue;
            }
            ci = close + 1;
            continue;
        }
        if ident_is(toks, &code, ci, "mod")
            && ident_is(toks, &code, ci + 1, "tests")
            && punct_is(toks, &code, ci + 2, b'{')
        {
            let close = match match_delim(toks, &code, ci + 2, b'{', b'}') {
                Some(c) => c,
                None => n,
            };
            mark_range(&code, ci, close.saturating_add(1), &mut mask);
            ci = close + 1;
            continue;
        }
        ci += 1;
    }
    mask
}

/// Mark tokens from code index `from` (inclusive) to code index `to`
/// (exclusive), covering interleaved comment tokens as well.
fn mark_range(code: &[usize], from: usize, to: usize, mask: &mut [bool]) {
    if from >= code.len() {
        return;
    }
    let start = code[from];
    let end = if to == 0 || to > code.len() {
        mask.len()
    } else {
        code[to - 1] + 1
    };
    for m in mask.iter_mut().take(end).skip(start) {
        *m = true;
    }
}

/// Given the code index of an opening delimiter, return the code index
/// of its matching closer.
pub(crate) fn match_delim(
    toks: &[Tok],
    code: &[usize],
    open_ci: usize,
    open: u8,
    close: u8,
) -> Option<usize> {
    let mut depth = 0usize;
    for ci in open_ci..code.len() {
        match toks[code[ci]].kind {
            TokKind::Punct(b) if b == open => depth += 1,
            TokKind::Punct(b) if b == close => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(ci);
                }
            }
            _ => {}
        }
    }
    None
}

/// Skip one item starting at code index `k`; returns the code index one
/// past its end. An item ends at the first `;` outside any nesting, or
/// at the close of the first brace block (fn bodies, mods, impls).
fn skip_item(toks: &[Tok], code: &[usize], k: usize) -> usize {
    let mut depth = 0usize;
    let mut ci = k;
    while ci < code.len() {
        match toks[code[ci]].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth = depth.saturating_sub(1),
            TokKind::Punct(b';') if depth == 0 => return ci + 1,
            TokKind::Punct(b'{') if depth == 0 => {
                return match match_delim(toks, code, ci, b'{', b'}') {
                    Some(c) => c + 1,
                    None => code.len(),
                };
            }
            _ => {}
        }
        ci += 1;
    }
    code.len()
}
