//! Item-level parse layer on top of [`crate::lexer`].
//!
//! The concurrency passes need more structure than a flat token stream:
//! which tokens form a function body, which type a method belongs to,
//! and which struct fields are lock cells. This module recovers exactly
//! that — function boundaries, impl context, and `Mutex`/`RwLock`
//! struct fields — with a single linear walk over the code tokens. It
//! is deliberately not a Rust parser: anything it does not recognize it
//! skips, which keeps the analysis conservative (unrecognized code can
//! produce missed findings, never parse failures).

use crate::lexer::{Tok, TokKind};

/// Which primitive a lock field wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// A struct field whose type mentions `Mutex` or `RwLock`.
#[derive(Debug, Clone)]
pub struct LockField {
    pub name: String,
    pub kind: LockKind,
}

/// A struct declaring at least one lock field.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub lock_fields: Vec<LockField>,
}

/// One function (free or method) with a brace body.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The `impl` type this method belongs to, `None` for free
    /// functions. For `impl Trait for Type` this is `Type`.
    pub self_type: Option<String>,
    /// Code-index range of the body tokens: `(open_ci + 1, close_ci)`,
    /// i.e. everything strictly inside the braces.
    pub body: (usize, usize),
}

/// Items recovered from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub structs: Vec<StructDef>,
    pub fns: Vec<FnDef>,
}

/// Names the acquisition passes treat as the lock primitives
/// themselves: methods on these `impl` types define locking rather
/// than use it, so `self.lock()` inside them is not an acquisition.
pub const PRIMITIVE_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// An open brace context the item walker is currently inside.
struct Ctx {
    /// Code index of the matching `}`.
    close: usize,
    /// `Some(type)` inside an `impl` block, `None` elsewhere.
    impl_type: Option<String>,
}

/// Parse one file's items. Test-scoped items (per `test_mask`)
/// are traversed but not recorded, so test-only locks and helpers never
/// enter the workspace model.
pub fn parse_file(toks: &[Tok], test_mask: &[bool]) -> FileItems {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let mut items = FileItems::default();
    let mut stack: Vec<Ctx> = Vec::new();
    let n = code.len();
    let mut ci = 0usize;
    while ci < n {
        while stack.last().is_some_and(|c| ci > c.close) {
            stack.pop();
        }
        let raw = code[ci];
        let masked = test_mask.get(raw).copied().unwrap_or(false);
        let tok = &toks[raw];
        if tok.kind != TokKind::Ident {
            ci += 1;
            continue;
        }
        match tok.text.as_str() {
            "struct" => {
                if let Some(next) = parse_struct(toks, &code, ci, masked, &mut items) {
                    ci = next;
                    continue;
                }
                ci += 1;
            }
            "impl" => {
                if let Some((ty, open, close)) = parse_impl_header(toks, &code, ci) {
                    stack.push(Ctx {
                        close,
                        impl_type: Some(ty),
                    });
                    ci = open + 1;
                    continue;
                }
                ci += 1;
            }
            "fn" => {
                if let Some(next) = parse_fn(toks, &code, ci, masked, stack.last(), &mut items) {
                    ci = next;
                    continue;
                }
                ci += 1;
            }
            _ => ci += 1,
        }
    }
    items
}

/// Parse `struct Name { fields }` starting at the `struct` keyword.
/// Returns the code index to resume from, or `None` when the shape is
/// not recognized (tuple structs, unit structs — both lock-free here).
fn parse_struct(
    toks: &[Tok],
    code: &[usize],
    ci: usize,
    masked: bool,
    items: &mut FileItems,
) -> Option<usize> {
    let name = ident_at(toks, code, ci + 1)?.to_string();
    // Find the body `{` (skipping generics and where clauses) or bail
    // at `;`/`(` — unit and tuple structs carry no named lock fields.
    let mut k = ci + 2;
    let open = loop {
        let t = &toks[*code.get(k)?];
        match t.kind {
            TokKind::Punct(b'{') => break k,
            TokKind::Punct(b';') | TokKind::Punct(b'(') => return Some(k + 1),
            _ => k += 1,
        }
    };
    let close = crate::scope::match_delim(toks, code, open, b'{', b'}')?;
    if !masked {
        let lock_fields = parse_lock_fields(toks, code, open, close);
        if !lock_fields.is_empty() {
            items.structs.push(StructDef { name, lock_fields });
        }
    }
    Some(close + 1)
}

/// Scan a struct body for `field: …Mutex…`/`…RwLock…` declarations.
fn parse_lock_fields(toks: &[Tok], code: &[usize], open: usize, close: usize) -> Vec<LockField> {
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut in_type = false;
    let mut k = open + 1;
    let mut cur: Option<(String, Option<LockKind>)> = None;
    while k < close {
        let t = &toks[code[k]];
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1)
            }
            TokKind::Punct(b',') if depth == 0 => {
                if let Some((name, Some(kind))) = cur.take() {
                    fields.push(LockField { name, kind });
                }
                in_type = false;
            }
            TokKind::Punct(b':') if depth == 0 && !in_type => {
                // `name :` begins a field type; `::` paths only occur
                // inside types, where `in_type` is already set.
                if let Some(name) = ident_at(toks, code, k.wrapping_sub(1)) {
                    cur = Some((name.to_string(), None));
                    in_type = true;
                }
            }
            TokKind::Ident if in_type => {
                let kind = match t.text.as_str() {
                    "Mutex" => Some(LockKind::Mutex),
                    "RwLock" => Some(LockKind::RwLock),
                    _ => None,
                };
                if let (Some(k2), Some((_, slot @ None))) = (kind, cur.as_mut()) {
                    *slot = Some(k2);
                }
            }
            _ => {}
        }
        k += 1;
    }
    if let Some((name, Some(kind))) = cur.take() {
        fields.push(LockField { name, kind });
    }
    fields
}

/// Parse an `impl` header starting at the `impl` keyword. Returns
/// `(type_name, open_ci, close_ci)` for the brace body. Handles
/// `impl Type`, `impl<T> Type<T>`, `impl Trait for Type` and
/// `impl<T> Trait for Type<T>`; the type is the last path segment.
fn parse_impl_header(toks: &[Tok], code: &[usize], ci: usize) -> Option<(String, usize, usize)> {
    let mut k = ci + 1;
    // Skip the generic parameter list, if any.
    if punct_at(toks, code, k, b'<') {
        k = skip_angles(toks, code, k)?;
    }
    // Walk to the body `{`, remembering the last identifier seen at
    // angle-depth zero. A `for` resets it (trait name → type name); a
    // `where` freezes it (bound clauses only re-name known types).
    let mut last_ident: Option<&str> = None;
    let mut angle = 0usize;
    let mut in_where = false;
    loop {
        let t = &toks[*code.get(k)?];
        match t.kind {
            TokKind::Punct(b'{') if angle == 0 => {
                let close = crate::scope::match_delim(toks, code, k, b'{', b'}')?;
                return last_ident.map(|ty| (ty.to_string(), k, close));
            }
            TokKind::Punct(b'<') => angle += 1,
            // `->` in a generic bound like `Fn() -> T` is an arrow,
            // not an angle close.
            TokKind::Punct(b'>') if !punct_at(toks, code, k.wrapping_sub(1), b'-') => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Punct(b';') => return None,
            TokKind::Ident if angle == 0 && !in_where => match t.text.as_str() {
                "for" => last_ident = None,
                "where" => in_where = true,
                "dyn" | "mut" => {}
                other => last_ident = Some(other),
            },
            _ => {}
        }
        k += 1;
        if k > code.len() {
            return None;
        }
    }
}

/// Skip a `<…>` generic list starting at its `<`; returns the code
/// index one past the matching `>`.
fn skip_angles(toks: &[Tok], code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = open;
    while k < code.len() {
        match toks[code[k]].kind {
            TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b'>') if !punct_at(toks, code, k.wrapping_sub(1), b'-') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            TokKind::Punct(b'{') | TokKind::Punct(b';') => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parse `fn name(…) … { body }` starting at the `fn` keyword. Returns
/// the code index to resume scanning from (inside the body, so nested
/// items are still discovered). Bodyless trait declarations resume
/// after their `;`.
fn parse_fn(
    toks: &[Tok],
    code: &[usize],
    ci: usize,
    masked: bool,
    ctx: Option<&Ctx>,
    items: &mut FileItems,
) -> Option<usize> {
    let name = ident_at(toks, code, ci + 1)?.to_string();
    let mut k = ci + 2;
    if punct_at(toks, code, k, b'<') {
        k = skip_angles(toks, code, k)?;
    }
    if !punct_at(toks, code, k, b'(') {
        return None;
    }
    let params_close = crate::scope::match_delim(toks, code, k, b'(', b')')?;
    // Between the parameter list and the body: return type and where
    // clause. Parens and brackets nest; the first top-level `{` opens
    // the body and a top-level `;` means a bodyless declaration.
    let mut depth = 0usize;
    let mut k = params_close + 1;
    let open = loop {
        let t = &toks[*code.get(k)?];
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth = depth.saturating_sub(1),
            TokKind::Punct(b';') if depth == 0 => return Some(k + 1),
            TokKind::Punct(b'{') if depth == 0 => break k,
            _ => {}
        }
        k += 1;
    };
    let close = crate::scope::match_delim(toks, code, open, b'{', b'}')?;
    if !masked {
        items.fns.push(FnDef {
            name,
            self_type: ctx.and_then(|c| c.impl_type.clone()),
            body: (open + 1, close),
        });
    }
    Some(open + 1)
}

fn ident_at<'t>(toks: &'t [Tok], code: &[usize], ci: usize) -> Option<&'t str> {
    code.get(ci).and_then(|&i| toks.get(i)).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(toks: &[Tok], code: &[usize], ci: usize, b: u8) -> bool {
    code.get(ci)
        .and_then(|&i| toks.get(i))
        .is_some_and(|t| t.kind == TokKind::Punct(b))
}
