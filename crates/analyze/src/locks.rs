//! The concurrency passes: `lock-order` and `guard-across-blocking`.
//!
//! Built on the item layer ([`crate::parse`]) and call edges
//! ([`crate::callgraph`]), this module models guard lifetimes through
//! block scopes, propagates held-lock sets across intra-workspace
//! calls, assembles the global lock-order graph, and flags:
//!
//! - **`lock-order`** — any acquisition that closes a cycle in the
//!   lock-order graph (two threads taking the same pair of locks in
//!   opposite orders is a deadlock waiting for load);
//! - **`guard-across-blocking`** — holding a guard across a channel
//!   `send`/`recv`, a condvar wait, a thread join, or socket I/O (the
//!   worker-wedge shape the chaos suite probes dynamically).
//!
//! Locks are keyed `crate::Type::field` — the crate directory name
//! (`dpipe` for the root binary), the struct that declares the field,
//! and the field name. Locals and unresolvable receivers get no key:
//! they still count as held guards for the blocking pass, but never
//! enter the global graph. The same keys are the tag strings the
//! runtime witness in `dpipe_sync` records, which is what lets tests
//! check observed orders against this statically derived graph.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::callgraph::{self, CallSite, FnNode, Resolver};
use crate::lexer::{Tok, TokKind};
use crate::parse::{FileItems, LockKind, PRIMITIVE_TYPES};
use crate::report::{snippet_at, Finding, LintId};
use crate::scope::match_delim;

/// Identity of a lock in the order graph: `crate::Type::field`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockKey {
    pub krate: String,
    pub type_name: String,
    pub field: String,
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}::{}", self.krate, self.type_name, self.field)
    }
}

/// The crate component of a lock key for a workspace-relative path:
/// the directory name under `crates/`, or `dpipe` for the root binary
/// sources under `src/`.
pub fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("dpipe")
}

/// Methods that acquire a `Mutex`-family guard.
const MUTEX_ACQUIRE: [&str; 3] = ["lock", "lock_recover", "lock_recover_tagged"];

/// Methods that acquire an `RwLock` guard — only when the receiver
/// resolves to a known `RwLock` field, since `read`/`write` are also
/// I/O verbs.
const RW_ACQUIRE: [&str; 2] = ["read", "write"];

/// Calls that can block the current thread: channel ends, condvar
/// waits, thread joins and sleeps, socket and stream I/O. `notify_*`
/// is deliberately absent — waking a condvar never blocks.
const BLOCKING: [&str; 22] = [
    "accept",
    "connect",
    "flush",
    "join",
    "park",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_deadline",
    "recv_timeout",
    "send",
    "send_timeout",
    "sleep",
    "wait",
    "wait_recover",
    "wait_recover_tagged",
    "wait_timeout",
    "wait_while",
    "write",
    "write_all",
];

/// One edge of the lock-order graph with the site that created it.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// Workspace-relative path of the acquisition (or call) site.
    pub file: String,
    pub line: u32,
    /// True when this edge lies on a cycle.
    pub cyclic: bool,
}

/// The global lock-order graph: nodes are every keyed lock field
/// declared in the workspace, edges are observed held-while-acquiring
/// orders. Nodes and edges are sorted, so rendering is byte-stable.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    pub nodes: Vec<String>,
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Deterministic Graphviz rendering. Cyclic edges are red.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str("digraph lock_order {\n");
        out.push_str("  rankdir=LR;\n");
        out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
        for n in &self.nodes {
            out.push_str(&format!("  \"{}\";\n", n));
        }
        for e in &self.edges {
            let color = if e.cyclic { ", color=\"red\"" } else { "" };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}:{}\"{}];\n",
                e.from, e.to, e.file, e.line, color
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Plain-text rendering for the CLI.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&format!("node {}\n", n));
        }
        for e in &self.edges {
            let mark = if e.cyclic { " CYCLE" } else { "" };
            out.push_str(&format!(
                "edge {} -> {} ({}:{}){}\n",
                e.from, e.to, e.file, e.line, mark
            ));
        }
        out.push_str(&format!(
            "lock-order graph: {} locks, {} edges, {} on cycles\n",
            self.nodes.len(),
            self.edges.len(),
            self.edges.iter().filter(|e| e.cyclic).count(),
        ));
        out
    }
}

/// Everything the workspace pass needs about one file.
pub struct FileData<'a> {
    /// Position of this file in the workspace list (edge attribution).
    pub index: usize,
    pub rel: &'a str,
    pub toks: &'a [Tok],
    pub code: &'a [usize],
    pub lines: &'a [&'a str],
    pub items: &'a FileItems,
}

/// Accumulated `(from, to)` edges keyed to the first site that created
/// each: `(file index, line, col, via-callee)`.
type EdgeMap = BTreeMap<(String, String), (usize, u32, u32, Option<String>)>;

/// Lock-field resolution across files: field name → declaring structs.
struct FieldTable {
    by_name: BTreeMap<String, Vec<(usize, LockKey, LockKind)>>,
}

impl FieldTable {
    fn build(files: &[FileData]) -> FieldTable {
        let mut by_name: BTreeMap<String, Vec<(usize, LockKey, LockKind)>> = BTreeMap::new();
        for (fi, fd) in files.iter().enumerate() {
            let krate = crate_of(fd.rel);
            for s in &fd.items.structs {
                for lf in &s.lock_fields {
                    by_name.entry(lf.name.clone()).or_default().push((
                        fi,
                        LockKey {
                            krate: krate.to_string(),
                            type_name: s.name.clone(),
                            field: lf.name.clone(),
                        },
                        lf.kind,
                    ));
                }
            }
        }
        FieldTable { by_name }
    }

    /// Resolve `….field.lock…()` to a key: unique within the same file
    /// first, then the same crate, then the workspace. Ambiguity at
    /// every level resolves to `None` — no key beats a wrong key.
    fn resolve(&self, field: &str, file: usize, krate: &str) -> Option<(LockKey, LockKind)> {
        let cands = self.by_name.get(field)?;
        for scope in 0..3u8 {
            let hits: Vec<&(usize, LockKey, LockKind)> = cands
                .iter()
                .filter(|(fi, key, _)| match scope {
                    0 => *fi == file,
                    1 => key.krate == krate,
                    _ => true,
                })
                .collect();
            if hits.len() == 1 {
                return Some((hits[0].1.clone(), hits[0].2));
            }
            if hits.len() > 1 {
                return None;
            }
        }
        None
    }

    /// Every declared lock key, for the graph's node set.
    fn all_keys(&self) -> BTreeSet<String> {
        self.by_name
            .values()
            .flat_map(|v| v.iter().map(|(_, k, _)| k.to_string()))
            .collect()
    }
}

/// How an acquisition site binds its guard.
enum Life {
    /// `let g = ….lock…();` — lives to the end of the enclosing block.
    Block { depth: i32 },
    /// Expression temporary — dies at the next `;`, top-level `,`, or
    /// closing `}`.
    Temp,
    /// `if`/`while`/`for` head temporary — dies at the body's `{`.
    CondTemp,
    /// `match` scrutinee temporary — lives until the match closes
    /// (the classic extended-temporary footgun, modeled faithfully).
    Until(usize),
}

struct Held {
    key: Option<LockKey>,
    var: Option<String>,
    life: Life,
    line: u32,
}

/// What an acquisition-shaped call turned out to be.
enum Acq {
    /// A keyed acquisition of a declared lock field.
    Keyed(LockKey),
    /// A lock acquisition on a local/unresolvable receiver: held for
    /// the blocking pass, invisible to the order graph.
    Anon,
    /// The lock primitive's own implementation (`self.lock()` inside
    /// `impl … for Mutex<T>`): not a use of locking at all.
    Primitive,
    /// Not an acquisition (e.g. `.read(` on a socket).
    No,
}

/// Run both concurrency passes over the workspace. Returns per-file
/// findings (parallel to `files`) and the global lock-order graph.
pub fn analyze_workspace(files: &[FileData]) -> (Vec<Vec<Finding>>, LockGraph) {
    let fields = FieldTable::build(files);
    let per_file_items: Vec<&FileItems> = files.iter().map(|f| f.items).collect();
    let mut fns = flatten_items(&per_file_items);
    let resolver = Resolver::build(&fns);

    // Pass A: per-fn direct facts — resolved call edges, direct keyed
    // acquisitions, direct blocking calls.
    for i in 0..fns.len() {
        let fd = &files[fns[i].file];
        let sites = callgraph::call_sites(
            fd.toks,
            fd.code,
            fns[i].body,
            fns[i].self_type.as_deref(),
            &resolver,
        );
        let krate = crate_of(fd.rel);
        let mut calls = Vec::new();
        for site in &sites {
            match classify_acquisition(fd, &fields, fns[i].self_type.as_deref(), krate, site) {
                Acq::Keyed(key) => {
                    fns[i].direct_acquires.insert(key);
                }
                Acq::Anon | Acq::Primitive => {}
                Acq::No => {
                    if BLOCKING.contains(&site.name) {
                        fns[i].direct_blocking = true;
                    }
                    if let Some(t) = site.target {
                        calls.push(t);
                    }
                }
            }
        }
        calls.sort_unstable();
        calls.dedup();
        fns[i].calls = calls;
    }
    callgraph::propagate(&mut fns);

    // Pass B: guard-lifetime simulation emitting edges and findings.
    let mut findings: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    let mut edges = EdgeMap::new();
    for i in 0..fns.len() {
        simulate_fn(
            &fns,
            i,
            files,
            &fields,
            &resolver,
            &mut edges,
            &mut findings,
        );
    }

    // Cycle detection over the keyed graph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    let mut graph = LockGraph {
        nodes: fields.all_keys().into_iter().collect(),
        edges: Vec::new(),
    };
    for ((from, to), (file, line, col, via)) in &edges {
        let cyclic = reaches(&adj, to, from);
        if cyclic {
            let fd = &files[*file];
            let via_note = match via {
                Some(callee) => format!(" (via call to `{}`)", callee),
                None => String::new(),
            };
            findings[*file].push(Finding {
                lint: LintId::LockOrder,
                line: *line,
                col: *col,
                message: format!(
                    "acquiring `{}`{} while holding `{}` closes a cycle in the lock-order graph; potential deadlock",
                    to, via_note, from
                ),
                snippet: snippet_at(fd.lines, *line),
            });
        }
        for key in [from, to] {
            if !graph.nodes.contains(key) {
                graph.nodes.push(key.clone());
            }
        }
        graph.edges.push(LockEdge {
            from: from.clone(),
            to: to.clone(),
            file: files[*file].rel.to_string(),
            line: *line,
            cyclic,
        });
    }
    graph.nodes.sort();
    graph.nodes.dedup();
    (findings, graph)
}

/// Is `to` reachable from `from` in the edge relation? (`from == to`
/// counts: a self-edge is a self-deadlock.)
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            for &m in next {
                if m == to {
                    return true;
                }
                stack.push(m);
            }
        }
    }
    false
}

fn flatten_items(per_file: &[&FileItems]) -> Vec<FnNode> {
    let mut fns = Vec::new();
    for (file, items) in per_file.iter().enumerate() {
        for f in &items.fns {
            fns.push(FnNode {
                file,
                name: f.name.clone(),
                self_type: f.self_type.clone(),
                body: f.body,
                calls: Vec::new(),
                direct_acquires: BTreeSet::new(),
                direct_blocking: false,
                acquires_star: BTreeSet::new(),
                blocking_star: false,
            });
        }
    }
    fns
}

/// Decide whether a call site is a lock acquisition and of what.
fn classify_acquisition(
    fd: &FileData,
    fields: &FieldTable,
    self_type: Option<&str>,
    krate: &str,
    site: &CallSite,
) -> Acq {
    let is_mutex_acq = MUTEX_ACQUIRE.contains(&site.name);
    let is_rw_acq = RW_ACQUIRE.contains(&site.name);
    if !site.is_method || (!is_mutex_acq && !is_rw_acq) {
        return Acq::No;
    }
    let file_idx = file_index(fd);
    let ident = |ci: usize| ident_text(fd, ci);
    let punct = |ci: usize, b: u8| punct_is(fd, ci, b);
    let ci = site.ci;
    // Receiver shape: `….field.name(` vs `ident.name(` vs `(expr).name(`.
    if let Some(field) = ident(ci.wrapping_sub(2)) {
        if punct(ci.wrapping_sub(3), b'.') {
            // Field access: resolve by field name.
            return match fields.resolve(field, file_idx, krate) {
                Some((key, kind)) => {
                    if is_rw_acq && kind != LockKind::RwLock {
                        Acq::No
                    } else {
                        Acq::Keyed(key)
                    }
                }
                None => {
                    if is_mutex_acq {
                        Acq::Anon
                    } else {
                        Acq::No
                    }
                }
            };
        }
        if field == "self" {
            if self_type.is_some_and(|ty| PRIMITIVE_TYPES.contains(&ty)) {
                return Acq::Primitive;
            }
            return if is_mutex_acq { Acq::Anon } else { Acq::No };
        }
        // Bare local or static receiver.
        return if is_mutex_acq { Acq::Anon } else { Acq::No };
    }
    // `).lock(`, `].lock(`, tuple fields, etc.
    if is_mutex_acq {
        Acq::Anon
    } else {
        Acq::No
    }
}

/// Walk one fn body tracking held guards; emit lock-order edges and
/// guard-across-blocking findings.
fn simulate_fn(
    fns: &[FnNode],
    idx: usize,
    files: &[FileData],
    fields: &FieldTable,
    resolver: &Resolver,
    edges: &mut EdgeMap,
    findings: &mut [Vec<Finding>],
) {
    let f = &fns[idx];
    let fd = &files[f.file];
    let krate = crate_of(fd.rel);
    let sites = callgraph::call_sites(fd.toks, fd.code, f.body, f.self_type.as_deref(), resolver);
    let site_at: BTreeMap<usize, &CallSite> = sites.iter().map(|s| (s.ci, s)).collect();

    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let (start, end) = f.body;
    let mut ci = start;
    while ci < end.min(fd.code.len()) {
        held.retain(|g| !matches!(g.life, Life::Until(e) if ci >= e));
        let tok = &fd.toks[fd.code[ci]];
        match tok.kind {
            TokKind::Punct(b'{') => {
                held.retain(|g| !matches!(g.life, Life::CondTemp));
                depth += 1;
            }
            TokKind::Punct(b'}') => {
                held.retain(|g| !matches!(g.life, Life::Temp | Life::CondTemp));
                depth -= 1;
                held.retain(|g| !matches!(g.life, Life::Block { depth: d, .. } if depth < d));
            }
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
            TokKind::Punct(b';') | TokKind::Punct(b',') if paren == 0 => {
                held.retain(|g| !matches!(g.life, Life::Temp | Life::CondTemp));
            }
            TokKind::Ident => {
                // `drop(g)` releases a bound guard early.
                if tok.text == "drop" && punct_is(fd, ci + 1, b'(') && punct_is(fd, ci + 3, b')') {
                    if let Some(var) = ident_text(fd, ci + 2) {
                        held.retain(|g| g.var.as_deref() != Some(var));
                    }
                }
                if let Some(site) = site_at.get(&ci) {
                    handle_call_site(
                        fns, idx, fd, fields, krate, site, &mut held, depth, edges, findings,
                    );
                }
            }
            _ => {}
        }
        ci += 1;
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the guard walk's state (held set, depth, edge map, findings) lives in `simulate_fn`'s frame"
)]
fn handle_call_site(
    fns: &[FnNode],
    idx: usize,
    fd: &FileData,
    fields: &FieldTable,
    krate: &str,
    site: &CallSite,
    held: &mut Vec<Held>,
    depth: i32,
    edges: &mut EdgeMap,
    findings: &mut [Vec<Finding>],
) {
    let f = &fns[idx];
    let file_idx = file_index(fd);
    let tok = &fd.toks[fd.code[site.ci]];
    match classify_acquisition(fd, fields, f.self_type.as_deref(), krate, site) {
        Acq::Primitive => return,
        Acq::Keyed(key) => {
            for g in held.iter() {
                if let Some(from) = &g.key {
                    record_edge(edges, from, &key, file_idx, tok.line, tok.col, None);
                }
            }
            let (life, var) = classify_life(fd, site.ci, depth);
            held.push(Held {
                key: Some(key),
                var,
                life,
                line: tok.line,
            });
            return;
        }
        Acq::Anon => {
            let (life, var) = classify_life(fd, site.ci, depth);
            held.push(Held {
                key: None,
                var,
                life,
                line: tok.line,
            });
            return;
        }
        Acq::No => {}
    }

    if held.is_empty() {
        return;
    }
    let target_blocks = site.target.is_some_and(|t| fns[t].blocking_star);
    let direct_block = BLOCKING.contains(&site.name);
    if direct_block || target_blocks {
        // Guards passed into the call are released by it (condvar
        // waits take their guard by value): exempt them.
        let args = call_arg_idents(fd, site.ci);
        if let Some(g) = held
            .iter()
            .find(|g| !g.var.as_deref().is_some_and(|v| args.contains(v)))
        {
            let what = match &g.key {
                Some(k) => format!("`{}`", k),
                None => match &g.var {
                    Some(v) => format!("local guard `{}`", v),
                    None => "a lock guard".to_string(),
                },
            };
            let why = if direct_block {
                format!("`{}` can block", site.name)
            } else {
                format!(
                    "`{}` can block (it waits or does I/O transitively)",
                    site.name
                )
            };
            findings[file_idx].push(Finding {
                lint: LintId::GuardAcrossBlocking,
                line: tok.line,
                col: tok.col,
                message: format!(
                    "{} while holding {} (acquired on line {}); release the guard before blocking",
                    why, what, g.line
                ),
                snippet: snippet_at(fd.lines, tok.line),
            });
        }
    }
    // Held-set propagation: calling a fn that takes keyed locks while
    // holding keyed locks creates order edges at this call site.
    if let Some(t) = site.target {
        if !fns[t].acquires_star.is_empty() {
            for g in held.iter() {
                if let Some(from) = &g.key {
                    for to in fns[t].acquires_star.iter() {
                        record_edge(
                            edges,
                            from,
                            to,
                            file_idx,
                            tok.line,
                            tok.col,
                            Some(fns[t].name.clone()),
                        );
                    }
                }
            }
        }
    }
}

fn record_edge(
    edges: &mut EdgeMap,
    from: &LockKey,
    to: &LockKey,
    file: usize,
    line: u32,
    col: u32,
    via: Option<String>,
) {
    edges
        .entry((from.to_string(), to.to_string()))
        .or_insert((file, line, col, via));
}

/// Classify how the acquisition at `ci` binds its guard: scan back to
/// the statement head, then forward past the call's closing paren.
fn classify_life(fd: &FileData, ci: usize, depth: i32) -> (Life, Option<String>) {
    // Backward to the statement boundary, skipping balanced groups.
    let mut back = ci;
    let mut rev_depth = 0i32;
    let boundary = loop {
        if back == 0 {
            break 0;
        }
        back -= 1;
        match fd.toks[fd.code[back]].kind {
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => rev_depth += 1,
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => {
                if rev_depth == 0 {
                    break back + 1;
                }
                rev_depth -= 1;
            }
            TokKind::Punct(b';') | TokKind::Punct(b',') if rev_depth == 0 => break back + 1,
            _ => {}
        }
    };
    let mut head = boundary;
    if ident_text(fd, head) == Some("else") {
        head += 1;
    }
    match ident_text(fd, head) {
        Some("let") => {
            let mut v = head + 1;
            if ident_text(fd, v) == Some("mut") {
                v += 1;
            }
            let var = ident_text(fd, v).map(str::to_string);
            // Bound only when the guard is the whole initializer:
            // `… = recv.lock…(args);`.
            if let Some(close) = match_delim(fd.toks, fd.code, ci + 1, b'(', b')') {
                if punct_is(fd, close + 1, b';') {
                    return (Life::Block { depth }, var);
                }
            }
            (Life::Temp, None)
        }
        Some("if") | Some("while") | Some("for") => (Life::CondTemp, None),
        Some("match") => {
            // The scrutinee temporary survives the whole match.
            if let Some(close) = match_delim(fd.toks, fd.code, ci + 1, b'(', b')') {
                let mut k = close + 1;
                let mut d = 0i32;
                while k < fd.code.len() {
                    match fd.toks[fd.code[k]].kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'[') => d += 1,
                        TokKind::Punct(b')') | TokKind::Punct(b']') => d -= 1,
                        TokKind::Punct(b'{') if d == 0 => {
                            let end = match_delim(fd.toks, fd.code, k, b'{', b'}')
                                .unwrap_or(fd.code.len());
                            return (Life::Until(end), None);
                        }
                        TokKind::Punct(b';') if d == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            (Life::Temp, None)
        }
        _ => (Life::Temp, None),
    }
}

/// Arguments of the call at `ci` that are a bare identifier — the
/// whole top-level argument is one ident, nothing else. Only those can
/// be a guard moved *into* the call (the `cvar.wait_recover(guard)`
/// release pattern); a guard merely mentioned in an argument
/// expression (`tx.send(guard.len())`) stays held across the call.
fn call_arg_idents<'a>(fd: &FileData<'a>, ci: usize) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let Some(close) = match_delim(fd.toks, fd.code, ci + 1, b'(', b')') else {
        return out;
    };
    let mut depth = 0i32;
    let mut arg_start = ci + 2;
    let mut flush = |start: usize, end: usize| {
        if end == start + 1 {
            let t = &fd.toks[fd.code[start]];
            if t.kind == TokKind::Ident {
                out.insert(t.text.as_str());
            }
        }
    };
    for k in ci + 2..close {
        match fd.toks[fd.code[k]].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
            TokKind::Punct(b',') if depth == 0 => {
                flush(arg_start, k);
                arg_start = k + 1;
            }
            _ => {}
        }
    }
    flush(arg_start, close);
    out
}

fn ident_text<'a>(fd: &FileData<'a>, ci: usize) -> Option<&'a str> {
    fd.code.get(ci).and_then(|&i| fd.toks.get(i)).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_is(fd: &FileData, ci: usize, b: u8) -> bool {
    fd.code
        .get(ci)
        .and_then(|&i| fd.toks.get(i))
        .is_some_and(|t| t.kind == TokKind::Punct(b))
}

/// Index of `fd` within the workspace file list. Stored on the struct
/// to avoid threading another parameter everywhere.
fn file_index(fd: &FileData) -> usize {
    fd.index
}
