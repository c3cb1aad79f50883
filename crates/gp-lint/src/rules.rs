//! The nine lint rules, evaluated over the [`crate::model::Model`].
//!
//! | rule | invariant |
//! |------|-----------|
//! | L1 | `EnrollOk` may not be constructed/encoded before the group-commit barrier in the same function |
//! | L2 | lock acquisitions must follow the canonical `snap → accounts → wal` order, inter-function |
//! | L3 | `unsafe` is confined to `gp-netauth/src/sys.rs` |
//! | L4 | no `unwrap`/`expect`/`panic!` in non-test hot-path modules |
//! | L5 | no blocking fs / un-timed connect calls reachable from the reactor event loop |
//! | L6 | no `Ordering::Relaxed` on atomics whose value gates control flow or whose RMW result is consumed |
//! | L7 | no naked condvar `wait`/`wait_timeout` outside a predicate re-check loop |
//! | L8 | no blocking I/O (fs, fsync, connect, channel send/recv) while a canonical lock is held |
//! | L9 | every replication opcode (`TAG_*`) has a round-trip test and a truncation-fuzz test |
//!
//! Suppression: `// gp-lint: allow(<rule>, <reason>)` on the offending line or
//! the line above. For L5 an allow on a *call site* line also cuts that call
//! edge out of the reachability walk. `// gp-lint: reactor-root` marks the
//! next `fn` in the file as an L5 reachability root.

use crate::lexer::{Token, TokenKind};
use crate::model::{LockClass, Model};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Durability ordering (ack-after-barrier).
    L1,
    /// Lock-order conformance.
    L2,
    /// Unsafe confinement.
    L3,
    /// Panic-freedom of hot-path modules.
    L4,
    /// Non-blocking reactor event loop.
    L5,
    /// No load-bearing `Ordering::Relaxed` (control flow or consumed RMW).
    L6,
    /// Condvar waits must sit in a predicate re-check loop.
    L7,
    /// No blocking I/O while holding a canonical lock.
    L8,
    /// Replication opcode test coverage (round-trip + truncation).
    L9,
}

/// Every rule, in id order (drives per-rule counters in reports).
pub const ALL_RULES: [Rule; 9] = [
    Rule::L1,
    Rule::L2,
    Rule::L3,
    Rule::L4,
    Rule::L5,
    Rule::L6,
    Rule::L7,
    Rule::L8,
    Rule::L9,
];

impl Rule {
    /// Stable id used in diagnostics and allow-comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File path as supplied to the linter.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Render as `file:line: error[Lx]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: error[{}]: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// A parsed `allow(...)` directive (counted and reported, not hidden).
#[derive(Debug, Clone)]
pub struct AllowUse {
    /// File containing the directive.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule being suppressed.
    pub rule: Rule,
    /// The stated reason.
    pub reason: String,
}

/// Full lint output: findings plus the allow-directive inventory.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Every `allow(...)` directive seen, sorted by (file, line).
    pub allows: Vec<AllowUse>,
}

/// Hot-path modules subject to L4 (path suffixes within the serving crates).
const HOT_PATH_FILES: &[&str] = &[
    "reactor.rs",
    "server.rs",
    "replication.rs",
    "cluster.rs",
    "wal.rs",
    "shard.rs",
    "resident.rs",
];

/// Function names that form the durability barrier for L1.
const BARRIER_CALLS: &[&str] = &["commit_enrolls", "commit_shards", "group_commit"];

/// Per-file directive state.
struct FileDirectives {
    allows: Vec<AllowUse>,
    root_lines: Vec<u32>,
}

fn parse_directives(model: &Model) -> Vec<FileDirectives> {
    let mut out = Vec::with_capacity(model.files.len());
    for file in &model.files {
        let mut allows = Vec::new();
        let mut root_lines = Vec::new();
        for d in &file.directives {
            if d.body == "reactor-root" {
                root_lines.push(d.line);
            } else if let Some(rest) = d.body.strip_prefix("allow(") {
                if let Some(inner) = rest.strip_suffix(')') {
                    let (id, reason) = match inner.split_once(',') {
                        Some((id, reason)) => (id.trim(), reason.trim()),
                        None => (inner.trim(), ""),
                    };
                    if let Some(rule) = Rule::from_id(id) {
                        allows.push(AllowUse {
                            file: file.path.clone(),
                            line: d.line,
                            rule,
                            reason: reason.to_string(),
                        });
                    }
                }
            }
        }
        out.push(FileDirectives { allows, root_lines });
    }
    out
}

impl FileDirectives {
    /// Is `rule` suppressed at `line` (allow on the same or previous line)?
    fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Run every rule; returns the combined report.
pub fn run(model: &Model) -> Report {
    let directives = parse_directives(model);
    let mut diagnostics = Vec::new();
    check_l1(model, &directives, &mut diagnostics);
    check_l2(model, &directives, &mut diagnostics);
    check_l3(model, &directives, &mut diagnostics);
    check_l4(model, &directives, &mut diagnostics);
    check_l5(model, &directives, &mut diagnostics);
    check_l6(model, &directives, &mut diagnostics);
    check_l7(model, &directives, &mut diagnostics);
    check_l8(model, &directives, &mut diagnostics);
    check_l9(model, &directives, &mut diagnostics);
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diagnostics.dedup();
    let mut allows: Vec<AllowUse> = directives.into_iter().flat_map(|d| d.allows).collect();
    allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        diagnostics,
        allows,
    }
}

/// L1: in gp-netauth, `EnrollOk` construction may not precede the
/// group-commit barrier call within the same function body.
fn check_l1(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if !file.path.contains("gp-netauth") {
            continue;
        }
        for f in file.functions.iter().filter(|f| !f.is_test) {
            let body = &file.tokens[f.body.0..f.body.1];
            let enroll = body
                .iter()
                .position(|t| t.is_ident("EnrollOk"))
                .map(|i| (i, body[i].line));
            let barrier = body.iter().position(|t| {
                t.kind == TokenKind::Ident && BARRIER_CALLS.contains(&t.text.as_str())
            });
            if let (Some((ei, eline)), Some(bi)) = (enroll, barrier) {
                if ei < bi && !directives[fi].allowed(Rule::L1, eline) {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: eline,
                        rule: Rule::L1,
                        message: format!(
                            "`EnrollOk` is constructed before the durability barrier \
                             ({}) in `{}`; acks must not precede the WAL group commit",
                            BARRIER_CALLS.join("/"),
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Per-function transitive lock-class footprints (direct + unique-name calls).
fn transitive_classes(model: &Model) -> Vec<Vec<BTreeSet<LockClass>>> {
    let mut classes: Vec<Vec<BTreeSet<LockClass>>> = model
        .files
        .iter()
        .map(|file| {
            file.functions
                .iter()
                .map(|f| f.acquisitions.iter().filter_map(|a| a.class).collect())
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (fi, file) in model.files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                for call in &f.calls {
                    if let Some((cfi, cgi)) = model.resolve_unique(&call.name) {
                        let callee: Vec<LockClass> = classes[cfi][cgi].iter().copied().collect();
                        for c in callee {
                            if classes[fi][gi].insert(c) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    classes
}

/// L2: build the acquisition-order graph and flag edges that do not go
/// strictly up the canonical `snap < accounts < wal` ranking.
fn check_l2(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    let footprints = transitive_classes(model);
    let mut seen: HashSet<(LockClass, LockClass, String, u32)> = HashSet::new();
    for (fi, file) in model.files.iter().enumerate() {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            // Merge acquisitions and calls into token order.
            enum Ev<'a> {
                Acq(&'a crate::model::Acquisition),
                Call(&'a crate::model::CallSite),
            }
            let mut events: Vec<(usize, Ev)> = f
                .acquisitions
                .iter()
                .map(|a| (a.token_index, Ev::Acq(a)))
                .chain(f.calls.iter().map(|c| (c.token_index, Ev::Call(c))))
                .collect();
            events.sort_by_key(|(i, _)| *i);
            let mut held: Vec<&crate::model::Acquisition> = Vec::new();
            for (tok, ev) in events {
                held.retain(|h| h.release_index > tok);
                match ev {
                    Ev::Acq(a) => {
                        if let Some(to) = a.class {
                            for h in &held {
                                let from = h.class.unwrap_or(to);
                                if seen.insert((from, to, file.path.clone(), a.line)) {
                                    emit_l2(from, to, file, a.line, &f.name, &directives[fi], out);
                                }
                            }
                        }
                        if a.held && a.class.is_some() {
                            held.push(a);
                        }
                    }
                    Ev::Call(c) => {
                        if held.is_empty() {
                            continue;
                        }
                        if let Some((cfi, cgi)) = model.resolve_unique(&c.name) {
                            for to in footprints[cfi][cgi].iter().copied() {
                                for h in &held {
                                    let from = h.class.unwrap_or(to);
                                    if seen.insert((from, to, file.path.clone(), c.line)) {
                                        emit_l2(
                                            from,
                                            to,
                                            file,
                                            c.line,
                                            &f.name,
                                            &directives[fi],
                                            out,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn emit_l2(
    from: LockClass,
    to: LockClass,
    file: &crate::model::FileModel,
    line: u32,
    func: &str,
    directives: &FileDirectives,
    out: &mut Vec<Diagnostic>,
) {
    if from.rank() >= to.rank() && !directives.allowed(Rule::L2, line) {
        out.push(Diagnostic {
            file: file.path.clone(),
            line,
            rule: Rule::L2,
            message: format!(
                "lock-order inversion in `{}`: `{}` acquired while holding `{}` \
                 (canonical order is snap -> accounts -> wal)",
                func,
                to.name(),
                from.name()
            ),
        });
    }
}

/// L3: `unsafe` tokens outside `gp-netauth/src/sys.rs`.
fn check_l3(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if file.path.ends_with("gp-netauth/src/sys.rs") {
            continue;
        }
        for t in &file.tokens {
            if t.is_ident("unsafe") && !directives[fi].allowed(Rule::L3, t.line) {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: t.line,
                    rule: Rule::L3,
                    message: "`unsafe` outside the confined `gp-netauth/src/sys.rs` module"
                        .to_string(),
                });
            }
        }
    }
}

fn is_hot_path(path: &str) -> bool {
    (path.contains("gp-netauth") || path.contains("gp-passwords"))
        && HOT_PATH_FILES
            .iter()
            .any(|f| path.ends_with(&format!("src/{f}")) || path == *f)
}

/// L4: `unwrap`/`expect`/`panic!` in non-test code of hot-path modules.
fn check_l4(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if !is_hot_path(&file.path) {
            continue;
        }
        for f in file.functions.iter().filter(|f| !f.is_test) {
            let body = &file.tokens[f.body.0..f.body.1];
            for (i, t) in body.iter().enumerate() {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let flagged = match t.text.as_str() {
                    "unwrap" | "expect" => {
                        i > 0
                            && body[i - 1].is_punct('.')
                            && matches!(body.get(i + 1), Some(n) if n.is_punct('('))
                    }
                    "panic" => matches!(body.get(i + 1), Some(n) if n.is_punct('!')),
                    _ => false,
                };
                if flagged && !directives[fi].allowed(Rule::L4, t.line) {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: t.line,
                        rule: Rule::L4,
                        message: format!(
                            "`{}` in hot-path function `{}`; return an error or add \
                             `// gp-lint: allow(L4, <why infallible>)`",
                            if t.text == "panic" { "panic!" } else { &t.text },
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Blocking-call patterns for L5/L8, matched against a function body.
/// Returns `(index into the slice, line, description)` per site. With
/// `channels` set, blocking channel `.send(` / `.recv(` calls are included
/// (L8 cares — a parked reactor under a lock convoys everyone; L5's
/// reactor thread only uses non-blocking queues so it stays scoped to
/// fs/connect).
fn blocking_sites(body: &[Token], channels: bool) -> Vec<(usize, u32, String)> {
    let mut sites = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |k: usize, ch: char| matches!(body.get(i + k), Some(n) if n.is_punct(ch));
        let prev_is_dot = i > 0 && body[i - 1].is_punct('.');
        match t.text.as_str() {
            "connect" if next_is(1, '(') => {
                sites.push((
                    i,
                    t.line,
                    "`connect` without a timeout blocks the caller".into(),
                ));
            }
            "sync_all" | "sync_data" if next_is(1, '(') => {
                sites.push((i, t.line, format!("blocking fsync (`{}`)", t.text)));
            }
            "File" if next_is(1, ':') && next_is(2, ':') => {
                if let Some(m) = body.get(i + 3) {
                    if m.is_ident("open") || m.is_ident("create") || m.is_ident("options") {
                        sites.push((i, t.line, format!("blocking file {} call", m.text)));
                    }
                }
            }
            "OpenOptions" => {
                sites.push((i, t.line, "blocking file open via `OpenOptions`".into()));
            }
            "fs" if next_is(1, ':') && next_is(2, ':') => {
                sites.push((i, t.line, "blocking `std::fs` call".into()));
            }
            "send" | "recv" if channels && prev_is_dot && next_is(1, '(') => {
                sites.push((i, t.line, format!("blocking channel `.{}()`", t.text)));
            }
            _ => {}
        }
    }
    sites
}

/// L5: walk the call graph from `reactor-root` functions; flag blocking
/// calls in everything reachable. An `allow(L5, ...)` on a call-site line
/// cuts that edge.
fn check_l5(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    // Roots: nearest fn after each `reactor-root` directive.
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut reachable: HashSet<(usize, usize)> = HashSet::new();
    for (fi, file) in model.files.iter().enumerate() {
        for &root_line in &directives[fi].root_lines {
            let next_fn = file
                .functions
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_test && f.line > root_line)
                .min_by_key(|(_, f)| f.line)
                .map(|(gi, _)| gi);
            if let Some(gi) = next_fn {
                if reachable.insert((fi, gi)) {
                    queue.push_back((fi, gi));
                }
            }
        }
    }
    // Map (file, fn) for resolution caching.
    let mut resolve_cache: HashMap<String, Option<(usize, usize)>> = HashMap::new();
    while let Some((fi, gi)) = queue.pop_front() {
        let f = &model.files[fi].functions[gi];
        for call in &f.calls {
            if directives[fi].allowed(Rule::L5, call.line) {
                continue; // explicitly reasoned-about edge cut
            }
            let target = resolve_cache
                .entry(call.name.clone())
                .or_insert_with(|| model.resolve_unique(&call.name));
            if let Some(t) = *target {
                if reachable.insert(t) {
                    queue.push_back(t);
                }
            }
        }
    }
    for (fi, gi) in reachable {
        let file = &model.files[fi];
        let f = &file.functions[gi];
        for (_, line, what) in blocking_sites(&file.tokens[f.body.0..f.body.1], false) {
            if !directives[fi].allowed(Rule::L5, line) {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line,
                    rule: Rule::L5,
                    message: format!(
                        "{} in `{}`, reachable from the reactor event loop",
                        what, f.name
                    ),
                });
            }
        }
    }
}

/// `if`/`while` condition spans `(keyword index, terminator index)` within a
/// body token range. The `{` (or, defensively, `;`) at bracket depth 0 ends
/// the condition — Rust forbids bare struct literals there, so a depth-0
/// brace is the loop/branch body.
fn condition_spans(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for j in start..end {
        let t = &tokens[j];
        if !(t.is_ident("if") || t.is_ident("while")) {
            continue;
        }
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < end {
            match tokens[k].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') | TokenKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        spans.push((j, k));
    }
    spans
}

/// Atomic read-modify-write method names whose memory ordering becomes
/// load-bearing the moment the returned value is used.
fn is_rmw_name(name: &str) -> bool {
    name.starts_with("fetch_") || name == "swap" || name.starts_with("compare_exchange")
}

/// Index of the `)` matching the `(` at `open` (or the end of the stream).
fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Start of the statement containing `idx`: the token after the nearest
/// preceding `;`, `{`, or `}`.
fn stmt_start_index(tokens: &[Token], lo: usize, idx: usize) -> usize {
    let mut j = idx;
    while j > lo {
        if matches!(
            tokens[j - 1].kind,
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
        ) {
            return j;
        }
        j -= 1;
    }
    j
}

/// Is the result of the RMW at method-ident `m` (arguments closing at
/// `close`) consumed — bound by a non-`_` `let`, or used inside a larger
/// expression (anything but `;` right after the call)?
fn rmw_result_consumed(tokens: &[Token], body_start: usize, m: usize, close: usize) -> bool {
    let stmt = stmt_start_index(tokens, body_start, m);
    if tokens[stmt].is_ident("let") {
        // `let _ = x.fetch_add(..)` is an explicit discard.
        return !matches!(tokens.get(stmt + 1), Some(t) if t.is_ident("_"));
    }
    !matches!(tokens.get(close + 1), Some(t) if t.is_punct(';'))
}

/// L6: `Ordering::Relaxed` where the ordering is load-bearing — the loaded
/// value gates an `if`/`while`, or an RMW's result is consumed. A Relaxed
/// stat counter (`stats.fetch_add(1, Relaxed);`, result discarded) stays
/// legal: nothing downstream depends on its ordering.
fn check_l6(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            let (start, end) = f.body;
            let conds = condition_spans(&file.tokens, start, end);
            // RMW argument spans with a consumption verdict each.
            let mut rmws: Vec<(usize, usize, bool, String)> = Vec::new();
            for m in start..end {
                let t = &file.tokens[m];
                if t.kind == TokenKind::Ident
                    && is_rmw_name(&t.text)
                    && m > 0
                    && file.tokens[m - 1].is_punct('.')
                    && matches!(file.tokens.get(m + 1), Some(n) if n.is_punct('('))
                {
                    let close = matching_paren(&file.tokens, m + 1);
                    let consumed = rmw_result_consumed(&file.tokens, start, m, close);
                    rmws.push((m, close, consumed, t.text.clone()));
                }
            }
            for j in start..end {
                let t = &file.tokens[j];
                if !t.is_ident("Relaxed") || directives[fi].allowed(Rule::L6, t.line) {
                    continue;
                }
                let in_cond = conds.iter().any(|&(a, b)| j > a && j < b);
                let rmw = rmws
                    .iter()
                    .find(|(m, c, consumed, _)| j > *m && j < *c && *consumed);
                let message = if in_cond {
                    format!(
                        "`Ordering::Relaxed` load gates control flow in `{}`; a Relaxed read \
                         carries no happens-before edge — use Acquire, or add \
                         `// gp-lint: allow(L6, <why the race is benign>)`",
                        f.name
                    )
                } else if let Some((_, _, _, name)) = rmw {
                    format!(
                        "`{}` with `Ordering::Relaxed` has its result consumed in `{}`; the RMW \
                         orders nothing for observers of that value — use AcqRel (or \
                         Acquire/Release), or add `// gp-lint: allow(L6, <why>)`",
                        name, f.name
                    )
                } else {
                    continue;
                };
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: t.line,
                    rule: Rule::L6,
                    message,
                });
            }
        }
    }
}

/// L7: a condvar `.wait(guard)` / `.wait_timeout(guard, d)` must sit inside
/// a `loop`/`while`/`for` in its function — spurious wakeups make a single
/// un-rechecked wait incorrect. `wait_while`/`wait_timeout_while` loop
/// internally and always pass. The first-argument-must-be-an-identifier
/// gate keeps non-condvar waits (`epoll.wait(&mut events, ...)`,
/// `child.wait()`) out of scope.
fn check_l7(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            let (start, end) = f.body;
            let mut loop_stack: Vec<bool> = Vec::new();
            let mut pending_loop = false;
            for j in start..end {
                let t = &file.tokens[j];
                match &t.kind {
                    TokenKind::Punct('{') => {
                        loop_stack.push(pending_loop);
                        pending_loop = false;
                    }
                    TokenKind::Punct('}') => {
                        loop_stack.pop();
                    }
                    TokenKind::Ident if matches!(t.text.as_str(), "loop" | "while" | "for") => {
                        pending_loop = true;
                    }
                    TokenKind::Ident if matches!(t.text.as_str(), "wait" | "wait_timeout") => {
                        let dotted = j > start && file.tokens[j - 1].is_punct('.');
                        let guard_arg = matches!(file.tokens.get(j + 1), Some(n) if n.is_punct('('))
                            && matches!(
                                file.tokens.get(j + 2),
                                Some(n) if n.kind == TokenKind::Ident
                            );
                        if dotted
                            && guard_arg
                            && !loop_stack.iter().any(|&in_loop| in_loop)
                            && !directives[fi].allowed(Rule::L7, t.line)
                        {
                            out.push(Diagnostic {
                                file: file.path.clone(),
                                line: t.line,
                                rule: Rule::L7,
                                message: format!(
                                    "condvar `.{}()` outside a predicate re-check loop in `{}`; \
                                     spurious wakeups make a single wait incorrect — re-check in \
                                     a loop, use `wait_while`/`wait_timeout_while`, or add \
                                     `// gp-lint: allow(L7, <why one check suffices>)`",
                                    t.text, f.name
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Which functions transitively perform blocking I/O (fs, fsync, connect,
/// channel send/recv)? Fixpoint over the unique-name call graph, seeded
/// from direct blocking sites.
fn transitive_blocking(model: &Model) -> Vec<Vec<bool>> {
    let mut blocks: Vec<Vec<bool>> = model
        .files
        .iter()
        .map(|file| {
            file.functions
                .iter()
                .map(|f| {
                    !f.is_test && !blocking_sites(&file.tokens[f.body.0..f.body.1], true).is_empty()
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (fi, file) in model.files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                if f.is_test || blocks[fi][gi] {
                    continue;
                }
                for call in &f.calls {
                    if let Some((cfi, cgi)) = model.resolve_unique(&call.name) {
                        if blocks[cfi][cgi] {
                            blocks[fi][gi] = true;
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    blocks
}

/// L8: blocking I/O while a canonical lock guard (`snap`/`accounts`/`wal`)
/// is held — directly inside the critical section, or via a call to a
/// transitively-blocking function. WAL-barrier writes that are *by design*
/// under the wal mutex carry reasoned `allow(L8, ...)` comments, which the
/// allow inventory keeps honest.
fn check_l8(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    let blocks = transitive_blocking(model);
    let mut seen: HashSet<(String, u32, LockClass)> = HashSet::new();
    for (fi, file) in model.files.iter().enumerate() {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            let held: Vec<_> = f
                .acquisitions
                .iter()
                .filter(|a| a.held && a.class.is_some())
                .collect();
            if held.is_empty() {
                continue;
            }
            let direct: Vec<(usize, u32, String)> =
                blocking_sites(&file.tokens[f.body.0..f.body.1], true)
                    .into_iter()
                    .map(|(i, line, what)| (i + f.body.0, line, what))
                    .collect();
            for a in &held {
                let class = a.class.expect("held filter keeps classed guards only");
                let span = a.token_index..a.release_index;
                for (tok, line, what) in &direct {
                    if span.contains(tok)
                        && seen.insert((file.path.clone(), *line, class))
                        && !directives[fi].allowed(Rule::L8, *line)
                    {
                        out.push(Diagnostic {
                            file: file.path.clone(),
                            line: *line,
                            rule: Rule::L8,
                            message: format!(
                                "{} while holding the `{}` lock in `{}`; move the I/O outside \
                                 the critical section or add \
                                 `// gp-lint: allow(L8, <why the section must block>)`",
                                what,
                                class.name(),
                                f.name
                            ),
                        });
                    }
                }
                for call in &f.calls {
                    if !span.contains(&call.token_index) {
                        continue;
                    }
                    if let Some((cfi, cgi)) = model.resolve_unique(&call.name) {
                        if blocks[cfi][cgi]
                            && seen.insert((file.path.clone(), call.line, class))
                            && !directives[fi].allowed(Rule::L8, call.line)
                        {
                            out.push(Diagnostic {
                                file: file.path.clone(),
                                line: call.line,
                                rule: Rule::L8,
                                message: format!(
                                    "call to `{}` (transitively blocks on fs/fsync/connect/\
                                     channel I/O) while holding the `{}` lock in `{}`; hoist it \
                                     out of the critical section or add \
                                     `// gp-lint: allow(L8, <why the section must block>)`",
                                    call.name,
                                    class.name(),
                                    f.name
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Parse a `u8` literal in decimal or `0x` hex form (underscores stripped).
fn parse_u8_literal(text: &str) -> Option<u8> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// L9: every replication wire opcode (`const TAG_*`) must be exercised by a
/// same-file round-trip test (mentions the decoded variant plus `encode` and
/// `decode`) and a truncation-fuzz test (mentions the variant from a test
/// whose name or body references truncation/fuzzing). Coverage follows
/// helper indirection: a test calling a `messages()`-style constructor
/// helper inherits everything the helper mentions.
fn check_l9(model: &Model, directives: &[FileDirectives], out: &mut Vec<Diagnostic>) {
    for (fi, file) in model.files.iter().enumerate() {
        if !file.path.contains("replication") {
            continue;
        }
        let toks = &file.tokens;
        // Opcode consts: `const TAG_X: u8 = 0xNN;`.
        let mut opcodes: Vec<(String, Option<u8>, u32)> = Vec::new();
        for j in 0..toks.len() {
            if !toks[j].is_ident("const") {
                continue;
            }
            let Some(name_tok) = toks.get(j + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident || !name_tok.text.starts_with("TAG_") {
                continue;
            }
            let mut value = None;
            let mut k = j + 2;
            while k < toks.len() && !toks[k].is_punct(';') {
                if toks[k].kind == TokenKind::Number {
                    value = parse_u8_literal(&toks[k].text);
                }
                k += 1;
            }
            opcodes.push((name_tok.text.clone(), value, name_tok.line));
        }
        if opcodes.is_empty() {
            continue;
        }
        // Decoder-arm map: `TAG_X => ... ReplicaMessage::Variant`.
        let mut variant_of: HashMap<String, String> = HashMap::new();
        for j in 0..toks.len() {
            if toks[j].kind != TokenKind::Ident || !toks[j].text.starts_with("TAG_") {
                continue;
            }
            let is_arm = matches!(toks.get(j + 1), Some(n) if n.is_punct('='))
                && matches!(toks.get(j + 2), Some(n) if n.is_punct('>'));
            if !is_arm {
                continue;
            }
            let limit = (j + 200).min(toks.len());
            let mut k = j + 3;
            while k < limit {
                let t = &toks[k];
                if t.kind == TokenKind::Ident && t.text.starts_with("TAG_") {
                    break; // ran into the next match arm
                }
                if t.is_ident("ReplicaMessage")
                    && matches!(toks.get(k + 1), Some(n) if n.is_punct(':'))
                    && matches!(toks.get(k + 2), Some(n) if n.is_punct(':'))
                {
                    if let Some(v) = toks.get(k + 3) {
                        if v.kind == TokenKind::Ident {
                            variant_of
                                .entry(toks[j].text.clone())
                                .or_insert_with(|| v.text.clone());
                            break;
                        }
                    }
                }
                k += 1;
            }
        }
        // Same-file test functions with their ident mentions, closed over
        // helper calls.
        let tests: Vec<&crate::model::FunctionInfo> =
            file.functions.iter().filter(|f| f.is_test).collect();
        let mut mentions: Vec<HashSet<String>> = tests
            .iter()
            .map(|f| {
                toks[f.body.0..f.body.1]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for a in 0..tests.len() {
                for b in 0..tests.len() {
                    if a == b || !mentions[a].contains(&tests[b].name) {
                        continue;
                    }
                    let extra: Vec<String> =
                        mentions[b].difference(&mentions[a]).cloned().collect();
                    if !extra.is_empty() {
                        mentions[a].extend(extra);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let is_fuzzy = |idx: usize| {
            tests[idx].name.contains("truncat")
                || tests[idx].name.contains("fuzz")
                || mentions[idx]
                    .iter()
                    .any(|m| m.contains("truncat") || m.contains("fuzz"))
        };
        for (name, value, line) in &opcodes {
            let Some(variant) = variant_of.get(name) else {
                // No decode arm constructs a variant for this tag; the
                // unknown-tag rejection path covers it.
                continue;
            };
            let round_trip = (0..tests.len()).any(|i| {
                mentions[i].contains(variant)
                    && mentions[i].contains("encode")
                    && mentions[i].contains("decode")
            });
            let truncation = (0..tests.len()).any(|i| mentions[i].contains(variant) && is_fuzzy(i));
            let mut missing = Vec::new();
            if !round_trip {
                missing.push("an encode/decode round-trip test");
            }
            if !truncation {
                missing.push("a truncation-fuzz test");
            }
            if missing.is_empty() || directives[fi].allowed(Rule::L9, *line) {
                continue;
            }
            let shown = value
                .map(|v| format!("{v:#04x}"))
                .unwrap_or_else(|| "?".into());
            out.push(Diagnostic {
                file: file.path.clone(),
                line: *line,
                rule: Rule::L9,
                message: format!(
                    "replication opcode `{}` ({}, `ReplicaMessage::{}`) lacks {}; every wire \
                     frame needs same-file round-trip and truncation coverage",
                    name,
                    shown,
                    variant,
                    missing.join(" and ")
                ),
            });
        }
    }
}
