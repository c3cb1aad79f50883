//! Lightweight per-function model built on top of the token stream.
//!
//! For every scanned file this extracts every function with its body token
//! span, every lock-acquisition site (`.lock()` / `.read()` / `.write()`,
//! classified by receiver name into the repo's canonical lock classes), and
//! a name-based call graph. Test code — `#[cfg(test)]` modules and `#[test]`
//! functions — is carried with [`FunctionInfo::is_test`] set: rules L1–L8
//! skip it, while L9 (frame-coverage) reads test bodies to prove round-trip
//! and truncation coverage of replication opcodes.
//!
//! The model is deliberately approximate: calls resolve by bare name and only
//! when that name is defined exactly once across the scanned set, guards are
//! tracked by lexical scope, and receivers classify by substring. That keeps
//! the pass dependency-free and fast while still catching the invariant
//! breaks the rules exist for; the `// gp-lint: allow(...)` escape hatch
//! covers the residue.

use crate::lexer::{self, Directive, Token, TokenKind};
use std::collections::HashMap;

/// Canonical lock classes of the store, in acquisition order.
///
/// The machine-checked invariant is `Snap < Accounts < Wal`: a thread holding
/// a later class may never acquire an earlier (or equal) one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// The node's compaction lock (`snapshot_lock`).
    Snap,
    /// Per-shard account map `RwLock` (`accounts`).
    Accounts,
    /// The node's WAL mutex (`wal`).
    Wal,
}

impl LockClass {
    /// Canonical rank; edges must go strictly upward.
    pub fn rank(self) -> u8 {
        match self {
            LockClass::Snap => 0,
            LockClass::Accounts => 1,
            LockClass::Wal => 2,
        }
    }

    /// Name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Snap => "snap",
            LockClass::Accounts => "accounts",
            LockClass::Wal => "wal",
        }
    }
}

/// One `.lock()` / `.read()` / `.write()` site inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock class, when the receiver names one of the canonical locks.
    pub class: Option<LockClass>,
    /// Whether the guard is bound by a `let` (held past the statement).
    pub held: bool,
    /// 1-based source line.
    pub line: u32,
    /// Index of the method-name token in the file token stream.
    pub token_index: usize,
    /// Token index at which the guard's lexical scope ends (release point).
    pub release_index: usize,
}

/// One call site (bare-name) inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Index of the callee-name token in the file token stream.
    pub token_index: usize,
}

/// A function with its extracted facts.
#[derive(Debug)]
pub struct FunctionInfo {
    /// Function name as written (no path / receiver qualification).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span `[start, end)` of the body including both braces.
    pub body: (usize, usize),
    /// Acquisition sites in token order.
    pub acquisitions: Vec<Acquisition>,
    /// Call sites in token order.
    pub calls: Vec<CallSite>,
    /// True for `#[test]` functions and anything inside `#[cfg(test)]`
    /// regions. Production-invariant rules skip these; coverage rules
    /// (L9) read them.
    pub is_test: bool,
}

/// Model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Path as supplied by the caller (used verbatim in diagnostics).
    pub path: String,
    /// Full token stream.
    pub tokens: Vec<Token>,
    /// `// gp-lint:` directives.
    pub directives: Vec<Directive>,
    /// Every function, test and non-test (see [`FunctionInfo::is_test`]).
    pub functions: Vec<FunctionInfo>,
}

/// Whole-scan model: every file plus the cross-file name registry.
#[derive(Debug)]
pub struct Model {
    /// Per-file models, in input order.
    pub files: Vec<FileModel>,
    /// Function name → number of non-test definitions across the scan.
    pub definition_counts: HashMap<String, usize>,
}

impl Model {
    /// Resolve a callee name to `(file index, function index)` — only when
    /// the name is defined exactly once among non-test functions across the
    /// scanned set (test helpers never absorb production call edges).
    pub fn resolve_unique(&self, name: &str) -> Option<(usize, usize)> {
        if self.definition_counts.get(name).copied() != Some(1) {
            return None;
        }
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                if !f.is_test && f.name == name {
                    return Some((fi, gi));
                }
            }
        }
        None
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "fn", "as", "in", "move", "ref", "mut",
    "pub", "use", "else", "break", "continue", "await", "dyn", "impl", "where", "struct", "enum",
    "union", "trait", "type", "mod", "static", "const", "crate", "super", "unsafe", "Some", "Ok",
    "Err", "None",
];

/// Method names (`.name(...)`) that are overwhelmingly std-library calls
/// (atomics, channels, I/O); excluded from the name-based call graph so a
/// workspace function that happens to share the name (e.g. a free `load`)
/// doesn't absorb every `Atomic*::load` site.
const STD_METHOD_NAMES: &[&str] = &[
    "load", "store", "swap", "flush", "send", "recv", "wait", "join", "clone", "push", "pop",
    "insert", "get", "remove", "drain", "take", "extend", "shutdown", "finish",
];

/// Build the model for a set of `(path, source)` pairs.
pub fn build(sources: &[(String, String)]) -> Model {
    let mut files = Vec::with_capacity(sources.len());
    for (path, source) in sources {
        let lexed = lexer::lex(source);
        let functions = extract_functions(&lexed.tokens);
        files.push(FileModel {
            path: path.clone(),
            tokens: lexed.tokens,
            directives: lexed.directives,
            functions,
        });
    }
    let mut definition_counts: HashMap<String, usize> = HashMap::new();
    for file in &files {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            *definition_counts.entry(f.name.clone()).or_insert(0) += 1;
        }
    }
    Model {
        files,
        definition_counts,
    }
}

fn extract_functions(tokens: &[Token]) -> Vec<FunctionInfo> {
    let mut functions = Vec::new();
    let mut i = 0usize;
    let mut depth: i32 = 0;
    // Brace depths at which a `#[cfg(test)]`-attributed block started; while
    // non-empty, everything is test code.
    let mut test_region: Vec<i32> = Vec::new();
    // A test attribute was seen and has not yet been attached to an item.
    let mut pending_test_attr = false;

    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('#') => {
                // Attribute: `#[...]` or `#![...]`. Scan it whole.
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].is_punct('!') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('[') {
                    let (end, is_test) = scan_attribute(tokens, j);
                    if is_test {
                        pending_test_attr = true;
                    }
                    i = end;
                    continue;
                }
                i += 1;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_test_attr {
                    // `#[cfg(test)] mod tests { ... }` and friends: the whole
                    // block is test code.
                    test_region.push(depth);
                    pending_test_attr = false;
                }
                i += 1;
            }
            TokenKind::Punct('}') => {
                if test_region.last() == Some(&depth) {
                    test_region.pop();
                }
                depth -= 1;
                i += 1;
            }
            TokenKind::Punct(';') => {
                // `#[cfg(test)] mod tests;` / attributed use items.
                pending_test_attr = false;
                i += 1;
            }
            TokenKind::Ident if t.text == "fn" => {
                let is_test = pending_test_attr || !test_region.is_empty();
                pending_test_attr = false;
                let name = match tokens.get(i + 1) {
                    Some(n) if n.kind == TokenKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let fn_line = t.line;
                // Find the body `{` (or `;` for bodyless trait fns) at paren
                // depth zero.
                let mut j = i + 2;
                let mut paren: i32 = 0;
                let mut body_start = None;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
                        TokenKind::Punct('{') if paren == 0 => {
                            body_start = Some(j);
                            break;
                        }
                        TokenKind::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let Some(start) = body_start else {
                    i = j + 1;
                    continue;
                };
                let end = matching_brace(tokens, start);
                let (acquisitions, calls) = scan_body(tokens, start, end);
                functions.push(FunctionInfo {
                    name,
                    line: fn_line,
                    body: (start, end),
                    acquisitions,
                    calls,
                    is_test,
                });
                i = end;
            }
            _ => i += 1,
        }
    }
    functions
}

/// Scan `#[...]` starting at the `[`; returns (index past `]`, is-test-attr).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            TokenKind::Ident => idents.push(tokens[j].text.as_str()),
            _ => {}
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (j, is_test)
}

/// Index just past the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Names of guards bound by the `let` of the statement containing `idx`.
fn let_bound_names(tokens: &[Token], stmt_start: usize, idx: usize) -> Option<Vec<String>> {
    if !tokens.get(stmt_start)?.is_ident("let") {
        return None;
    }
    let mut names = Vec::new();
    let mut j = stmt_start + 1;
    while j < idx {
        match &tokens[j].kind {
            TokenKind::Punct('=') => return Some(names),
            TokenKind::Ident if tokens[j].text != "mut" => names.push(tokens[j].text.clone()),
            _ => {}
        }
        j += 1;
    }
    Some(names)
}

/// Walk a function body collecting acquisitions (with scope-based release
/// points) and call sites.
fn scan_body(tokens: &[Token], start: usize, end: usize) -> (Vec<Acquisition>, Vec<CallSite>) {
    let mut acquisitions: Vec<Acquisition> = Vec::new();
    let mut calls: Vec<CallSite> = Vec::new();
    // Held guards: (acquisition index, declaration depth, bound names).
    let mut active: Vec<(usize, i32, Vec<String>)> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = start + 1;
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        match &t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                stmt_start = j + 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                stmt_start = j + 1;
                active.retain(|(ai, d, _)| {
                    if depth < *d {
                        acquisitions[*ai].release_index = j;
                        false
                    } else {
                        true
                    }
                });
            }
            TokenKind::Punct(';') => stmt_start = j + 1,
            TokenKind::Ident if is_acquisition_method(&t.text, tokens, j) => {
                let chain = receiver_chain(tokens, j, stmt_start);
                let class = classify(&t.text, &chain);
                let bound = let_bound_names(tokens, stmt_start, j);
                let held = bound.is_some();
                let idx = acquisitions.len();
                acquisitions.push(Acquisition {
                    class,
                    held,
                    line: t.line,
                    token_index: j,
                    release_index: end,
                });
                if held && class.is_some() {
                    active.push((idx, depth, bound.unwrap_or_default()));
                }
            }
            TokenKind::Ident if t.text == "drop" => {
                // `drop(guard)` releases the named guard early.
                if let (Some(open), Some(name)) = (tokens.get(j + 1), tokens.get(j + 2)) {
                    if open.is_punct('(') && name.kind == TokenKind::Ident {
                        active.retain(|(ai, _, names)| {
                            if names.contains(&name.text) {
                                acquisitions[*ai].release_index = j;
                                false
                            } else {
                                true
                            }
                        });
                    }
                }
            }
            TokenKind::Ident => {
                let is_macro = matches!(tokens.get(j + 1), Some(n) if n.is_punct('!'));
                let is_call = matches!(tokens.get(j + 1), Some(n) if n.is_punct('('));
                let is_method = j > start && tokens[j - 1].is_punct('.');
                let is_std_method = is_method && STD_METHOD_NAMES.contains(&t.text.as_str());
                let is_fn_name =
                    matches!(tokens.get(j.wrapping_sub(1)), Some(p) if p.is_ident("fn"));
                if is_call
                    && !is_macro
                    && !is_std_method
                    && !is_fn_name
                    && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                {
                    calls.push(CallSite {
                        name: t.text.clone(),
                        line: t.line,
                        token_index: j,
                    });
                }
            }
            _ => {}
        }
        j += 1;
    }
    (acquisitions, calls)
}

/// Is the ident at `j` a zero-arg `.lock()` / `.read()` / `.write()` call?
fn is_acquisition_method(name: &str, tokens: &[Token], j: usize) -> bool {
    if !matches!(name, "lock" | "read" | "write") {
        return false;
    }
    let dotted = matches!(tokens.get(j.wrapping_sub(1)), Some(p) if p.is_punct('.'));
    let zero_arg = matches!(tokens.get(j + 1), Some(p) if p.is_punct('('))
        && matches!(tokens.get(j + 2), Some(p) if p.is_punct(')'));
    dotted && j > 0 && zero_arg
}

/// Identifiers in the receiver expression of the method call at `j`.
fn receiver_chain(tokens: &[Token], j: usize, stmt_start: usize) -> Vec<String> {
    let mut chain = Vec::new();
    if j < 2 {
        return chain;
    }
    let mut k = j - 2; // token before the `.`
    loop {
        let t = &tokens[k];
        match &t.kind {
            TokenKind::Ident if t.text == "let" => break,
            TokenKind::Ident => chain.push(t.text.clone()),
            TokenKind::Lifetime | TokenKind::Literal | TokenKind::Number => {}
            TokenKind::Punct(c) => {
                if !matches!(c, '.' | '[' | ']' | '(' | ')' | '&' | '*' | ':' | '?') {
                    break;
                }
            }
        }
        if k == stmt_start || k == 0 {
            break;
        }
        k -= 1;
    }
    chain
}

/// Map a `.lock()`/`.read()`/`.write()` receiver to a canonical lock class.
fn classify(method: &str, chain: &[String]) -> Option<LockClass> {
    let has = |needle: &str| chain.iter().any(|c| c.to_lowercase().contains(needle));
    match method {
        "read" | "write" if has("accounts") => Some(LockClass::Accounts),
        "lock" if has("wal") => Some(LockClass::Wal),
        "lock" if has("snap") => Some(LockClass::Snap),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        build(&[("test.rs".to_string(), src.to_string())])
    }

    #[test]
    fn extracts_functions_and_flags_test_code() {
        let src = r#"
fn real_one() { helper(); }

#[cfg(test)]
mod tests {
    fn test_helper() {}
    #[test]
    fn a_test() { real_one(); }
}

#[test]
fn top_level_test() {}

fn real_two() {}
"#;
        let m = model_of(src);
        let non_test: Vec<_> = m.files[0]
            .functions
            .iter()
            .filter(|f| !f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(non_test, vec!["real_one", "real_two"]);
        let test_fns: Vec<_> = m.files[0]
            .functions
            .iter()
            .filter(|f| f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(test_fns, vec!["test_helper", "a_test", "top_level_test"]);
        // Test helpers never enter the production name registry.
        assert!(m.resolve_unique("test_helper").is_none());
        assert!(m.resolve_unique("a_test").is_none());
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn shipped() {}\n";
        let m = model_of(src);
        assert_eq!(m.files[0].functions.len(), 1);
    }

    #[test]
    fn classifies_acquisitions_and_held_state() {
        let src = r#"
fn store_insert(&self) {
    let mut accounts = self.shard.accounts.write();
    self.state.wals[idx].lock().append(1);
}
"#;
        let m = model_of(src);
        let f = &m.files[0].functions[0];
        assert_eq!(f.acquisitions.len(), 2);
        assert_eq!(f.acquisitions[0].class, Some(LockClass::Accounts));
        assert!(f.acquisitions[0].held);
        assert_eq!(f.acquisitions[1].class, Some(LockClass::Wal));
        assert!(!f.acquisitions[1].held);
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        let src = r#"
fn snapshot(&self) {
    let _snap = self.snap_locks[s].lock();
    {
        let accounts = shard.accounts.read();
        use_it(&accounts);
    }
    let wal = self.wals[s].lock();
}
"#;
        let m = model_of(src);
        let f = &m.files[0].functions[0];
        let accounts = &f.acquisitions[1];
        let wal = &f.acquisitions[2];
        assert_eq!(accounts.class, Some(LockClass::Accounts));
        // The read guard is released before the second wal lock.
        assert!(accounts.release_index < wal.token_index);
    }

    #[test]
    fn pending_accounts_mutex_is_not_the_accounts_class() {
        // `PendingAccounts` is a std Mutex whose field happens to be named
        // `accounts`; only `.read()`/`.write()` receivers classify as the
        // accounts RwLock.
        let src = "fn park(&self) { let g = self.pending.accounts.lock(); }";
        let m = model_of(src);
        assert_eq!(m.files[0].functions[0].acquisitions[0].class, None);
    }

    #[test]
    fn unique_name_resolution() {
        let src = "fn once_only() {}\nfn twice() {}\nfn caller() { once_only(); twice(); }\n";
        let src2 = "fn twice() {}\n";
        let m = build(&[
            ("a.rs".to_string(), src.to_string()),
            ("b.rs".to_string(), src2.to_string()),
        ]);
        assert!(m.resolve_unique("once_only").is_some());
        assert!(m.resolve_unique("twice").is_none());
    }
}
