//! Per-function fact extraction: call sites, panic sites, and the
//! statement structure the taint analysis propagates over.
//!
//! Facts are extracted from a function's body token range in one linear
//! walk. The walk is deliberately flow-insensitive about *scoping* (a
//! variable name is one taint cell for the whole function) and precise
//! about *sites* (a call, a panic, an index each carry their exact line) —
//! the right trade for a syntactic analysis that must over-approximate,
//! never miss.

use crate::lex::{Tok, Token};
use crate::syntax::FnItem;

/// What kind of panic a site is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// `assert!`, `assert_eq!`, `assert_ne!` (kept in release builds).
    Assert,
    /// `debug_assert*!` — compiled out of release builds; recorded but
    /// never reported.
    DebugAssert,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(...)`.
    Expect,
    /// Slice/array index expression `x[...]`.
    Index,
    /// `/` or `%` on a value (division by zero); recorded but not
    /// reported — syntax cannot separate float from integer division.
    DivMod,
}

impl PanicKind {
    /// Human label used in findings.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Macro => "explicit panic macro",
            PanicKind::Assert => "assert macro",
            PanicKind::DebugAssert => "debug assert",
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect(...)",
            PanicKind::Index => "slice/array index",
            PanicKind::DivMod => "division/remainder",
        }
    }
}

/// One potential-panic site in a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// What can panic.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
}

/// How a call names its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// Free/associated call by (possibly partial) path: `f(`,
    /// `module::f(`, `Type::f(`.
    Path(Vec<String>),
    /// Method call `.f(`.
    Method(String),
}

/// One call site in a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Who is called.
    pub callee: Callee,
    /// 1-based source line.
    pub line: u32,
    /// Token range (into the file stream) of the argument list, exclusive
    /// of the parentheses.
    pub args: (usize, usize),
    /// Token index of the callee name (for statement membership).
    pub at: usize,
}

/// One statement (or statement-like region) for taint propagation.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// 1-based line of the statement's first token.
    pub line: u32,
    /// Token range of the whole statement.
    pub range: (usize, usize),
    /// Assignment targets (`let` pattern idents, or `x` in `x = …`,
    /// `x += …`).
    pub targets: Vec<String>,
    /// Identifiers used anywhere in the statement, including `{ident}`
    /// inline captures in string literals (`format!("{secret}")`).
    pub uses: Vec<String>,
    /// Indices into [`FnFacts::calls`] of calls inside this statement.
    pub calls: Vec<usize>,
    /// `return …;` statement or the function's tail expression.
    pub is_return: bool,
}

/// Extracted facts for one function body.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Every call site.
    pub calls: Vec<CallSite>,
    /// Every potential-panic site.
    pub panics: Vec<PanicSite>,
    /// Statement structure.
    pub stmts: Vec<Stmt>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
const DEBUG_ASSERT_MACROS: [&str; 3] = ["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Rust keywords and expression-position words excluded from `uses`.
const KEYWORDS: [&str; 33] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "true", "type", "unsafe", "while",
];

/// Extracts facts from `item`'s body within `tokens` (the file stream).
/// Bodiless items produce empty facts.
pub fn extract(tokens: &[Token], item: &FnItem) -> FnFacts {
    let Some((start, end)) = item.body else {
        return FnFacts::default();
    };
    let mut f = FnFacts::default();

    // ---- sites: one linear pass -------------------------------------
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        match &t.tok {
            Tok::Punct("#") => {
                // Statement-level attribute `#[…]`: skip so its brackets
                // are not mistaken for indexing.
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Open('['))) {
                    i = skip_group_at(tokens, i + 1, end);
                    continue;
                }
            }
            Tok::Ident(name) => {
                let next = tokens.get(i + 1).map(|t| &t.tok);
                let prev_fn = i > start && tokens[i - 1].is_ident("fn");
                if prev_fn {
                    // Nested `fn name(...)`: a definition, not a call.
                    i += 1;
                    continue;
                }
                match next {
                    Some(Tok::Punct("!")) => {
                        if matches!(
                            tokens.get(i + 2).map(|t| &t.tok),
                            Some(Tok::Open('(') | Tok::Open('[') | Tok::Open('{'))
                        ) {
                            let kind = if PANIC_MACROS.contains(&name.as_str()) {
                                Some(PanicKind::Macro)
                            } else if ASSERT_MACROS.contains(&name.as_str()) {
                                Some(PanicKind::Assert)
                            } else if DEBUG_ASSERT_MACROS.contains(&name.as_str()) {
                                Some(PanicKind::DebugAssert)
                            } else {
                                None
                            };
                            if let Some(kind) = kind {
                                f.panics.push(PanicSite { kind, line: t.line });
                            }
                            // Walk *into* macro arguments: calls and uses
                            // inside them are real.
                            i += 3;
                            continue;
                        }
                    }
                    Some(Tok::Open('(')) => {
                        let is_method = i > start && tokens[i - 1].is_punct(".");
                        if is_method && name == "unwrap" {
                            f.panics.push(PanicSite {
                                kind: PanicKind::Unwrap,
                                line: t.line,
                            });
                        } else if is_method && name == "expect" {
                            f.panics.push(PanicSite {
                                kind: PanicKind::Expect,
                                line: t.line,
                            });
                        } else {
                            let args_end = skip_group_at(tokens, i + 1, end);
                            let callee = if is_method {
                                Callee::Method(name.clone())
                            } else {
                                Callee::Path(path_back(tokens, start, i, item))
                            };
                            f.calls.push(CallSite {
                                callee,
                                line: t.line,
                                args: (i + 2, args_end.saturating_sub(1)),
                                at: i,
                            });
                        }
                    }
                    _ => {}
                }
            }
            Tok::Open('[') if i > start && is_indexable(&tokens[i - 1].tok) => {
                f.panics.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                });
            }
            Tok::Punct(p @ ("/" | "%")) => {
                let _ = p;
                if i > start && is_indexable(&tokens[i - 1].tok) {
                    f.panics.push(PanicSite {
                        kind: PanicKind::DivMod,
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }

    // ---- statements: a second pass over the same range ---------------
    let mut stmt_start = start;
    let mut depth = 0i64;
    let mut first_tok: Option<&Tok> = None;
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if first_tok.is_none() {
            first_tok = Some(&t.tok);
        }
        match &t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(c) => {
                depth -= 1;
                let is_let = matches!(first_tok, Some(Tok::Ident(id)) if id == "let");
                // Only `}` ends a statement (`if … { … }`, `match … { … }`);
                // a `)`/`]` at depth 0 is mid-expression (`g(x)` as the
                // tail). An `else` keeps the if-else expression together,
                // and a `}` that is the body's last token closes the tail
                // expression — an implicit return.
                let next_else = tokens.get(i + 1).is_some_and(|t| t.is_ident("else"));
                if depth == 0 && *c == '}' && !is_let && !next_else {
                    close_stmt(&mut f, tokens, stmt_start, i + 1, i + 1 >= end, end);
                    stmt_start = i + 1;
                    first_tok = None;
                    i += 1;
                    continue;
                }
            }
            Tok::Punct(";") if depth == 0 => {
                close_stmt(&mut f, tokens, stmt_start, i + 1, false, end);
                stmt_start = i + 1;
                first_tok = None;
                i += 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    if stmt_start < end {
        // Tail expression: an implicit return.
        close_stmt(&mut f, tokens, stmt_start, end, true, end);
    }
    f
}

fn close_stmt(
    f: &mut FnFacts,
    tokens: &[Token],
    start: usize,
    stop: usize,
    tail: bool,
    _body_end: usize,
) {
    if start >= stop {
        return;
    }
    let toks = &tokens[start..stop];
    if toks.iter().all(|t| matches!(t.tok, Tok::Punct(";"))) {
        return;
    }
    let line = toks[0].line;
    let is_return = tail || toks[0].is_ident("return");

    // Targets.
    let mut targets = Vec::new();
    if toks[0].is_ident("let") {
        // `let <pattern>[: ty] = …` — pattern idents (at any nesting, so
        // `let (a, b) = …` and `let Point { x, y } = …` bind) up to the
        // top-level `=`, skipping a top-level `: ty` annotation.
        let mut d = 0i64;
        let mut in_type = false;
        for t in &toks[1..] {
            match &t.tok {
                Tok::Open(_) => d += 1,
                Tok::Close(_) => d -= 1,
                Tok::Punct("<") => d += 1,
                Tok::Punct(">") => d -= 1,
                Tok::Punct(":") if d == 0 => in_type = true,
                Tok::Punct("=") if d == 0 => break,
                Tok::Punct(";") if d == 0 => break,
                Tok::Ident(id) if !KEYWORDS.contains(&id.as_str()) && id != "_" && !in_type => {
                    targets.push(id.clone())
                }
                _ => {}
            }
        }
    } else if let Some(Tok::Ident(id)) = toks.first().map(|t| &t.tok) {
        // `x = …` / `x += …` reassignments (also `self.x = …` → target x).
        let mut j = 1;
        let mut last = id.clone();
        while j + 1 < toks.len() && toks[j].is_punct(".") {
            if let Some(nid) = toks[j + 1].ident() {
                last = nid.to_string();
                j += 2;
            } else {
                break;
            }
        }
        if toks.get(j).is_some_and(|t| {
            matches!(
                t.tok,
                Tok::Punct("=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=")
            )
        }) && !KEYWORDS.contains(&last.as_str())
        {
            targets.push(last);
        }
    }

    // Uses: every identifier plus `{ident}` captures in string literals.
    let mut uses = Vec::new();
    for t in toks {
        match &t.tok {
            Tok::Ident(id) if !KEYWORDS.contains(&id.as_str()) && id != "_" => {
                uses.push(id.clone());
            }
            Tok::Str(s) => inline_captures(s, &mut uses),
            _ => {}
        }
    }

    // Call membership by token index.
    let calls = f
        .calls
        .iter()
        .enumerate()
        .filter(|(_, c)| c.at >= start && c.at < stop)
        .map(|(k, _)| k)
        .collect();

    f.stmts.push(Stmt {
        line,
        range: (start, stop),
        targets,
        uses,
        calls,
        is_return,
    });
}

/// Collects `{ident}` / `{ident:spec}` inline format captures from a
/// string literal body. `{{` escapes are skipped; positional/`{}` holes
/// capture nothing.
pub(crate) fn inline_captures(s: &str, out: &mut Vec<String>) {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'{' {
            if b.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if j > i + 1
                && matches!(b.get(j), Some(b'}') | Some(b':'))
                && !b[i + 1].is_ascii_digit()
            {
                out.push(String::from_utf8_lossy(&b[i + 1..j]).into_owned());
            }
            i = j;
        } else {
            i += 1;
        }
    }
}

/// Walks backwards from a call name at `at` to collect its `::` path
/// segments: `a::b::f(` → `[a, b, f]`. A leading `Self` segment is
/// resolved to the function's impl type.
fn path_back(tokens: &[Token], start: usize, at: usize, item: &FnItem) -> Vec<String> {
    let mut segs = vec![tokens[at].ident().unwrap_or("").to_string()];
    let mut j = at;
    while j >= start + 2 && tokens[j - 1].is_punct("::") {
        if let Some(id) = tokens[j - 2].ident() {
            segs.insert(0, id.to_string());
            j -= 2;
        } else {
            // `<T as Trait>::f` or `Vec::<u8>::f` — stop at the turbofish.
            break;
        }
    }
    if segs.first().map(String::as_str) == Some("Self") {
        if let Some(ty) = &item.type_ctx {
            segs[0] = ty.clone();
        }
    }
    segs
}

/// True when `t` can end an expression a following `[` indexes. A keyword
/// cannot (`for p in [2, 3]`, `&mut [u8]`, `return [a, b]` open an array
/// or a slice type), except `.await`, whose result can be indexed.
fn is_indexable(t: &Tok) -> bool {
    match t {
        Tok::Ident(id) => id == "await" || !KEYWORDS.contains(&id.as_str()),
        Tok::Close(')') | Tok::Close(']') | Tok::Num(_) => true,
        _ => false,
    }
}

fn skip_group_at(tokens: &[Token], open: usize, end: usize) -> usize {
    let Some(Tok::Open(oc)) = tokens.get(open).map(|t| &t.tok) else {
        return open + 1;
    };
    let close = match oc {
        '(' => ')',
        '[' => ']',
        _ => '}',
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match &tokens[i].tok {
            Tok::Open(c) if c == oc => depth += 1,
            Tok::Close(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::syntax::parse;

    fn facts_of(body: &str) -> FnFacts {
        let text = format!("fn f(p: u32) {{\n{body}\n}}");
        let file = parse("crates/x/src/lib.rs", "x", lex(&text));
        extract(&file.tokens, &file.fns[0])
    }

    #[test]
    fn call_sites_free_path_and_method() {
        let f = facts_of("a::b::g(1);\nh(2);\nx.m(3);\n");
        assert_eq!(f.calls.len(), 3);
        assert_eq!(
            f.calls[0].callee,
            Callee::Path(vec!["a".into(), "b".into(), "g".into()])
        );
        assert_eq!(f.calls[1].callee, Callee::Path(vec!["h".into()]));
        assert_eq!(f.calls[2].callee, Callee::Method("m".into()));
    }

    #[test]
    fn panic_sites_by_kind() {
        let f = facts_of(
            "panic!(\"boom\");\nassert!(x > 0);\ndebug_assert_eq!(a, b);\n\
             v.unwrap();\nv.expect(\"msg\");\nlet y = s[0];\nlet z = a / b;\n",
        );
        let kinds: Vec<PanicKind> = f.panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Macro,
                PanicKind::Assert,
                PanicKind::DebugAssert,
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::Index,
                PanicKind::DivMod,
            ]
        );
    }

    #[test]
    fn unwrap_inside_string_is_not_a_site() {
        let f = facts_of("let s = \"x.unwrap()\";\nlet r = r#\"y.expect(\"m\")\"#;\n");
        assert!(f.panics.is_empty());
        // And the old substring scanner would have flagged both lines.
    }

    #[test]
    fn unwrap_or_is_not_a_site() {
        let f = facts_of("v.unwrap_or(0);\nv.unwrap_or_else(g);\nv.expect_err(\"e\");\n");
        assert!(f.panics.is_empty());
        // unwrap_or / unwrap_or_else / expect_err ARE call sites though.
        assert_eq!(f.calls.len(), 3);
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let f = facts_of(
            "let a = [1, 2, 3];\n#[allow(x)]\nlet b = vec![4];\nlet c = a[0];\n\
             for p in [2, 3] {}\nlet b: &mut [u8] = x;\nreturn [a, b];\n",
        );
        let idx: Vec<u32> = f
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .map(|p| p.line)
            .collect();
        // Only `a[0]`: a keyword before `[` opens an array or a slice type.
        assert_eq!(idx, [5]);
    }

    #[test]
    fn let_targets_and_uses() {
        let f = facts_of("let key = derive(seed);\nlet msg = format!(\"k={key}\");\n");
        assert_eq!(f.stmts[0].targets, vec!["key"]);
        assert!(f.stmts[0].uses.contains(&"seed".to_string()));
        assert_eq!(f.stmts[1].targets, vec!["msg"]);
        assert!(
            f.stmts[1].uses.contains(&"key".to_string()),
            "inline format capture counts as a use: {:?}",
            f.stmts[1].uses
        );
    }

    #[test]
    fn reassignment_and_field_assignment_targets() {
        let f = facts_of("x = g();\nself.field = h();\ntotal += y;\n");
        assert_eq!(f.stmts[0].targets, vec!["x"]);
        assert_eq!(f.stmts[1].targets, vec!["field"]);
        assert_eq!(f.stmts[2].targets, vec!["total"]);
    }

    #[test]
    fn return_statements_and_tail_expression() {
        let f = facts_of("if p > 0 {\n    return a;\n}\nb\n");
        let returning: Vec<bool> = f.stmts.iter().map(|s| s.is_return).collect();
        // The if-block is one statement (not a return at depth 0), the
        // tail `b` is the implicit return.
        assert!(returning.last().copied().unwrap());
    }

    #[test]
    fn statement_split_keeps_let_with_block_initializer() {
        let f = facts_of("let x = match p {\n    0 => g(),\n    _ => h(),\n};\nsink(x);\n");
        assert_eq!(f.stmts.len(), 2);
        assert_eq!(f.stmts[0].targets, vec!["x"]);
        assert!(f.stmts[0].calls.len() == 2, "g and h inside the match");
        assert!(f.stmts[1].uses.contains(&"x".to_string()));
    }

    #[test]
    fn self_paths_resolve_to_impl_type() {
        let text = "struct S;\nimpl S {\n    fn f() { Self::g(); }\n    fn g() {}\n}\n";
        let file = parse("crates/x/src/lib.rs", "x", lex(text));
        let facts = extract(&file.tokens, &file.fns[0]);
        assert_eq!(
            facts.calls[0].callee,
            Callee::Path(vec!["S".into(), "g".into()])
        );
    }

    #[test]
    fn nested_fn_definitions_are_not_calls() {
        let f = facts_of("fn inner(q: u32) -> u32 { q }\ninner(p);\n");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, Callee::Path(vec!["inner".into()]));
    }
}
