//! Brace-tree item parser: token stream → per-file function items.
//!
//! This is not a full Rust parser — it is the *item skeleton* walker the
//! analyses need: module nesting, `impl`/`trait` type context, function
//! signatures (name, parameter names, return-type tokens) and body token
//! ranges, plus attribute tracking for `#[cfg(test)]` and `#[test]`.
//!
//! Attribute tracking fixes the third known gap of the old line scanner:
//! an item preceded by *multiple* attributes
//! (`#[derive(Debug)] #[cfg(test)] #[allow(x)] mod tests { … }`) is
//! correctly recognized as test-gated regardless of attribute order or
//! whether they share a line, because attributes are parsed structurally,
//! not matched as line prefixes. `cfg(not(test))` is *not* test-gated;
//! `cfg(all(test, …))` is — the tracker evaluates `not`-depth instead of
//! substring-matching `test`.

use crate::lex::{Tok, Token};

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Fully qualified path: `module::Type::name` or `module::name`.
    pub qual: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub type_ctx: Option<String>,
    /// 1-based line of the function name.
    pub line: u32,
    /// Compiled only under test (`#[cfg(test)]` scope or `#[test]`).
    pub is_test: bool,
    /// Declared `pub` (any visibility restriction counts as pub).
    pub is_pub: bool,
    /// Parameter pattern identifiers (excluding `self`; see `has_self`).
    pub params: Vec<String>,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Token range (into the file's stream) of the return type; empty
    /// range when the function returns `()`.
    pub ret: (usize, usize),
    /// Token range of the body, exclusive of the outer braces; `None` for
    /// bodiless trait/extern declarations.
    pub body: Option<(usize, usize)>,
}

/// A parsed source file: its token stream plus the extracted items.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Module path of the file root (e.g. `cronus_core::ring`).
    pub module: String,
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// Every function item, in source order.
    pub fns: Vec<FnItem>,
    /// Token-index ranges that are test-gated (cfg(test) modules/items and
    /// `#[test]` functions) — lexical rules skip these.
    pub test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// True when token index `i` falls inside a test-gated span.
    pub fn is_test_token(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// Parses a lexed file into items.
pub fn parse(path: &str, module: &str, tokens: Vec<Token>) -> ParsedFile {
    let mut p = Parser {
        toks: &tokens,
        pos: 0,
        out: ParsedFile {
            path: path.to_string(),
            module: module.to_string(),
            tokens: Vec::new(),
            fns: Vec::new(),
            test_spans: Vec::new(),
        },
    };
    p.items(module, None, false);
    let mut out = p.out;
    out.tokens = tokens;
    out
}

/// Attribute summary for one item.
#[derive(Clone, Copy, Debug, Default)]
struct Attrs {
    cfg_test: bool,
    test: bool,
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    /// Skips a balanced `( … )` / `[ … ]` / `{ … }` group; assumes the
    /// cursor sits on the opening delimiter. Returns the token index just
    /// past the closing delimiter.
    fn skip_group(&mut self) -> usize {
        let Some(open) = self.peek() else {
            return self.pos;
        };
        let Tok::Open(oc) = open.tok else {
            self.pos += 1;
            return self.pos;
        };
        self.pos += 1;
        let mut depth = 1usize;
        while let Some(t) = self.bump() {
            match t.tok {
                Tok::Open(c) if c == oc => depth += 1,
                Tok::Close(c) if close_of(oc) == c => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        self.pos
    }

    /// Skips forward to just past the next `;` at the current nesting
    /// level, entering and leaving balanced groups wholesale.
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.tok {
                Tok::Open(_) => {
                    self.skip_group();
                }
                Tok::Punct(";") => {
                    self.pos += 1;
                    return;
                }
                Tok::Close(_) => return, // stray close: let the caller see it
                _ => self.pos += 1,
            }
        }
    }

    /// Parses the attribute stack before an item; the cursor ends on the
    /// first non-attribute token. All attributes are combined, so multiple
    /// attributes before one item cannot hide a `#[cfg(test)]`.
    fn attrs(&mut self) -> Attrs {
        let mut a = Attrs::default();
        while self.peek().is_some_and(|t| t.is_punct("#")) {
            let hash = self.pos;
            self.pos += 1;
            // Inner attribute `#![…]` applies to the enclosing scope; we
            // treat `#![cfg(test)]` like an outer one for safety.
            if self.peek().is_some_and(|t| t.is_punct("!")) {
                self.pos += 1;
            }
            if !matches!(self.peek().map(|t| &t.tok), Some(Tok::Open('['))) {
                self.pos = hash + 1;
                return a;
            }
            let start = self.pos + 1;
            let end = self.skip_group() - 1; // exclusive of `]`
            let inner = &self.toks[start..end];
            let first = inner.first().and_then(|t| t.ident());
            match first {
                Some("cfg") if cfg_mentions_test(inner) => {
                    a.cfg_test = true;
                }
                Some("test") => a.test = true,
                _ => {}
            }
        }
        a
    }

    /// Parses items until EOF or an unmatched `}` (which is consumed).
    fn items(&mut self, module: &str, type_ctx: Option<&str>, in_test: bool) {
        while let Some(t) = self.peek() {
            if matches!(t.tok, Tok::Close('}')) {
                self.pos += 1;
                return;
            }
            let item_start = self.pos;
            let a = self.attrs();
            let gated = in_test || a.cfg_test;

            // Visibility + modifiers.
            let mut is_pub = false;
            loop {
                match self.peek().and_then(|t| t.ident()) {
                    Some("pub") => {
                        is_pub = true;
                        self.pos += 1;
                        if matches!(self.peek().map(|t| &t.tok), Some(Tok::Open('('))) {
                            self.skip_group();
                        }
                    }
                    Some("const" | "unsafe" | "async" | "default") => {
                        // `const` may start `const fn` *or* a `const X: T`
                        // item; disambiguate by the following token.
                        if self.peek().is_some_and(|t| t.is_ident("const"))
                            && !self.toks.get(self.pos + 1).is_some_and(|t| {
                                t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("extern")
                            })
                        {
                            break;
                        }
                        self.pos += 1;
                    }
                    Some("extern") => {
                        self.pos += 1;
                        if matches!(self.peek().map(|t| &t.tok), Some(Tok::Str(_))) {
                            self.pos += 1;
                        }
                    }
                    _ => break,
                }
            }

            match self.peek().and_then(|t| t.ident()) {
                Some("fn") => {
                    self.pos += 1;
                    self.function(module, type_ctx, gated || a.test, is_pub);
                    if gated || a.test {
                        self.out.test_spans.push((item_start, self.pos));
                    }
                }
                Some("mod") => {
                    self.pos += 1;
                    let name = self
                        .bump()
                        .and_then(|t| t.ident())
                        .unwrap_or("")
                        .to_string();
                    match self.peek().map(|t| &t.tok) {
                        Some(Tok::Open('{')) => {
                            self.pos += 1;
                            let sub = format!("{module}::{name}");
                            self.items(&sub, None, gated);
                            if gated {
                                self.out.test_spans.push((item_start, self.pos));
                            }
                        }
                        _ => self.skip_to_semi(),
                    }
                }
                Some("impl") => {
                    self.pos += 1;
                    let ty = self.impl_header();
                    if matches!(self.peek().map(|t| &t.tok), Some(Tok::Open('{'))) {
                        self.pos += 1;
                        self.items(module, ty.as_deref(), gated);
                        if gated {
                            self.out.test_spans.push((item_start, self.pos));
                        }
                    }
                }
                Some("trait") => {
                    self.pos += 1;
                    let name = self
                        .bump()
                        .and_then(|t| t.ident())
                        .unwrap_or("")
                        .to_string();
                    // Skip generics/bounds up to the body.
                    while let Some(t) = self.peek() {
                        match t.tok {
                            Tok::Open('{') => break,
                            Tok::Punct(";") => break,
                            Tok::Open(_) => {
                                self.skip_group();
                            }
                            _ => self.pos += 1,
                        }
                    }
                    if matches!(self.peek().map(|t| &t.tok), Some(Tok::Open('{'))) {
                        self.pos += 1;
                        self.items(module, Some(&name), gated);
                        if gated {
                            self.out.test_spans.push((item_start, self.pos));
                        }
                    } else {
                        self.pos += 1;
                    }
                }
                Some("struct" | "enum" | "union") => {
                    self.pos += 1;
                    while let Some(t) = self.peek() {
                        match t.tok {
                            Tok::Open('{') => {
                                self.skip_group();
                                break;
                            }
                            Tok::Open('(') => {
                                self.skip_group(); // tuple struct — then `;`
                            }
                            Tok::Punct(";") => {
                                self.pos += 1;
                                break;
                            }
                            Tok::Close(_) => break,
                            _ => self.pos += 1,
                        }
                    }
                    if gated {
                        self.out.test_spans.push((item_start, self.pos));
                    }
                }
                Some("macro_rules") => {
                    self.pos += 1; // name follows `!`
                    while let Some(t) = self.peek() {
                        match t.tok {
                            Tok::Open(_) => {
                                self.skip_group();
                                break;
                            }
                            _ => self.pos += 1,
                        }
                    }
                    if self.peek().is_some_and(|t| t.is_punct(";")) {
                        self.pos += 1;
                    }
                }
                Some("use" | "static" | "type") => {
                    self.skip_to_semi();
                    if gated {
                        self.out.test_spans.push((item_start, self.pos));
                    }
                }
                Some("const") => {
                    self.skip_to_semi();
                    if gated {
                        self.out.test_spans.push((item_start, self.pos));
                    }
                }
                _ => {
                    // `extern "C" { … }` blocks land here (modifier loop ate
                    // `extern`), as does anything unrecognized: advance by
                    // one token or one balanced group — never stall.
                    match self.peek().map(|t| &t.tok) {
                        Some(Tok::Open(_)) => {
                            self.skip_group();
                        }
                        Some(_) => self.pos += 1,
                        None => return,
                    }
                }
            }
        }
    }

    /// Parses an `impl` header up to (not including) the `{`, returning
    /// the self-type name: `impl<T> Foo<T>` → `Foo`,
    /// `impl Trait for Bar` → `Bar`.
    fn impl_header(&mut self) -> Option<String> {
        let mut segs_before_for: Vec<String> = Vec::new();
        let mut segs_after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            match &t.tok {
                Tok::Open('{') | Tok::Punct(";") => break,
                Tok::Punct("<") => {
                    angle += 1;
                    self.pos += 1;
                }
                Tok::Punct(">") => {
                    angle -= 1;
                    self.pos += 1;
                }
                Tok::Punct(">>") => {
                    angle -= 2;
                    self.pos += 1;
                }
                Tok::Ident(id) if id == "for" && angle == 0 => {
                    saw_for = true;
                    self.pos += 1;
                }
                Tok::Ident(id) if angle == 0 && id != "dyn" && id != "where" && id != "mut" => {
                    if saw_for {
                        segs_after_for.push(id.clone());
                    } else {
                        segs_before_for.push(id.clone());
                    }
                    self.pos += 1;
                }
                Tok::Open(_) => {
                    self.skip_group();
                }
                _ => self.pos += 1,
            }
        }
        let segs = if saw_for {
            segs_after_for
        } else {
            segs_before_for
        };
        segs.last().cloned()
    }

    /// Parses a function from just after the `fn` keyword.
    fn function(&mut self, module: &str, type_ctx: Option<&str>, is_test: bool, is_pub: bool) {
        let Some(name_tok) = self.bump() else { return };
        let name = name_tok.ident().unwrap_or("").to_string();
        let line = name_tok.line;

        // Generics.
        if self.peek().is_some_and(|t| t.is_punct("<")) {
            let mut angle = 0i32;
            while let Some(t) = self.peek() {
                match t.tok {
                    Tok::Punct("<") => angle += 1,
                    Tok::Punct(">") => angle -= 1,
                    Tok::Punct(">>") => angle -= 2,
                    Tok::Open(_) => {
                        self.skip_group();
                        continue;
                    }
                    _ => {}
                }
                self.pos += 1;
                if angle <= 0 {
                    break;
                }
            }
        }

        // Parameters.
        let mut params = Vec::new();
        let mut has_self = false;
        if matches!(self.peek().map(|t| &t.tok), Some(Tok::Open('('))) {
            let start = self.pos + 1;
            let end = self.skip_group() - 1;
            let mut depth = 0i32;
            let mut seg_start = start;
            let mut segments = Vec::new();
            for i in start..end {
                match self.toks[i].tok {
                    Tok::Open(_) => depth += 1,
                    Tok::Close(_) => depth -= 1,
                    Tok::Punct("<") => depth += 1,
                    Tok::Punct(">") => depth -= 1,
                    Tok::Punct(">>") => depth -= 2,
                    Tok::Punct(",") if depth == 0 => {
                        segments.push((seg_start, i));
                        seg_start = i + 1;
                    }
                    _ => {}
                }
            }
            if seg_start < end {
                segments.push((seg_start, end));
            }
            for (s, e) in segments {
                let toks = &self.toks[s..e];
                let colon = toks.iter().position(|t| t.is_punct(":"));
                let pat = &toks[..colon.unwrap_or(toks.len())];
                if pat.iter().any(|t| t.is_ident("self")) {
                    has_self = true;
                    continue;
                }
                for t in pat {
                    if let Some(id) = t.ident() {
                        if id != "mut" && id != "ref" && id != "_" {
                            params.push(id.to_string());
                        }
                    }
                }
            }
        }

        // Return type: `-> …` up to `where`/`{`/`;`.
        let mut ret = (self.pos, self.pos);
        if self.peek().is_some_and(|t| t.is_punct("->")) {
            self.pos += 1;
            let start = self.pos;
            while let Some(t) = self.peek() {
                match &t.tok {
                    Tok::Open('{') | Tok::Punct(";") => break,
                    Tok::Ident(id) if id == "where" => break,
                    Tok::Open(_) => {
                        self.skip_group();
                    }
                    _ => self.pos += 1,
                }
            }
            ret = (start, self.pos);
        }
        // Where clause.
        while let Some(t) = self.peek() {
            match t.tok {
                Tok::Open('{') | Tok::Punct(";") => break,
                Tok::Open(_) => {
                    self.skip_group();
                }
                _ => self.pos += 1,
            }
        }

        let body = match self.peek().map(|t| &t.tok) {
            Some(Tok::Open('{')) => {
                let start = self.pos + 1;
                let end = self.skip_group() - 1;
                Some((start, end))
            }
            Some(Tok::Punct(";")) => {
                self.pos += 1;
                None
            }
            _ => None,
        };

        let qual = match type_ctx {
            Some(ty) => format!("{module}::{ty}::{name}"),
            None => format!("{module}::{name}"),
        };
        self.out.fns.push(FnItem {
            name,
            qual,
            type_ctx: type_ctx.map(str::to_string),
            line,
            is_test,
            is_pub,
            params,
            has_self,
            ret,
            body,
        });
    }
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// True when a `cfg(…)` attribute's argument tokens imply test-only
/// compilation: a bare `test` predicate at `not(…)`-depth zero.
/// `cfg(test)`, `cfg(all(test, feature = "x"))` → true;
/// `cfg(not(test))`, `cfg(feature = "test")` → false.
fn cfg_mentions_test(attr: &[Token]) -> bool {
    let mut not_depth = 0usize;
    let mut not_stack: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < attr.len() {
        match &attr[i].tok {
            Tok::Ident(id)
                if id == "not"
                    && attr
                        .get(i + 1)
                        .is_some_and(|t| matches!(t.tok, Tok::Open('('))) =>
            {
                not_stack.push(depth + 1);
                not_depth += 1;
            }
            Tok::Ident(id) if id == "test" && not_depth == 0 => {
                // `feature = "test"` has the *string* "test"; a bare
                // `test` predicate is an identifier not preceded by `=`.
                let prev_eq = i > 0 && attr[i - 1].is_punct("=");
                let next_eq = attr.get(i + 1).is_some_and(|t| t.is_punct("="));
                if !prev_eq && !next_eq {
                    return true;
                }
            }
            Tok::Open('(') => depth += 1,
            Tok::Close(')') => {
                if not_stack.last() == Some(&depth) {
                    not_stack.pop();
                    not_depth -= 1;
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_str(text: &str) -> ParsedFile {
        parse("crates/x/src/lib.rs", "x", lex(text))
    }

    #[test]
    fn plain_functions_and_methods() {
        let f = parse_str(
            "pub fn free(a: u32) -> u32 { a }\n\
             struct S;\n\
             impl S { fn method(&self, b: u32) {} }\n\
             impl std::fmt::Display for S { fn fmt(&self) {} }\n",
        );
        let quals: Vec<&str> = f.fns.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(quals, vec!["x::free", "x::S::method", "x::S::fmt"]);
        assert!(f.fns[0].is_pub && !f.fns[0].has_self);
        assert!(f.fns[1].has_self);
        assert_eq!(f.fns[1].params, vec!["b"]);
    }

    #[test]
    fn module_nesting() {
        let f = parse_str("mod a { mod b { fn deep() {} } } fn top() {}");
        let quals: Vec<&str> = f.fns.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(quals, vec!["x::a::b::deep", "x::top"]);
    }

    #[test]
    fn cfg_test_mod_marks_items_test() {
        let f = parse_str(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test && f.fns[2].is_test);
    }

    #[test]
    fn multiple_attributes_before_cfg_test_still_gate() {
        // Regression (lexical-scanner gap #3): the old scanner only kept
        // its `#[cfg(test)]` flag alive across *leading* attribute lines;
        // attributes in other orders, or several on one line, slipped by.
        let f = parse_str(
            "#[derive(Debug)]\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\n\
             #[allow(dead_code)] #[cfg(test)] fn gated() {}\n\
             fn real() {}\n",
        );
        assert!(f.fns[0].is_test, "mod under stacked attrs");
        assert!(f.fns[1].is_test, "fn with cfg(test) second on one line");
        assert!(!f.fns[2].is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let f = parse_str(
            "#[cfg(not(test))] fn prod() {}\n\
             #[cfg(all(test, feature = \"x\"))] fn gated() {}\n\
             #[cfg(feature = \"test\")] fn feat() {}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
        assert!(!f.fns[2].is_test);
    }

    #[test]
    fn generics_and_where_clauses() {
        let f = parse_str(
            "fn g<T: Into<Vec<u8>>>(x: T) -> Result<Vec<u8>, String> where T: Clone { x.into() }",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].params, vec!["x"]);
        let ret: Vec<_> = f.tokens[f.fns[0].ret.0..f.fns[0].ret.1]
            .iter()
            .filter_map(|t| t.ident())
            .collect();
        assert_eq!(ret, vec!["Result", "Vec", "u8", "String"]);
    }

    #[test]
    fn bodies_are_ranged_and_exclusive() {
        let f = parse_str("fn f() { let x = { 1 }; }");
        let (s, e) = f.fns[0].body.unwrap();
        let body: Vec<_> = f.tokens[s..e].iter().filter_map(|t| t.ident()).collect();
        assert_eq!(body, vec!["let", "x"]);
    }

    #[test]
    fn impl_header_with_nested_generics() {
        let f = parse_str("impl Wrapper<Vec<Inner<u8>>> { fn m(&self) {} }");
        assert_eq!(f.fns[0].type_ctx.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn trait_methods_get_trait_context() {
        let f = parse_str("trait Sink { fn emit(&self); fn both(&self) { self.emit() } }");
        let quals: Vec<&str> = f.fns.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(quals, vec!["x::Sink::emit", "x::Sink::both"]);
        assert!(f.fns[0].body.is_none());
        assert!(f.fns[1].body.is_some());
    }

    #[test]
    fn tuple_struct_and_const_items_skipped() {
        let f = parse_str(
            "struct T(u32, u32);\nconst N: usize = 4;\nstatic S: &str = \"x\";\ntype A = u32;\nfn f() {}",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn destructured_params() {
        let f = parse_str("fn f((a, b): (u32, u32), Point { x, y }: Point) {}");
        assert_eq!(f.fns[0].params, vec!["a", "b", "Point", "x", "y"]);
    }
}
