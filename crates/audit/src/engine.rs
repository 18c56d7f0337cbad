//! The cronus-lint v2 engine: loads sources, builds the call graph, and
//! runs every analysis from [`crate::rules`] deterministically.
//!
//! Determinism contract: files are analyzed in sorted path order, all
//! intermediate maps are ordered, no wall clock or randomness is read,
//! and [`Report::render`]/[`Report::render_json`] are pure functions of
//! the source tree — the full-repo report is byte-identical across runs.

use std::fs;
use std::io;
use std::path::Path;

use crate::facts::{extract, FnFacts, PanicKind};
use crate::graph::CallGraph;
use crate::lex::lex;
use crate::rules::{self, Finding};
use crate::syntax::{parse, ParsedFile};
use crate::taint::{self, Step};

/// Relative path of the unwrap/expect allowlist.
pub const ALLOWLIST_PATH: &str = "crates/audit/lint_allowlist.txt";

/// One loaded source file: raw text plus its parse.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Raw file contents (for allowlist needle matching).
    pub text: String,
    /// The parsed token stream and items.
    pub parsed: ParsedFile,
}

/// The analyzed source tree.
#[derive(Debug, Default)]
pub struct SourceSet {
    /// Files in sorted path order.
    pub files: Vec<SourceFile>,
    /// Allowlist file contents (empty when absent).
    pub allowlist: String,
}

impl SourceSet {
    /// Loads every `.rs` file under `root` (skipping `target/` and dot
    /// directories) plus the allowlist.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from walking or reading the tree.
    pub fn load(root: &Path) -> io::Result<SourceSet> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for rel in &paths {
            let text = fs::read_to_string(root.join(rel))?;
            files.push(parse_one(rel, text));
        }
        let allowlist = match fs::read_to_string(root.join(ALLOWLIST_PATH)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        Ok(SourceSet { files, allowlist })
    }

    /// Builds a set from in-memory `(path, text)` pairs — the fixture
    /// entry point used by `tests/static_analysis.rs`.
    pub fn from_files(files: Vec<(String, String)>) -> SourceSet {
        let mut files: Vec<SourceFile> = files.into_iter().map(|(p, t)| parse_one(&p, t)).collect();
        files.sort_by(|a, b| a.parsed.path.cmp(&b.parsed.path));
        SourceSet {
            files,
            allowlist: String::new(),
        }
    }

    /// Replaces the allowlist text (fixtures).
    pub fn with_allowlist(mut self, text: &str) -> SourceSet {
        self.allowlist = text.to_string();
        self
    }
}

fn parse_one(rel: &str, text: String) -> SourceFile {
    let module = module_of(rel);
    let parsed = parse(rel, &module, lex(&text));
    SourceFile { text, parsed }
}

/// Outcome of one engine run.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything that fired, sorted by (path, line, rule, message).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// Number of functions in the call graph.
    pub fns_analyzed: usize,
    /// Number of distinct `crates/<name>` trees seen.
    pub crates_analyzed: usize,
}

impl Report {
    /// True when no rule fired.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Text rendering: one line per finding, counterexample chains
    /// indented beneath it, then a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
            out.push_str(&taint::render_chain(&f.chain));
        }
        out.push_str(&format!(
            "cronus-lint: {} crate(s), {} file(s), {} function(s) analyzed, {} finding(s)\n",
            self.crates_analyzed,
            self.files_scanned,
            self.fns_analyzed,
            self.findings.len()
        ));
        out
    }

    /// JSON rendering (stable field order; byte-identical across runs).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"crates\": {},\n  \"files\": {},\n  \"functions\": {},\n",
            self.crates_analyzed, self.files_scanned, self.fns_analyzed
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"rule\": {},\n", json_str(f.rule)));
            out.push_str(&format!("      \"path\": {},\n", json_str(&f.path)));
            out.push_str(&format!("      \"line\": {},\n", f.line));
            out.push_str(&format!("      \"message\": {},\n", json_str(&f.message)));
            out.push_str("      \"chain\": [");
            for (j, s) in f.chain.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"path\": {}, \"line\": {}, \"note\": {}}}",
                    json_str(&s.path),
                    s.line,
                    json_str(&s.note)
                ));
            }
            out.push_str("]\n");
            out.push_str(if i + 1 == self.findings.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One entry of `lint_allowlist.txt`: `path | line-substring | reason`.
#[derive(Clone, Debug)]
struct AllowEntry {
    path: String,
    needle: String,
    reason: String,
    line_no: u32,
    used: bool,
}

fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '|').map(str::trim);
        let (Some(path), Some(needle), Some(reason)) = (parts.next(), parts.next(), parts.next())
        else {
            entries.push(AllowEntry {
                path: line.to_string(),
                needle: String::new(),
                reason: "malformed entry: expected `path | line-substring | reason`".into(),
                line_no: i as u32 + 1,
                used: false,
            });
            continue;
        };
        entries.push(AllowEntry {
            path: path.to_string(),
            needle: needle.to_string(),
            reason: reason.to_string(),
            line_no: i as u32 + 1,
            used: false,
        });
    }
    entries
}

/// Paths the interprocedural analyses report findings in: crate sources
/// and the umbrella `src/` tree — not integration tests or benches.
fn analyzed_scope(path: &str) -> bool {
    (path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/")
}

/// Runs every analysis over a loaded set. Pure.
pub fn run(set: &SourceSet) -> Report {
    let parsed_owned: Vec<ParsedFile> = set.files.iter().map(|f| f.parsed.clone()).collect();
    let facts: Vec<Vec<FnFacts>> = parsed_owned
        .iter()
        .map(|f| f.fns.iter().map(|i| extract(&f.tokens, i)).collect())
        .collect();
    let g = CallGraph::build(&parsed_owned, &facts);
    let mut findings: Vec<Finding> = Vec::new();

    // ---- 1. secret-taint -------------------------------------------
    let cfg = rules::taint_config(&g);
    for t in taint::analyze(&g, &parsed_owned, &cfg) {
        if !analyzed_scope(&t.path) {
            continue;
        }
        findings.push(Finding {
            rule: "secret-taint",
            path: t.path,
            line: t.line,
            message: t.message,
            chain: t.chain,
        });
    }

    // ---- 2. panic-reachability -------------------------------------
    let mut allow = parse_allowlist(&set.allowlist);
    let roots = rules::roots(&g);
    let reach = g.reachable_from(&roots);
    for &f in reach.keys() {
        let node = &g.fns[f];
        let file = &parsed_owned[node.file];
        if node.item.is_test || !rules::in_scope(&file.path, &rules::PANIC_SCOPES) {
            continue;
        }
        let in_unwrap_scope = rules::in_scope(&file.path, &rules::NO_UNWRAP_SCOPES);
        for site in &node.facts.panics {
            let covered_elsewhere =
                matches!(site.kind, PanicKind::Unwrap | PanicKind::Expect) && in_unwrap_scope;
            let reportable = matches!(
                site.kind,
                PanicKind::Macro
                    | PanicKind::Assert
                    | PanicKind::Index
                    | PanicKind::Unwrap
                    | PanicKind::Expect
            );
            if !reportable || covered_elsewhere {
                continue;
            }
            if matches!(site.kind, PanicKind::Unwrap | PanicKind::Expect)
                && allowlisted(&mut allow, &file.path, set, node.file, site.line)
            {
                continue;
            }
            let witness = g.witness_path(&reach, f);
            let root_qual = g.fns[witness[0]].item.qual.clone();
            let mut chain: Vec<Step> = witness
                .into_iter()
                .map(|id| {
                    let n = &g.fns[id];
                    Step {
                        path: parsed_owned[n.file].path.clone(),
                        line: n.item.line,
                        note: format!("`{}`", n.item.qual),
                    }
                })
                .collect();
            if let Some(first) = chain.first_mut() {
                first.note = format!("entry point {}", first.note);
            }
            chain.push(Step {
                path: file.path.clone(),
                line: site.line,
                note: format!("{} here", site.kind.label()),
            });
            findings.push(Finding {
                rule: "panic-reachability",
                path: file.path.clone(),
                line: site.line,
                message: format!(
                    "{} reachable from `{}` ({} call hop(s)); return a typed error",
                    site.kind.label(),
                    root_qual,
                    chain.len().saturating_sub(2),
                ),
                chain,
            });
        }
    }

    // ---- 3. no-unwrap-in-trusted-path (reachable or not) ------------
    for (fi, file) in parsed_owned.iter().enumerate() {
        if !rules::in_scope(&file.path, &rules::NO_UNWRAP_SCOPES) {
            continue;
        }
        for (ii, item) in file.fns.iter().enumerate() {
            if item.is_test {
                continue;
            }
            for site in &facts[fi][ii].panics {
                if !matches!(site.kind, PanicKind::Unwrap | PanicKind::Expect) {
                    continue;
                }
                if allowlisted(&mut allow, &file.path, set, fi, site.line) {
                    continue;
                }
                findings.push(Finding {
                    rule: "no-unwrap-in-trusted-path",
                    path: file.path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` in trusted non-test code (fn `{}`); return a typed \
                         error or add a justified entry to {}",
                        site.kind.label(),
                        item.name,
                        ALLOWLIST_PATH
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    // ---- 4, 5 & 6. wall clock, string errors, hash order ------------
    for file in &parsed_owned {
        rules::wall_clock_findings(file, &mut findings);
        rules::string_error_findings(file, &mut findings);
        rules::hash_order_findings(file, &mut findings);
    }

    // ---- 7. allowlist hygiene ---------------------------------------
    for e in &allow {
        if !e.used {
            findings.push(Finding {
                rule: "no-unwrap-in-trusted-path",
                path: ALLOWLIST_PATH.into(),
                line: e.line_no,
                message: format!(
                    "allowlist entry `{} | {}` matched nothing; remove it ({})",
                    e.path, e.needle, e.reason
                ),
                chain: Vec::new(),
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings.dedup();

    let mut crates: Vec<&str> = parsed_owned
        .iter()
        .filter_map(|f| {
            f.path
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
        })
        .collect();
    crates.sort_unstable();
    crates.dedup();

    Report {
        findings,
        files_scanned: parsed_owned.len(),
        fns_analyzed: g.fns.len(),
        crates_analyzed: crates.len(),
    }
}

/// Matches a site line against the allowlist (marking entries used).
fn allowlisted(
    allow: &mut [AllowEntry],
    path: &str,
    set: &SourceSet,
    file_idx: usize,
    line: u32,
) -> bool {
    let Some(text) = set
        .files
        .get(file_idx)
        .and_then(|f| f.text.lines().nth(line as usize - 1))
    else {
        return false;
    };
    let mut hit = false;
    for e in allow.iter_mut() {
        if !e.needle.is_empty() && e.path == path && text.contains(e.needle.as_str()) {
            e.used = true;
            hit = true;
        }
    }
    hit
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_path(root, &path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Computes the Rust module path of a repo-relative file path:
/// `crates/core/src/ring.rs` → `cronus_core::ring`,
/// `src/bin/obs.rs` → `obs` (a `-` becomes `_`), `tests/security.rs` →
/// `security`.
pub fn module_of(path: &str) -> String {
    let stemmed = |s: &str| s.trim_end_matches(".rs").replace('-', "_");
    if let Some(rest) = path.strip_prefix("crates/") {
        let mut parts = rest.split('/');
        let krate = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let base = format!("cronus_{}", krate.replace('-', "_"));
        if rest.first() == Some(&"src") {
            let mut segs = vec![base];
            for (i, p) in rest[1..].iter().enumerate() {
                let last = i + 2 == rest.len();
                if last && (*p == "lib.rs" || *p == "mod.rs" || *p == "main.rs") {
                    break;
                }
                if last && *p == "bin" {
                    break;
                }
                segs.push(stemmed(p));
            }
            // `src/bin/x.rs` binaries are their own crate root.
            if rest.get(1) == Some(&"bin") {
                return stemmed(rest.last().unwrap_or(&""));
            }
            return segs.join("::");
        }
        // tests/ and benches/ files are their own crate roots.
        return stemmed(rest.last().unwrap_or(&""));
    }
    if let Some(rest) = path.strip_prefix("src/bin/") {
        return stemmed(rest);
    }
    if path == "src/lib.rs" {
        return "cronus".into();
    }
    if let Some(rest) = path.strip_prefix("src/") {
        return format!("cronus::{}", stemmed(rest));
    }
    stemmed(path.rsplit('/').next().unwrap_or(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(module_of("crates/core/src/ring.rs"), "cronus_core::ring");
        assert_eq!(module_of("crates/core/src/lib.rs"), "cronus_core");
        assert_eq!(
            module_of("crates/workloads/src/dnn/mod.rs"),
            "cronus_workloads::dnn"
        );
        assert_eq!(module_of("crates/bench/src/bin/fig.rs"), "fig");
        assert_eq!(module_of("crates/core/tests/properties.rs"), "properties");
        assert_eq!(module_of("src/bin/obs.rs"), "obs");
        assert_eq!(module_of("src/bin/two-words.rs"), "two_words");
        assert_eq!(module_of("src/lib.rs"), "cronus");
        assert_eq!(module_of("tests/security.rs"), "security");
    }

    fn set(files: &[(&str, &str)]) -> SourceSet {
        SourceSet::from_files(
            files
                .iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect(),
        )
    }

    #[test]
    fn unwrap_rule_is_syntactic_now() {
        // A string literal containing ".unwrap()" — the v1 scanner's
        // false positive — is clean; a real unwrap fires.
        let r = run(&set(&[(
            "crates/core/src/x.rs",
            "fn doc() -> &'static str { \"call .unwrap() never\" }\n\
             fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )]));
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        assert_eq!(r.findings[0].rule, "no-unwrap-in-trusted-path");
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn allowlist_suppresses_and_unused_entries_fire() {
        let s = set(&[(
            "crates/core/src/x.rs",
            "fn ok(v: Option<u32>) -> u32 { v.expect(\"checked above\") }\n",
        )])
        .with_allowlist(
            "crates/core/src/x.rs | expect(\"checked above\") | guarded\n\
             crates/core/src/y.rs | expect(\"gone\") | stale entry\n",
        );
        let r = run(&s);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        assert!(r.findings[0].message.contains("matched nothing"));
        assert_eq!(r.findings[0].path, ALLOWLIST_PATH);
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let files = &[(
            "crates/core/src/x.rs",
            "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )];
        let a = run(&set(files));
        let b = run(&set(files));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_json(), b.render_json());
    }

    /// The repo root: `CARGO_MANIFEST_DIR` is `crates/audit`, two below it.
    fn repo() -> SourceSet {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        SourceSet::load(&root).expect("sources load")
    }

    /// Every declared source/sink/sanitizer/root suffix must resolve to
    /// at least one function in this repo — a dead entry means the rule
    /// silently stopped covering what it claims to cover (exactly how a
    /// `crypto::measure` entry once went dead when segment alignment
    /// rejected it against `cronus_crypto::measure`).
    #[test]
    fn every_configured_path_resolves_in_this_repo() {
        use crate::graph::path_ends_with;

        let parsed: Vec<_> = repo().files.into_iter().map(|f| f.parsed).collect();
        let facts: Vec<Vec<_>> = parsed
            .iter()
            .map(|f| f.fns.iter().map(|i| extract(&f.tokens, i)).collect())
            .collect();
        let g = CallGraph::build(&parsed, &facts);
        let mut dead = Vec::new();
        for suffix in rules::SOURCE_PATHS
            .iter()
            .chain(&rules::SINK_PATHS)
            .chain(&rules::SANITIZER_PATHS)
            .chain(&rules::ROOT_PATHS)
        {
            if !g.fns.iter().any(|n| path_ends_with(&n.item.qual, suffix)) {
                dead.push(*suffix);
            }
        }
        assert!(dead.is_empty(), "dead rule-config entries: {dead:?}");
    }
}
