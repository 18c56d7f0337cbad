//! Repo-wide call graph: function index, call resolution, reachability.
//!
//! Resolution is *syntactic suffix matching* over fully qualified paths:
//! a call written `ledger::chain_key(…)` resolves to every known function
//! whose qualified path ends in `ledger::chain_key`; a method call
//! `.counter_add(…)` resolves to every impl/trait method of that name.
//! Where several candidates survive, same-file then same-crate candidates
//! are preferred; remaining ambiguity keeps *all* candidates — the
//! analyses over-approximate rather than miss an edge. Calls into `std`
//! or other out-of-repo code resolve to nothing and produce no edges.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::facts::{Callee, FnFacts};
use crate::syntax::{FnItem, ParsedFile};

/// Index of one function in the [`CallGraph`].
pub type FnId = usize;

/// One function: its item, facts, and location.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the owning file in the analyzed set.
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
    /// Extracted body facts.
    pub facts: FnFacts,
}

/// The repo-wide call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function, in deterministic (file, source) order.
    pub fns: Vec<FnNode>,
    /// Bare name → candidate functions.
    by_name: HashMap<String, Vec<FnId>>,
    /// Caller → resolved callees (deduplicated, ordered).
    pub edges: Vec<Vec<FnId>>,
    /// Per-call-site resolution: `call_targets[f][c]` are the targets of
    /// call site `c` of function `f`.
    pub call_targets: Vec<Vec<Vec<FnId>>>,
}

impl CallGraph {
    /// Builds the graph over parsed files and their per-function facts
    /// (parallel to `files[i].fns`).
    pub fn build(files: &[ParsedFile], facts: &[Vec<FnFacts>]) -> Self {
        let mut g = CallGraph::default();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.fns.iter().enumerate() {
                let id = g.fns.len();
                g.by_name.entry(item.name.clone()).or_default().push(id);
                g.fns.push(FnNode {
                    file: fi,
                    item: item.clone(),
                    facts: facts[fi][ii].clone(),
                });
            }
        }
        for id in 0..g.fns.len() {
            let node = &g.fns[id];
            let mut targets_per_call = Vec::with_capacity(node.facts.calls.len());
            let mut edge_set: Vec<FnId> = Vec::new();
            for call in &node.facts.calls {
                let t = g.resolve(id, &call.callee);
                for &x in &t {
                    if !edge_set.contains(&x) {
                        edge_set.push(x);
                    }
                }
                targets_per_call.push(t);
            }
            g.edges.push(edge_set);
            g.call_targets.push(targets_per_call);
        }
        g
    }

    /// Resolves one call site from `caller` to candidate functions.
    pub fn resolve(&self, caller: FnId, callee: &Callee) -> Vec<FnId> {
        let caller_node = &self.fns[caller];
        match callee {
            Callee::Method(name) => {
                let mut out: Vec<FnId> = self
                    .by_name
                    .get(name)
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&id| self.fns[id].item.type_ctx.is_some())
                            .collect()
                    })
                    .unwrap_or_default();
                out.sort_unstable();
                out
            }
            Callee::Path(segs) => {
                let Some(name) = segs.last() else {
                    return Vec::new();
                };
                let cands = match self.by_name.get(name) {
                    Some(v) => v,
                    None => return Vec::new(),
                };
                let suffix = segs.join("::");
                let mut matched: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| path_ends_with(&self.fns[id].item.qual, &suffix))
                    .collect();
                if matched.is_empty() {
                    return Vec::new();
                }
                // Prefer same-file, then same-crate definitions.
                let same_file: Vec<FnId> = matched
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].file == caller_node.file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let caller_crate = crate_of(&caller_node.item.qual);
                let same_crate: Vec<FnId> = matched
                    .iter()
                    .copied()
                    .filter(|&id| crate_of(&self.fns[id].item.qual) == caller_crate)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                matched.sort_unstable();
                matched
            }
        }
    }

    /// Finds every function whose qualified path ends with `suffix`
    /// (segment-aligned).
    pub fn find(&self, suffix: &str) -> Vec<FnId> {
        let name = suffix.rsplit("::").next().unwrap_or(suffix);
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| path_ends_with(&self.fns[id].item.qual, suffix))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// BFS over call edges from `roots`, skipping test functions. Returns
    /// for each reached function its BFS parent (roots map to
    /// themselves), which reconstructs a shortest witness path.
    pub fn reachable_from(&self, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: HashSet<FnId> = HashSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        let mut sorted_roots: Vec<FnId> = roots.to_vec();
        sorted_roots.sort_unstable();
        for &r in &sorted_roots {
            if !self.fns[r].item.is_test && seen.insert(r) {
                parent.insert(r, r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &g in &self.edges[f] {
                if self.fns[g].item.is_test {
                    continue;
                }
                if seen.insert(g) {
                    parent.insert(g, f);
                    queue.push_back(g);
                }
            }
        }
        parent
    }

    /// Reconstructs the root→`f` call path from a parent map.
    pub fn witness_path(&self, parent: &BTreeMap<FnId, FnId>, f: FnId) -> Vec<FnId> {
        let mut path = vec![f];
        let mut cur = f;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// `cronus_core::ring::decode_request` ends with `ring::decode_request`
/// but not with `ng::decode_request`: matches must be segment-aligned.
pub fn path_ends_with(qual: &str, suffix: &str) -> bool {
    if !qual.ends_with(suffix) {
        return false;
    }
    let rest = &qual[..qual.len() - suffix.len()];
    rest.is_empty() || rest.ends_with("::")
}

/// The first path segment: the crate.
fn crate_of(qual: &str) -> &str {
    qual.split("::").next().unwrap_or(qual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;
    use crate::lex::lex;
    use crate::syntax::parse;

    fn build(files: &[(&str, &str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, m, text)| parse(p, m, lex(text)))
            .collect();
        let facts: Vec<Vec<_>> = parsed
            .iter()
            .map(|f| f.fns.iter().map(|i| extract(&f.tokens, i)).collect())
            .collect();
        CallGraph::build(&parsed, &facts)
    }

    #[test]
    fn resolves_bare_and_qualified_calls() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn entry() { helper(); b::util::work(); }\nfn helper() {}",
            ),
            ("crates/b/src/util.rs", "b::util", "pub fn work() {}"),
        ]);
        let entry = g.find("a::entry")[0];
        let names: Vec<&str> = g.edges[entry]
            .iter()
            .map(|&id| g.fns[id].item.name.as_str())
            .collect();
        assert_eq!(names, vec!["helper", "work"]);
    }

    #[test]
    fn crate_self_and_super_paths_resolve() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn entry() { crate::fairness::compute(); self::near(); }\nfn near() {}",
            ),
            (
                "crates/a/src/fairness.rs",
                "a::fairness",
                "pub fn compute() { super::top(); }",
            ),
            ("crates/a/src/top.rs", "a", "pub fn top() {}"),
        ]);
        let callees = |f: &str| -> Vec<&str> {
            let id = g.find(f)[0];
            g.edges[id]
                .iter()
                .map(|&id| g.fns[id].item.qual.as_str())
                .collect()
        };
        assert_eq!(callees("a::entry"), vec!["a::fairness::compute", "a::near"]);
        assert_eq!(callees("a::fairness::compute"), vec!["a::top"]);
    }

    #[test]
    fn same_crate_preferred_on_ambiguity() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn go() { init(); }\nfn init() {}",
            ),
            ("crates/b/src/lib.rs", "b", "fn init() {}"),
        ]);
        let go = g.find("a::go")[0];
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(g.fns[g.edges[go][0]].item.qual, "a::init");
    }

    #[test]
    fn method_calls_resolve_to_all_impl_methods() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\nimpl S { pub fn emit(&self) {} }\n\
             struct T;\nimpl T { pub fn emit(&self) {} }\n\
             pub fn go(s: S) { s.emit(); }\nfn emit() {}",
        )]);
        let go = g.find("a::go")[0];
        // Both methods, but not the free fn of the same name.
        let quals: Vec<&str> = g.edges[go]
            .iter()
            .map(|&id| g.fns[id].item.qual.as_str())
            .collect();
        assert_eq!(quals, vec!["a::S::emit", "a::T::emit"]);
    }

    #[test]
    fn reachability_skips_tests_and_yields_paths() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n\
             #[cfg(test)]\nmod tests { fn t() { super::island(); } }",
        )]);
        let root = g.find("a::root")[0];
        let reach = g.reachable_from(&[root]);
        let leaf = g.find("a::leaf")[0];
        let island = g.find("a::island")[0];
        assert!(reach.contains_key(&leaf));
        assert!(!reach.contains_key(&island), "only test code calls island");
        let path: Vec<&str> = g
            .witness_path(&reach, leaf)
            .into_iter()
            .map(|id| g.fns[id].item.name.as_str())
            .collect();
        assert_eq!(path, vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn segment_alignment() {
        assert!(path_ends_with("a::ring::decode", "ring::decode"));
        assert!(path_ends_with("a::ring::decode", "decode"));
        assert!(!path_ends_with("a::spring::decode", "ring::decode"));
    }
}
