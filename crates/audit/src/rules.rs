//! Rule catalog and repo policy configuration for cronus-lint v2.
//!
//! This module is the single place where *policy* lives: which functions
//! are secret sources, observable sinks and sanitizers (the FORENSICS.md
//! redaction contract), which entry points root panic reachability (the
//! attacker-reachable sRPC dispatch and trap-recovery surface), and which
//! directory scopes each legacy rule applies to. The engine
//! ([`crate::engine`]) mechanically applies these tables; changing policy
//! means editing this file, not the analyses.

use crate::graph::{path_ends_with, CallGraph, FnId};
use crate::lex::Tok;
use crate::syntax::ParsedFile;
use crate::taint::{Step, TaintConfig};

/// One finding of any rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: u32,
    /// What was found and why it is rejected.
    pub message: String,
    /// Counterexample chain (taint hops or call path); empty for purely
    /// local rules.
    pub chain: Vec<Step>,
}

/// A catalog entry: name plus the `--explain` text.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable rule name (used in findings and allowlist docs).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-line explanation for `lint --explain <rule>`.
    pub explain: &'static str,
}

/// Every rule the engine can emit, in report order.
pub const RULES: [Rule; 6] = [
    Rule {
        name: "secret-taint",
        summary: "secret values must not reach observable sinks unredacted",
        explain: "Taint is seeded at declared secret sources (DH shared secrets, \
schnorr key derivation, stream-cipher plaintexts, forensics chain keys, decoded \
sRPC payloads and grant-arena reads) and propagated through assignments, \
`{ident}` inline format captures and call edges. Reaching a declared sink — \
recorder spans/metrics/labels, ledger records, black-box annotations, bench \
emitters — is a finding carrying the full source-to-sink chain. Passing the \
value through a sanitizer (measure/sha256/hmac) first clears the taint: that \
is the FORENSICS.md redaction contract, checked statically.",
    },
    Rule {
        name: "panic-reachability",
        summary: "no reachable panic site on the sRPC dispatch / trap-recovery surface",
        explain: "Every panic!/unreachable!/todo!/unimplemented!/assert! site and \
every slice-index expression in crates/{core,spm,sim,mos,crypto,forensics} — \
plus .unwrap()/.expect() in the crates the no-unwrap rule does not already \
cover — is reported if the call graph reaches it from an sRPC dispatch or \
trap-recovery entry point (CronusSystem::{call,app_ecall,sync,...}, \
Call::{start,sync}, StreamBuilder::{open,reopen}, Spm::{handle_trap,...}). \
The finding carries the entry-point-to-site call path. Unreachable sites are \
not findings: a panic a remote caller cannot trigger is not attack surface. \
There is no accepted list: the gate is zero, so a reachable site is fixed \
where it sits, by a checked form (get, split_at_checked, as_chunks, zip) or \
an input that cannot be out of range, never by a std call that panics on \
the same condition.",
    },
    Rule {
        name: "no-unwrap-in-trusted-path",
        summary: "no .unwrap()/.expect() in trusted non-test code",
        explain: "crates/{core,spm,sim,forensics}/src must not contain \
.unwrap()/.expect() outside test code, reachable or not: trusted code returns \
typed errors. Sites are now found syntactically (string literals and comments \
cannot false-positive; unwrap_or/expect_err cannot match). Justified uses are \
enumerated with reasons in crates/audit/lint_allowlist.txt; unused entries are \
findings so the list cannot rot.",
    },
    Rule {
        name: "no-wall-clock",
        summary: "wall-clock reads only in crates/obs and benchmark/",
        explain: "std::time::{Instant,SystemTime} reads outside crates/obs and \
benchmark/ break simulation determinism; everything else runs on the \
simulated clock. The deterministic observatory files \
crates/obs/src/{queue,slo,bundle,diff,meter,fairness}.rs are carved out of \
the exemption: they promise byte-identical output per seed.",
    },
    Rule {
        name: "hash-order",
        summary: "trusted state tables iterate in key order: no HashMap/HashSet",
        explain: "HashMap/HashSet in non-test code of crates/{sim,mos,spm,core}/src \
is a finding: a walk over one visits entries in an order that differs from run \
to run, and walks there append ledger records, free frames and install \
recorders, so the order reaches output that FORENSICS.md and FAULTS.md promise \
is byte-identical per seed (destroy_enclave reclaimed four streams' shares in \
hash order, and 19 of 20 identical runs exported a different ledger). Entity \
tables are BTreeMaps or id-indexed Vecs, ordered by construction, so no caller \
has to remember to sort. Files that keep a hashed table are listed, each with \
its reason, in HASH_ORDER_EXEMPT.",
    },
    Rule {
        name: "no-string-errors",
        summary: "public fallible APIs use typed errors, not String",
        explain: "pub fn ... -> Result<_, String> in \
crates/{core,spm,sim,mos,forensics}/src (and the strict observatory files) is \
a finding: callers cannot match on a string. Checked on the parsed return-type \
tokens, so multi-line signatures and aliases are seen.",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------
// Scopes (path prefixes; carried over from lint v1 — see AUDIT.md).
// ---------------------------------------------------------------------

/// Directories whose non-test code must be unwrap/expect-free.
pub const NO_UNWRAP_SCOPES: [&str; 4] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/forensics/src",
];

/// Trees allowed to read the wall clock: the observability crate and the
/// repo benchmark (`benchmark/`, which exists to time the simulator on the
/// host clock).
pub const WALL_CLOCK_EXEMPT: [&str; 2] = ["crates/obs", "benchmark"];

/// Observatory analysis files held to the strict rules despite living in
/// the otherwise-exempt `crates/obs`.
pub const STRICT_OBS_FILES: [&str; 7] = [
    "crates/obs/src/bundle.rs",
    "crates/obs/src/diff.rs",
    "crates/obs/src/fairness.rs",
    "crates/obs/src/intern.rs",
    "crates/obs/src/meter.rs",
    "crates/obs/src/queue.rs",
    "crates/obs/src/slo.rs",
];

/// Trusted crates whose state tables must iterate in key order.
pub const HASH_ORDER_SCOPES: [&str; 4] = [
    "crates/sim/src",
    "crates/mos/src",
    "crates/spm/src",
    "crates/core/src",
];

/// Files under [`HASH_ORDER_SCOPES`] that may keep a hashed table, each with
/// the reason it is safe there.
pub const HASH_ORDER_EXEMPT: [(&str, &str); 1] = [(
    "crates/sim/src/pagetable.rs",
    "page-granular tables, keyed by page number: large, probed on every \
     checked access, hashed by a fixed page-number hasher (deterministic, \
     but still unordered), never walked to produce ordered output (the \
     exports that reach the auditor and the ledger sort by page)",
)];

/// Directories whose public APIs must not use `String` errors.
pub const NO_STRING_ERROR_SCOPES: [&str; 5] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/mos/src",
    "crates/forensics/src",
];

/// Trusted crates whose reachable panic sites are findings.
pub const PANIC_SCOPES: [&str; 6] = [
    "crates/core/src",
    "crates/spm/src",
    "crates/sim/src",
    "crates/mos/src",
    "crates/crypto/src",
    "crates/forensics/src",
];

/// True when `path` sits under one of `scopes`.
pub fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

// ---------------------------------------------------------------------
// Taint policy: qualified-path suffixes, resolved against the call
// graph at analysis time. Segment-aligned, so `KeyPair::from_seed`
// matches `cronus_crypto::schnorr::KeyPair::from_seed` but not
// `...::DhKeyPair::from_seed`.
// ---------------------------------------------------------------------

/// Functions whose return value is secret.
pub const SOURCE_PATHS: [&str; 11] = [
    // Crypto key material.
    "DhKeyPair::from_seed",
    "DhKeyPair::agree",
    "KeyPair::from_seed",
    "KeyPair::derive",
    "StreamCipher::open",
    // Forensics chain keys (pre-redaction).
    "ledger::chain_key",
    // sRPC payload bytes and grant-arena pages.
    "ring::decode_request",
    "ring::decode_slot_request",
    "ring::view_slot",
    "ring::decode_result",
    "CronusSystem::shared_read",
];

/// Functions whose arguments become normal-world observable.
pub const SINK_PATHS: [&str; 55] = [
    // Recorder / metrics labels and values.
    "FlightRecorder::counter_add",
    "MetricsRegistry::counter_add",
    "FlightRecorder::gauge_set",
    "MetricsRegistry::gauge_set",
    "FlightRecorder::observe",
    "MetricsRegistry::observe",
    "Histogram::observe",
    "FlightRecorder::begin_span",
    "FlightRecorder::complete_span",
    "FlightRecorder::charge_detail",
    "TimeProfiler::charge_detail",
    // The same stores entered by handle: resolving an id takes the label
    // or name text, updating through one takes the value.
    "MetricsRegistry::counter_id",
    "MetricsRegistry::gauge_id",
    "MetricsRegistry::histogram_id",
    "MetricsRegistry::counter_bump",
    "MetricsRegistry::gauge_store",
    "MetricsRegistry::histogram_record",
    "Interner::intern",
    "SpanTracer::intern",
    "SpanTracer::begin",
    "SpanTracer::complete",
    "RecorderInner::begin_span",
    "RecorderInner::complete_span",
    "TimeProfiler::frame",
    "TimeProfiler::charge_frame",
    "RecorderInner::charge_frame",
    // The sRPC path's one-step-per-phase reporters.
    "StreamObs::open",
    "StreamObs::enqueued",
    "StreamObs::ring_full",
    "StreamObs::drained",
    "StreamObs::call_completed",
    "StreamObs::synced",
    "StreamObs::granted",
    "StreamObs::backed_off",
    "StreamObs::retried",
    "StreamObs::timed_out",
    "StreamObs::reopened",
    // The accelerator path's one-step reporters: a launch payload's kernel
    // name becomes a label and a span name, DMA and staging lengths become
    // counter values.
    "LaunchSeries::launched",
    "ProgramSeries::ran",
    "DeviceObs::completed",
    "DeviceObs::dma",
    "BusObs::transferred",
    "StagingObs::chunk",
    // Ledger records and black-box snapshots.
    "Ledger::append",
    "LedgerInner::append",
    "Ledger::annotate_last_blackbox",
    // The BUNDLE_* emitter.
    "baseline::emit",
    // Resource-meter usage records: ledgers hold sizes and counts only;
    // payload or grant-arena *bytes* must never reach them.
    "FlightRecorder::meter_count",
    "FlightRecorder::meter_occupy",
    "FlightRecorder::meter_wait",
    "ResourceMeter::add_count",
    "ResourceMeter::record_occupancy",
    "ResourceMeter::record_wait",
    "RecorderInner::meter_occupy",
    "RecorderInner::meter_wait",
];

/// Functions that launder taint: one-way measurement / redaction.
pub const SANITIZER_PATHS: [&str; 10] = [
    "cronus_crypto::measure",
    "cronus_crypto::measure_chained",
    "sha256::sha256",
    "Sha256::update",
    "Sha256::finalize",
    "hmac::hmac_sha256",
    // A MAC under an absorbed key; the `HmacKey` itself stays secret.
    "HmacKey::mac",
    // Declassifiers: extracting the public half of a key pair yields a
    // value that is observable by design (the ledger deliberately
    // records `dh_public` in `KeyExchange` events).
    "DhKeyPair::public",
    "KeyPair::public",
    // The modeled time of an mECall handler: the normal world sees when a
    // call completes, and timing channels are out of scope (§III-B).
    "transport::handler_time",
];

/// sRPC dispatch and trap-recovery entry points: the reachability roots.
pub const ROOT_PATHS: [&str; 13] = [
    "CronusSystem::call",
    "CronusSystem::app_ecall",
    "CronusSystem::sync",
    "CronusSystem::close_stream",
    "CronusSystem::inject_partition_failure",
    "CronusSystem::recover_partition",
    "CronusSystem::shared_read",
    "Call::start",
    "Call::sync",
    "StreamBuilder::open",
    "StreamBuilder::reopen",
    "Spm::handle_trap",
    "Spm::detect_failures",
];

/// Resolves the suffix tables into a [`TaintConfig`] over a built graph.
pub fn taint_config(g: &CallGraph) -> TaintConfig {
    let resolve = |paths: &[&str]| {
        let mut out = std::collections::BTreeSet::new();
        for p in paths {
            out.extend(g.find(p));
        }
        out
    };
    TaintConfig {
        sources: resolve(&SOURCE_PATHS),
        sinks: resolve(&SINK_PATHS),
        sanitizers: resolve(&SANITIZER_PATHS),
    }
}

/// Resolves the reachability roots over a built graph.
pub fn roots(g: &CallGraph) -> Vec<FnId> {
    let mut out = Vec::new();
    for p in ROOT_PATHS {
        out.extend(g.find(p));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// True when `qual` names a declared taint source (used by doc tests and
/// fixtures to assert the tables stay segment-aligned).
pub fn is_declared_source(qual: &str) -> bool {
    SOURCE_PATHS.iter().any(|s| path_ends_with(qual, s))
}

// ---------------------------------------------------------------------
// Token-level legacy rules, now running on the parsed stream.
// ---------------------------------------------------------------------

/// `no-wall-clock`: `Instant`/`SystemTime` reads outside the exemption.
pub fn wall_clock_findings(file: &ParsedFile, out: &mut Vec<Finding>) {
    let strict = STRICT_OBS_FILES.contains(&file.path.as_str());
    if in_scope(&file.path, &WALL_CLOCK_EXEMPT) && !strict {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if id != "Instant" && id != "SystemTime" {
            continue;
        }
        if file.is_test_token(i) {
            continue;
        }
        // `std::time::Instant` (a use or a fully qualified mention) or
        // `Instant::now()`.
        let after_time =
            i >= 2 && file.tokens[i - 1].is_punct("::") && file.tokens[i - 2].is_ident("time");
        let before_now = file.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && file.tokens.get(i + 2).is_some_and(|t| t.is_ident("now"));
        if after_time || before_now {
            out.push(Finding {
                rule: "no-wall-clock",
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{id}` wall-clock read outside crates/obs and benchmark/ \
                     breaks simulation determinism; use the simulated clock"
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// `hash-order`: `HashMap`/`HashSet` in a trusted crate's non-test code,
/// outside the files [`HASH_ORDER_EXEMPT`] names.
pub fn hash_order_findings(file: &ParsedFile, out: &mut Vec<Finding>) {
    let exempt = HASH_ORDER_EXEMPT.iter().any(|(p, _)| *p == file.path);
    if !in_scope(&file.path, &HASH_ORDER_SCOPES) || exempt {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if (id != "HashMap" && id != "HashSet") || file.is_test_token(i) {
            continue;
        }
        out.push(Finding {
            rule: "hash-order",
            path: file.path.clone(),
            line: t.line,
            message: format!(
                "`{id}` in a trusted state table iterates in an order that differs \
                 from run to run; use a BTreeMap/BTreeSet or an id-indexed Vec"
            ),
            chain: Vec::new(),
        });
    }
}

/// `no-string-errors`: `pub fn … -> Result<_, String>` on the parsed
/// return-type tokens (multi-line signatures included).
pub fn string_error_findings(file: &ParsedFile, out: &mut Vec<Finding>) {
    let strict = STRICT_OBS_FILES.contains(&file.path.as_str());
    if !in_scope(&file.path, &NO_STRING_ERROR_SCOPES) && !strict {
        return;
    }
    for item in &file.fns {
        if !item.is_pub || item.is_test {
            continue;
        }
        let (a, b) = item.ret;
        let ret = &file.tokens[a..b.min(file.tokens.len())];
        let has_result = ret.iter().any(|t| t.is_ident("Result"));
        // `, String` closing the Result's angle brackets: the next token
        // is `>`/`>>` (or a trailing comma before it, or end-of-type).
        let string_err = (0..ret.len()).any(|i| {
            ret[i].is_punct(",")
                && ret.get(i + 1).is_some_and(|t| t.is_ident("String"))
                && matches!(
                    ret.get(i + 2).map(|t| &t.tok),
                    None | Some(Tok::Punct(">" | ">>" | ","))
                )
        });
        if has_result && string_err {
            out.push(Finding {
                rule: "no-string-errors",
                path: file.path.clone(),
                line: item.line,
                message: format!(
                    "`{}` is a public fallible API with a bare `String` error; \
                     define a typed error enum",
                    item.name
                ),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::syntax::parse;

    fn file(path: &str, text: &str) -> ParsedFile {
        parse(path, "x", lex(text))
    }

    #[test]
    fn catalog_names_are_unique_and_lookup_works() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
        assert!(rule("secret-taint").is_some());
        assert!(rule("nope").is_none());
    }

    #[test]
    fn wall_clock_flagged_outside_obs_and_benchmark() {
        let mut out = Vec::new();
        // The figure harness is sim-clock-only, like the system it drives.
        for path in ["crates/core/src/x.rs", "crates/bench/src/x.rs"] {
            out.clear();
            wall_clock_findings(
                &file(path, "fn f() { let t = std::time::Instant::now(); }"),
                &mut out,
            );
            assert_eq!(out.len(), 1, "one finding at the Instant token: {out:?}");
        }
        out.clear();
        wall_clock_findings(
            &file(
                "benchmark/src/x.rs",
                "fn f() { let t = std::time::Instant::now(); }",
            ),
            &mut out,
        );
        assert!(out.is_empty());
        // Strict observatory files lose the exemption.
        wall_clock_findings(
            &file(
                "crates/obs/src/queue.rs",
                "fn f() { let t = Instant::now(); }",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn wall_clock_in_string_or_test_is_clean() {
        let mut out = Vec::new();
        wall_clock_findings(
            &file(
                "crates/core/src/x.rs",
                "fn f() { let s = \"std::time::Instant::now()\"; }\n\
                 #[cfg(test)]\nmod t { fn g() { let t = std::time::Instant::now(); } }",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn string_errors_flagged_across_lines() {
        let mut out = Vec::new();
        string_error_findings(
            &file(
                "crates/spm/src/x.rs",
                "pub fn f(\n    a: u32,\n) -> Result<\n    u32,\n    String,\n> { Err(String::new()) }",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "no-string-errors");
    }

    #[test]
    fn typed_errors_and_private_fns_are_clean() {
        let mut out = Vec::new();
        string_error_findings(
            &file(
                "crates/spm/src/x.rs",
                "pub fn f() -> Result<u32, SpmError> { Ok(0) }\n\
                 fn g() -> Result<u32, String> { Ok(0) }",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn declared_sources_are_segment_aligned() {
        assert!(is_declared_source(
            "cronus_crypto::schnorr::KeyPair::from_seed"
        ));
        assert!(!is_declared_source("cronus_ptest::Rng::from_seed"));
    }
}
