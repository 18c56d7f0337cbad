//! Fixture suite for the cronus-lint v2 engine (`cronus::audit`).
//!
//! Each known-bad fixture is a miniature repo — file paths mimic the real
//! crate layout so the rule catalog's source/sink/sanitizer/root suffixes
//! resolve — and must trip **exactly one** rule with the expected
//! counterexample chain. Good fixtures encode the sanctioned patterns
//! (digest-then-record, `public()` declassification, unreachable panics)
//! and must be clean. The final test pins the full repo: byte-identical
//! reports across runs, and zero findings.

use cronus::audit::engine::{run, Report, SourceSet};

/// Shared fixture scaffolding: just enough of the real crate surface for
/// the catalog's declared paths to resolve.
fn scaffold() -> Vec<(String, String)> {
    vec![
        (
            "crates/crypto/src/schnorr.rs".into(),
            "pub struct KeyPair(u64);\n\
             impl KeyPair {\n\
                 pub fn from_seed(seed: &str) -> KeyPair { KeyPair(seed.len() as u64) }\n\
                 pub fn derive(&self, label: &str) -> KeyPair { KeyPair(self.0 ^ label.len() as u64) }\n\
                 pub fn public(&self) -> u64 { self.0 >> 1 }\n\
             }\n"
            .into(),
        ),
        (
            "crates/crypto/src/lib.rs".into(),
            "pub fn measure(label: &str, data: &[u8]) -> u64 { (label.len() + data.len()) as u64 }\n"
                .into(),
        ),
        (
            "crates/obs/src/recorder.rs".into(),
            "pub struct FlightRecorder;\n\
             impl FlightRecorder {\n\
                 pub fn begin_span(&self, name: String) -> u64 { name.len() as u64 }\n\
                 pub fn complete_span(&self, name: String) { let _ = name; }\n\
             }\n"
            .into(),
        ),
        (
            "crates/forensics/src/ledger.rs".into(),
            "pub struct Ledger;\n\
             impl Ledger {\n\
                 pub fn append(&self, chain: u32, line: String) { let _ = (chain, line); }\n\
             }\n\
             pub fn chain_key(seed: &str, chain: u32) -> [u8; 32] { [seed.len() as u8 ^ chain as u8; 32] }\n"
            .into(),
        ),
        // The resolve-once surface: names and labels enter the stores here
        // when a caller records through handles.
        (
            "crates/obs/src/intern.rs".into(),
            "pub struct Interner;\n\
             impl Interner {\n\
                 pub fn intern(&mut self, name: &str) -> u32 { name.len() as u32 }\n\
             }\n"
            .into(),
        ),
        (
            "crates/obs/src/metrics.rs".into(),
            "pub struct MetricsRegistry;\n\
             impl MetricsRegistry {\n\
                 pub fn counter_id(&mut self, name: &str, pairs: &[(&str, &str)]) -> u32 {\n\
                     (name.len() + pairs.len()) as u32\n\
                 }\n\
                 pub fn counter_bump(&mut self, id: u32, delta: u64) { let _ = (id, delta); }\n\
             }\n"
            .into(),
        ),
    ]
}

fn report_for(mut extra: Vec<(String, String)>) -> Report {
    let mut files = scaffold();
    files.append(&mut extra);
    run(&SourceSet::from_files(files))
}

fn chain_notes(r: &Report, idx: usize) -> Vec<String> {
    r.findings[idx]
        .chain
        .iter()
        .map(|s| s.note.clone())
        .collect()
}

// ---- known-bad fixtures: each trips exactly one rule -----------------------

#[test]
fn secret_key_into_span_label_trips_secret_taint_only() {
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             rec.begin_span(format!(\"boot key={platform}\"));\n\
         }\n"
        .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/spm/src/monitor.rs");
    assert_eq!(f.line, 5);
    assert!(f.message.contains("begin_span"), "{}", f.message);
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_crypto::schnorr::KeyPair::from_seed`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`platform`")), "{notes:?}");
    assert!(notes.last().unwrap().contains("sink"), "{notes:?}");
}

#[test]
fn decoded_payload_into_ledger_trips_secret_taint_only() {
    let r = report_for(vec![
        (
            "crates/core/src/ring.rs".into(),
            "pub struct Request { pub name: String }\n\
             pub fn decode_request(slot: &[u8]) -> Request {\n\
                 Request { name: format!(\"{}\", slot.len()) }\n\
             }\n"
            .into(),
        ),
        (
            "crates/core/src/srpc.rs".into(),
            "use cronus_forensics::ledger::Ledger;\n\
             pub fn record_request(l: &Ledger, slot: &[u8]) {\n\
                 let req = decode_request(slot);\n\
                 l.append(0, format!(\"req={req}\"));\n\
             }\n"
            .into(),
        ),
    ]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/core/src/srpc.rs");
    assert!(
        f.message.contains("Ledger::append"),
        "pre-redaction payload must not reach the ledger: {}",
        f.message
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_core::ring::decode_request`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`req`")), "{notes:?}");
}

/// An absorbed MAC key, as `crates/crypto/src/hmac.rs` defines it: `new`
/// passes its key's taint on, `mac` is the sanitizer.
fn hmac_key_file() -> (String, String) {
    (
        "crates/crypto/src/hmac.rs".into(),
        "pub struct HmacKey { pads: [u8; 32] }\n\
         impl HmacKey {\n\
             pub fn new(key: &[u8]) -> HmacKey { HmacKey { pads: [key.len() as u8; 32] } }\n\
             pub fn mac(&self, msg: &[u8]) -> u64 { (self.pads.len() + msg.len()) as u64 }\n\
         }\n"
        .into(),
    )
}

#[test]
fn absorbed_chain_key_into_span_label_trips_secret_taint_only() {
    let r = report_for(vec![
        hmac_key_file(),
        (
            "crates/spm/src/monitor.rs".into(),
            "use cronus_crypto::hmac::HmacKey;\n\
             use cronus_forensics::ledger::chain_key;\n\
             use cronus_obs::recorder::FlightRecorder;\n\
             pub fn boot_monitor(rec: &FlightRecorder) {\n\
                 let key = HmacKey::new(&chain_key(\"seed\", 1));\n\
                 rec.begin_span(format!(\"ledger key={key:?}\"));\n\
             }\n"
            .into(),
        ),
    ]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/spm/src/monitor.rs");
    assert_eq!(f.line, 6);
    assert!(f.message.contains("begin_span"), "{}", f.message);
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_forensics::ledger::chain_key`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`key`")), "{notes:?}");
}

#[test]
fn secret_key_into_interned_span_name_trips_secret_taint_only() {
    // The key→span leak again, written the handle way: the name is
    // interned once and only the id reaches the span. The interner is where
    // the text enters the trace, so it is where the chain must end.
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_obs::intern::Interner;\n\
         pub fn boot_monitor(names: &mut Interner) -> u32 {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             names.intern(&format!(\"boot key={platform}\"))\n\
         }\n"
        .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "secret-taint");
    assert_eq!(f.path, "crates/spm/src/monitor.rs");
    assert_eq!(f.line, 5);
    assert!(f.message.contains("Interner::intern"), "{}", f.message);
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_crypto::schnorr::KeyPair::from_seed`"),
        "{notes:?}"
    );
    assert!(notes.last().unwrap().contains("sink `intern`"), "{notes:?}");
}

#[test]
fn decoded_payload_into_resolved_label_trips_secret_taint_only() {
    // The payload→label leak, written the handle way: the series is
    // resolved with the decoded text as a label value and later updates
    // carry only the id. Resolution is the sink.
    let r = report_for(vec![
        (
            "crates/core/src/ring.rs".into(),
            "pub struct Request { pub name: String }\n\
             pub fn decode_request(slot: &[u8]) -> Request {\n\
                 Request { name: format!(\"{}\", slot.len()) }\n\
             }\n"
            .into(),
        ),
        (
            "crates/core/src/srpc.rs".into(),
            "use cronus_obs::metrics::MetricsRegistry;\n\
             pub fn count_request(m: &mut MetricsRegistry, slot: &[u8]) {\n\
                 let req = decode_request(slot);\n\
                 let id = m.counter_id(\"srpc.calls\", &[(\"payload\", &req.name)]);\n\
                 m.counter_bump(id, 1);\n\
             }\n"
            .into(),
        ),
    ]);
    // Two hops of one leak: the resolution takes the text, and the id it
    // returns carries the taint into the update.
    assert_eq!(r.findings.len(), 2, "resolve + update:\n{}", r.render());
    assert!(r.findings.iter().all(|f| f.rule == "secret-taint"));
    assert!(r
        .findings
        .iter()
        .all(|f| f.path == "crates/core/src/srpc.rs"));
    let (resolve, update) = (&r.findings[0], &r.findings[1]);
    assert_eq!((resolve.line, update.line), (4, 5));
    assert!(
        resolve.message.contains("MetricsRegistry::counter_id"),
        "{}",
        resolve.message
    );
    assert!(
        update.message.contains("MetricsRegistry::counter_bump"),
        "{}",
        update.message
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_core::ring::decode_request`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`req`")), "{notes:?}");
    assert!(
        notes.last().unwrap().contains("sink `counter_id`"),
        "{notes:?}"
    );
    assert!(
        chain_notes(&r, 1).iter().any(|n| n.contains("`id`")),
        "the handle carries the taint"
    );
}

#[test]
fn drain_reporting_under_the_decoded_name_trips_and_under_the_enqueue_handle_does_not() {
    // The sRPC drain in miniature. Reporting under the name decoded from
    // the ring slot puts slot bytes into the telemetry; reporting under the
    // handle the enqueue resolved from the caller's own name does not.
    let surface = || {
        vec![
            (
                "crates/core/src/ring.rs".to_string(),
                "pub fn view_slot(slot: &[u8]) -> String { format!(\"{}\", slot.len()) }\n"
                    .to_string(),
            ),
            (
                "crates/core/src/stream_obs.rs".to_string(),
                "pub struct StreamObs;\n\
                 impl StreamObs {\n\
                     pub fn enqueued(&mut self, mecall: &str) -> u32 { mecall.len() as u32 }\n\
                     pub fn drained(&mut self, call: u32) { let _ = call; }\n\
                 }\n"
                .to_string(),
            ),
        ]
    };
    let mut by_name = surface();
    by_name.push((
        "crates/core/src/transport.rs".into(),
        "use crate::stream_obs::StreamObs;\n\
         pub fn drain(obs: &mut StreamObs, slot: &[u8]) {\n\
             let name = view_slot(slot);\n\
             let call = obs.enqueued(&name);\n\
             obs.drained(call);\n\
         }\n"
        .into(),
    ));
    let r = report_for(by_name);
    let hits: Vec<(&str, u32)> = r.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        hits,
        [("secret-taint", 4), ("secret-taint", 5)],
        "{}",
        r.render()
    );
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("secret source `cronus_core::ring::view_slot`"),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains("`name`")), "{notes:?}");

    let mut by_handle = surface();
    by_handle.push((
        "crates/core/src/transport.rs".into(),
        "use crate::stream_obs::StreamObs;\n\
         pub fn enqueue(obs: &mut StreamObs, mecall: &str) -> u32 { obs.enqueued(mecall) }\n\
         pub fn drain(obs: &mut StreamObs, call: u32, slot: &[u8]) -> usize {\n\
             let name = view_slot(slot);\n\
             obs.drained(call);\n\
             name.len()\n\
         }\n"
        .into(),
    ));
    let r = report_for(by_handle);
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn reachable_panic_in_dispatch_trips_panic_reachability_only() {
    let r = report_for(vec![(
        "crates/core/src/system.rs".into(),
        "pub struct CronusSystem { table: [u64; 2] }\n\
         impl CronusSystem {\n\
             pub fn call(&mut self, idx: usize) -> u64 { dispatch(&self.table, idx) }\n\
         }\n\
         fn dispatch(table: &[u64; 2], idx: usize) -> u64 { table[idx] }\n"
            .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!(f.rule, "panic-reachability");
    assert_eq!(f.path, "crates/core/src/system.rs");
    assert_eq!(f.line, 5);
    let notes = chain_notes(&r, 0);
    assert!(
        notes[0].contains("entry point `cronus_core::system::CronusSystem::call`"),
        "{notes:?}"
    );
    assert!(
        notes.last().unwrap().contains("slice/array index here"),
        "{notes:?}"
    );
}

#[test]
fn keyword_before_array_literal_is_not_indexing_but_a_real_index_still_trips() {
    // `in [1, 2]` opens an array literal; only `table[idx]` indexes.
    let r = report_for(vec![(
        "crates/core/src/system.rs".into(),
        "pub struct CronusSystem { table: [u64; 2] }\n\
         impl CronusSystem {\n\
             pub fn call(&mut self, idx: usize) -> u64 {\n\
                 let mut sum = 0;\n\
                 for x in [1, 2] { sum += x; }\n\
                 sum + self.table[idx]\n\
             }\n\
         }\n"
        .into(),
    )]);
    assert_eq!(r.findings.len(), 1, "exactly one finding:\n{}", r.render());
    let f = &r.findings[0];
    assert_eq!((f.rule, f.line), ("panic-reachability", 6));
    assert!(
        chain_notes(&r, 0)
            .last()
            .unwrap()
            .contains("slice/array index here"),
        "{}",
        r.render()
    );
}

#[test]
fn hashed_state_table_in_a_trusted_crate_trips_hash_order_only() {
    let r = report_for(vec![(
        "crates/spm/src/spm.rs".into(),
        "use std::collections::HashMap;\n\
         pub struct Spm { partitions: HashMap<u32, u64> }\n\
         impl Spm {\n\
             pub fn ids(&self) -> Vec<u32> { self.partitions.keys().copied().collect() }\n\
         }\n"
        .into(),
    )]);
    let hits: Vec<(&str, u32)> = r.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        hits,
        [("hash-order", 1), ("hash-order", 2)],
        "the import and the field, nothing else:\n{}",
        r.render()
    );
    assert!(r.findings[1].message.contains("BTreeMap"), "{}", r.render());
}

// ---- good fixtures: sanctioned patterns stay clean -------------------------

#[test]
fn digest_then_record_and_public_declassifier_are_clean() {
    let r = report_for(vec![(
        "crates/spm/src/monitor.rs".into(),
        "use cronus_crypto::schnorr::KeyPair;\n\
         use cronus_crypto::measure;\n\
         use cronus_obs::recorder::FlightRecorder;\n\
         pub fn boot_monitor(rec: &FlightRecorder, seed_bytes: &[u8]) {\n\
             let platform = KeyPair::from_seed(\"fused-rom\");\n\
             let digest = measure(\"platform-key\", seed_bytes);\n\
             let pk = platform.public();\n\
             rec.begin_span(format!(\"boot digest={digest} pk={pk}\"));\n\
         }\n"
        .into(),
    )]);
    assert!(
        r.passed(),
        "FORENSICS.md redaction contract (digest/public only) is clean:\n{}",
        r.render()
    );
}

#[test]
fn mac_under_an_absorbed_chain_key_into_the_ledger_is_clean() {
    let r = report_for(vec![
        hmac_key_file(),
        (
            "crates/spm/src/monitor.rs".into(),
            "use cronus_crypto::hmac::HmacKey;\n\
             use cronus_forensics::ledger::{chain_key, Ledger};\n\
             pub fn seal(l: &Ledger, digest: &[u8]) {\n\
                 let key = HmacKey::new(&chain_key(\"seed\", 1));\n\
                 let tag = key.mac(digest);\n\
                 l.append(1, format!(\"mac={tag}\"));\n\
             }\n"
            .into(),
        ),
    ]);
    assert!(
        r.passed(),
        "a MAC is public even when its key is not:\n{}",
        r.render()
    );
}

#[test]
fn ordered_tables_test_code_and_exempt_files_pass_hash_order() {
    let hashed = "use std::collections::HashMap;\n\
                  pub struct Table { entries: HashMap<u64, u64> }\n";
    let r = report_for(vec![
        (
            "crates/spm/src/spm.rs".into(),
            "use std::collections::BTreeMap;\n\
             pub struct Spm { partitions: BTreeMap<u32, u64> }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::collections::HashSet;\n\
                 #[test]\n\
                 fn t() { assert!(HashSet::<u32>::new().is_empty()); }\n\
             }\n"
            .into(),
        ),
        // Page-granular tables: the one file the exemption table names.
        ("crates/sim/src/pagetable.rs".into(), hashed.into()),
        // Outside the four trusted crates the rule does not apply.
        ("crates/workloads/src/cache.rs".into(), hashed.into()),
    ]);
    assert!(
        r.passed(),
        "ordered, test-only, exempt and out-of-scope tables are clean:\n{}",
        r.render()
    );
}

#[test]
fn unreachable_panic_and_test_code_are_not_reported() {
    let r = report_for(vec![(
        "crates/core/src/system.rs".into(),
        "pub struct CronusSystem;\n\
         impl CronusSystem {\n\
             pub fn call(&mut self) -> u64 { 7 }\n\
         }\n\
         fn debug_helper(v: &[u64]) -> u64 { v[3] }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { assert!(super::debug_helper(&[0, 1, 2, 3]) == 3); }\n\
         }\n"
        .into(),
    )]);
    assert!(
        r.passed(),
        "panic sites outside the dispatch/trap cone stay quiet:\n{}",
        r.render()
    );
}

// ---- full-repo determinism -------------------------------------------------

#[test]
fn full_repo_report_is_byte_identical_across_runs() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = run(&SourceSet::load(root).expect("load"));
    let b = run(&SourceSet::load(root).expect("load"));
    assert!(a.files_scanned > 100, "whole repo scanned");
    assert_eq!(a.render(), b.render());
    assert_eq!(a.render_json(), b.render_json());
    // The gate is zero: no accepted list, so any finding fails tier-1.
    assert!(
        a.findings.is_empty(),
        "the repo must lint clean:\n{}",
        a.render()
    );
}
