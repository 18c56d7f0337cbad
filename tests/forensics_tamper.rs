//! Tamper-mutation tests for the security-event ledger.
//!
//! Each test builds a genuine ledger, exports it, applies exactly one
//! mutation an attacker with write access to the exported evidence might
//! attempt, and asserts the verifier pinpoints it — the exact record index
//! and a distinct [`VerifyError`] variant per mutation class.

use cronus::crypto::hmac_sha256;
use cronus::forensics::{
    chain_key, verify_chain, verify_export, Ledger, SecurityEvent, VerifyError,
};
use cronus::sim::SimNs;

const SEED: &str = "tamper-test-platform";

fn ns(v: u64) -> SimNs {
    SimNs::from_nanos(v)
}

/// A small but realistic ledger: two partition chains with paired
/// grant/accept and open/accept records, so the untampered export passes
/// the full verification including the causal checks.
fn build_ledger() -> Ledger {
    let ledger = Ledger::new(SEED);
    ledger.append(
        1,
        ns(10),
        SecurityEvent::DeviceEndorsed {
            device: 1,
            vendor: "arm".to_string(),
            rot_digest: cronus::crypto::measure("rot", b"cpu"),
        },
    );
    ledger.append(1, ns(20), SecurityEvent::EnclaveCreated { eid: 7 });
    ledger.append(
        1,
        ns(30),
        SecurityEvent::ShareGranted {
            share: 1,
            owner: 1,
            peer: 2,
            pages: 16,
        },
    );
    ledger.append(
        2,
        ns(30),
        SecurityEvent::ShareAccepted {
            share: 1,
            owner: 1,
            peer: 2,
        },
    );
    ledger.append(
        1,
        ns(40),
        SecurityEvent::StreamOpened {
            stream: 1,
            caller: 1,
            callee: 2,
        },
    );
    ledger.append(
        2,
        ns(40),
        SecurityEvent::StreamAccepted {
            stream: 1,
            caller: 1,
            callee: 2,
        },
    );
    ledger.append(2, ns(50), SecurityEvent::StreamClosed { stream: 1 });
    ledger
}

#[test]
fn untampered_export_verifies() {
    let export = build_ledger().export();
    verify_export(&export).expect("genuine ledger must verify");
}

#[test]
fn bit_flip_in_record_payload_is_caught_at_exact_index() {
    let export = build_ledger().export();
    let chains: Vec<u32> = export.chains.keys().copied().collect();
    let mut chain1 = export.chains[&1].clone();
    // Flip the grant's page count — record #2 on chain 1. The stored MAC
    // no longer covers the recomputed digest.
    match &mut chain1.records[2].event {
        SecurityEvent::ShareGranted { pages, .. } => *pages ^= 1,
        other => panic!("expected the grant at index 2, found {other:?}"),
    }
    assert_eq!(
        verify_chain(SEED, &chain1, &chains),
        Err(VerifyError::MacMismatch { chain: 1, index: 2 })
    );
}

#[test]
fn truncated_tail_is_caught() {
    let export = build_ledger().export();
    let chains: Vec<u32> = export.chains.keys().copied().collect();
    let mut chain2 = export.chains[&2].clone();
    // Drop the last record (the stream close) as if the evidence of the
    // final action was suppressed.
    chain2.records.pop();
    assert_eq!(
        verify_chain(SEED, &chain2, &chains),
        Err(VerifyError::TruncatedTail {
            chain: 2,
            have: 2,
            want: 3,
        })
    );
}

#[test]
fn reordered_records_are_caught_at_exact_index() {
    let export = build_ledger().export();
    let chains: Vec<u32> = export.chains.keys().copied().collect();
    let mut chain1 = export.chains[&1].clone();
    chain1.records.swap(1, 2);
    assert_eq!(
        verify_chain(SEED, &chain1, &chains),
        Err(VerifyError::OutOfOrder {
            chain: 1,
            index: 2,
            expected: 1,
        })
    );
}

#[test]
fn mac_forged_with_wrong_partition_key_is_attributed() {
    let export = build_ledger().export();
    let chains: Vec<u32> = export.chains.keys().copied().collect();
    let mut chain1 = export.chains[&1].clone();
    // An attacker holding partition 2's chain key re-MACs a chain-1 record
    // after mutating it. The digest chain still links (prev fields are
    // intact and the record is re-MACed), but the key is the wrong one —
    // and the verifier names whose key was actually used.
    let wrong_key = chain_key(SEED, 2);
    let digest = chain1.records[1].digest();
    chain1.records[1].mac = hmac_sha256(&wrong_key, digest.as_bytes());
    assert_eq!(
        verify_chain(SEED, &chain1, &chains),
        Err(VerifyError::MacForged {
            chain: 1,
            index: 1,
            actual_chain: 2,
        })
    );
}

#[test]
fn tamper_errors_render_with_exact_indices() {
    // The report strings carry the index so an operator can jump straight
    // to the offending record.
    let e = VerifyError::MacMismatch { chain: 1, index: 2 };
    assert!(e.to_string().contains('2'), "{e}");
    let e = VerifyError::TruncatedTail {
        chain: 2,
        have: 2,
        want: 3,
    };
    assert!(e.to_string().contains("truncated"), "{e}");
}

/// One scripted lifecycle — boot, create, open, four calls, fail, trap,
/// recover, respawn, reopen, echo — must ledger the same bytes in every
/// version of the hashing code: each chain's head digest and last MAC are
/// pinned as hex. A change that alters the record rendering, the chain
/// digest's framing or the MAC construction moves at least one of them.
#[test]
fn ledger_bytes_are_pinned() {
    use std::collections::BTreeMap;

    use cronus::core::{Actor, CronusSystem, SrpcError};
    use cronus::devices::DeviceKind;
    use cronus::forensics::MONITOR_CHAIN;
    use cronus::mos::manifest::{Manifest, McallDecl};
    use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

    let gpu_partition = |id| {
        PartitionSpec::new(
            id,
            b"cuda-mos-v3",
            "v3",
            DeviceSpec::Gpu {
                memory: 1 << 26,
                sms: 46,
            },
        )
    };
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            gpu_partition(2),
        ],
        ..Default::default()
    });
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu enclave");
    let spawn = |sys: &mut CronusSystem| {
        let gpu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                Manifest::new(DeviceKind::Gpu)
                    .with_mecall(McallDecl::asynchronous("echo"))
                    .with_mecall(McallDecl::synchronous("echo_sync"))
                    .with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .expect("gpu enclave");
        for name in ["echo", "echo_sync"] {
            sys.register_handler(gpu, name, Box::new(|_, p| Ok((p.to_vec(), ns(100)))));
        }
        gpu
    };
    let gpu = spawn(&mut sys);
    let stream = sys.stream(cpu, gpu).open().expect("stream");
    for i in 0..4u8 {
        sys.call(stream, "echo")
            .payload(&[i; 32])
            .start()
            .expect("call");
    }
    sys.sync(stream).expect("sync");
    sys.inject_partition_failure(gpu.asid).expect("fail");
    let trapped = sys.call(stream, "echo_sync").payload(b"ping").sync();
    assert!(matches!(trapped, Err(SrpcError::PeerFailed { .. })));
    sys.recover_partition(gpu.asid).expect("recover");
    let gpu = spawn(&mut sys);
    let stream = sys.stream(cpu, gpu).reopen(stream).expect("reopen");
    let echoed = sys.call(stream, "echo_sync").payload(b"pong").sync();
    assert_eq!(echoed.expect("echo"), b"pong");

    let export = sys.spm().ledger().export();
    verify_export(&export).expect("the scripted ledger verifies");
    let pinned: Vec<(u32, u64, String, String)> = export
        .chains
        .values()
        .map(|c| {
            let last = c.records.last().expect("a chain holds records");
            (c.chain, c.next_index, c.head.to_hex(), last.mac.to_hex())
        })
        .collect();
    // (chain, records, head digest, last record's MAC).
    let expected = [
        (
            1,
            11,
            "65e7dfdfc9effdd2fc8b5e051789d7a3848ab33021be6bc6d676d900b6eafdf6",
            "628db34bd25c5b68ff5e583f80a82805d7288742ee9bc92b21632b64f7c004f9",
        ),
        (
            2,
            15,
            "7b0d0f5a4f92951e8ce3912318eb59e9ceb196e004bd669e96ce3e44a7a949e7",
            "46b91631ef7c1b9c451cf8ca87cff5ff205f751a483de58dbca7f73c1191c721",
        ),
        (
            MONITOR_CHAIN,
            3,
            "35dbf9b2f4690308a6bf462c940e8632b25d02545233dbba394cf7bba03c2470",
            "2b7eaf60d086c530217ab94ada1be09a1042dd98128efbd5841639f653bf4577",
        ),
    ]
    .map(|(chain, n, head, mac)| (chain, n, head.to_string(), mac.to_string()));
    assert_eq!(pinned, expected);
}
