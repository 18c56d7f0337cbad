//! The monitor-side ledger verifier.
//!
//! Three layers of checking, each with typed errors that name the exact
//! record where verification failed:
//!
//! 1. **Chain integrity** ([`verify_chain`]) — per-record index order, hash
//!    linkage, MAC under the chain's own key (with forgery attribution when
//!    a record verifies under a *different* chain's key), eviction
//!    checkpoints, and tail truncation against the trusted head.
//! 2. **Causal consistency** ([`verify_causal`]) — cross-chain pairing:
//!    every `share-accepted` pairs with an earlier `share-granted` on the
//!    owner's chain, every `stream-accepted` with an earlier `stream-opened`
//!    on the caller's chain.
//! 3. **Completeness** ([`verify_completeness`]) — ledger event counts agree
//!    with the flight recorder's counters, so a layer that silently stops
//!    ledgering is caught even though its chain still verifies.

use std::collections::BTreeMap;
use std::fmt;

use cronus_crypto::{Digest, HmacKey};

use crate::ledger::{chain_key, ChainExport, LedgerExport};
use crate::record::{chain_name, LedgerRecord, SecurityEvent};

/// A verification failure, carrying the chain and exact record index at
/// which the check failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Record indices are not consecutive (a record was dropped from the
    /// middle, duplicated, or two records were reordered).
    OutOfOrder {
        /// Chain the failure is on.
        chain: u32,
        /// Index of the offending record (its stored `index` field).
        index: u64,
        /// Index the verifier expected at this position.
        expected: u64,
    },
    /// A record's `prev` does not equal the previous record's digest: the
    /// previous record's bytes were altered, or the link itself was.
    ChainBroken {
        /// Chain the failure is on.
        chain: u32,
        /// Index of the record whose `prev` failed to match.
        index: u64,
    },
    /// A record's MAC does not verify under the chain's key (and under no
    /// other chain's key either): the record or its MAC was corrupted.
    MacMismatch {
        /// Chain the failure is on.
        chain: u32,
        /// Index of the offending record.
        index: u64,
    },
    /// A record's MAC verifies under a *different* chain's key: someone
    /// MACed a record with a key they should not hold (or grafted a record
    /// across chains).
    MacForged {
        /// Chain the record claims to be on.
        chain: u32,
        /// Index of the offending record.
        index: u64,
        /// The chain whose key actually produced the MAC.
        actual_chain: u32,
    },
    /// The chain ends early: the stored head/length metadata promises more
    /// records than survive (the tail was truncated).
    TruncatedTail {
        /// Chain the failure is on.
        chain: u32,
        /// Records the chain actually holds up to.
        have: u64,
        /// Records the trusted metadata promises.
        want: u64,
    },
    /// A chain evicted records but its surviving window carries no
    /// checkpoint describing the evicted prefix.
    MissingCheckpoint {
        /// Chain the failure is on.
        chain: u32,
        /// Records the chain claims to have evicted.
        evicted: u64,
    },
    /// The first surviving record does not line up with any checkpoint
    /// (wrong index or wrong prefix digest after eviction).
    CheckpointMismatch {
        /// Chain the failure is on.
        chain: u32,
        /// Index of the first surviving record.
        index: u64,
    },
    /// A `share-accepted` record has no earlier `share-granted` partner on
    /// the owner's chain.
    UnpairedShare {
        /// Chain the acceptance was found on.
        chain: u32,
        /// Index of the acceptance record.
        index: u64,
        /// The share handle.
        share: u64,
    },
    /// A `stream-accepted` record has no earlier `stream-opened` partner on
    /// the caller's chain.
    UnpairedStream {
        /// Chain the acceptance was found on.
        chain: u32,
        /// Index of the acceptance record.
        index: u64,
        /// The stream id.
        stream: u64,
    },
    /// A ledger event count disagrees with the flight recorder's counter:
    /// some layer performed `counter` transitions without ledgering them
    /// (or ledgered phantom ones).
    Incomplete {
        /// The flight-recorder counter name.
        counter: &'static str,
        /// Events of the paired kind found in the ledger.
        ledgered: u64,
        /// The counter's recorded total.
        counted: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::OutOfOrder {
                chain,
                index,
                expected,
            } => write!(
                f,
                "{}: record #{index} out of order (expected #{expected})",
                chain_name(*chain)
            ),
            VerifyError::ChainBroken { chain, index } => write!(
                f,
                "{}: chain broken at record #{index} (prev digest mismatch)",
                chain_name(*chain)
            ),
            VerifyError::MacMismatch { chain, index } => write!(
                f,
                "{}: mac mismatch at record #{index}",
                chain_name(*chain)
            ),
            VerifyError::MacForged {
                chain,
                index,
                actual_chain,
            } => write!(
                f,
                "{}: record #{index} mac forged with {}'s key",
                chain_name(*chain),
                chain_name(*actual_chain)
            ),
            VerifyError::TruncatedTail { chain, have, want } => write!(
                f,
                "{}: tail truncated (have {have} records, metadata promises {want})",
                chain_name(*chain)
            ),
            VerifyError::MissingCheckpoint { chain, evicted } => write!(
                f,
                "{}: {evicted} records evicted but no checkpoint survives",
                chain_name(*chain)
            ),
            VerifyError::CheckpointMismatch { chain, index } => write!(
                f,
                "{}: surviving record #{index} matches no checkpoint",
                chain_name(*chain)
            ),
            VerifyError::UnpairedShare {
                chain,
                index,
                share,
            } => write!(
                f,
                "{}: share-accepted #{index} (share {share}) has no share-granted partner",
                chain_name(*chain)
            ),
            VerifyError::UnpairedStream {
                chain,
                index,
                stream,
            } => write!(
                f,
                "{}: stream-accepted #{index} (stream {stream}) has no stream-opened partner",
                chain_name(*chain)
            ),
            VerifyError::Incomplete {
                counter,
                ledgered,
                counted,
            } => write!(
                f,
                "incomplete: ledger has {ledgered} events for counter {counter} which recorded {counted}"
            ),
        }
    }
}

/// Verifies one chain's integrity. Single pass, first failure wins; the
/// per-record check order (index → linkage → MAC) is what gives each tamper
/// class its distinct error variant.
pub fn verify_chain(
    seed: &str,
    export: &ChainExport,
    all_chains: &[u32],
) -> Result<(), VerifyError> {
    let key = HmacKey::new(&chain_key(seed, export.chain));
    let mut expected_index = export.evicted;
    let mut prev = if export.evicted == 0 {
        Digest::ZERO
    } else {
        // Eviction happened: the first surviving record's `prev` must match
        // a checkpoint; validated below once indices/links check out.
        export
            .records
            .first()
            .map(|r| r.prev)
            .unwrap_or(Digest::ZERO)
    };
    for rec in &export.records {
        if rec.index != expected_index {
            return Err(VerifyError::OutOfOrder {
                chain: export.chain,
                index: rec.index,
                expected: expected_index,
            });
        }
        if rec.prev != prev {
            return Err(VerifyError::ChainBroken {
                chain: export.chain,
                index: rec.index,
            });
        }
        let digest = rec.digest();
        if rec.mac != LedgerRecord::mac_for(&key, &digest) {
            // Distinguish forgery (valid MAC under another chain's key)
            // from plain corruption. Only a failing record gets here, so
            // the other chains' keys are absorbed on demand.
            for other in all_chains {
                if *other == export.chain {
                    continue;
                }
                let other_key = HmacKey::new(&chain_key(seed, *other));
                if rec.mac == LedgerRecord::mac_for(&other_key, &digest) {
                    return Err(VerifyError::MacForged {
                        chain: export.chain,
                        index: rec.index,
                        actual_chain: *other,
                    });
                }
            }
            return Err(VerifyError::MacMismatch {
                chain: export.chain,
                index: rec.index,
            });
        }
        prev = digest;
        expected_index += 1;
    }
    if expected_index != export.next_index || prev != export.head {
        return Err(VerifyError::TruncatedTail {
            chain: export.chain,
            have: expected_index,
            want: export.next_index,
        });
    }
    if export.evicted > 0 {
        let Some(first) = export.records.first() else {
            return Err(VerifyError::MissingCheckpoint {
                chain: export.chain,
                evicted: export.evicted,
            });
        };
        // Any surviving checkpoint that names exactly this prefix anchors
        // the window (repeated evictions leave several checkpoints; the one
        // matching the current first record is the anchor).
        let anchored = export.records.iter().any(|r| {
            matches!(
                r.event,
                SecurityEvent::Checkpoint {
                    evicted_total,
                    prefix_digest,
                } if evicted_total == first.index && prefix_digest == first.prev
            )
        });
        if !anchored {
            let has_any = export
                .records
                .iter()
                .any(|r| matches!(r.event, SecurityEvent::Checkpoint { .. }));
            return Err(if has_any {
                VerifyError::CheckpointMismatch {
                    chain: export.chain,
                    index: first.index,
                }
            } else {
                VerifyError::MissingCheckpoint {
                    chain: export.chain,
                    evicted: export.evicted,
                }
            });
        }
    }
    Ok(())
}

/// Verifies cross-chain causal consistency: acceptances pair with earlier
/// grants/opens on the counterpart chain. Chains that evicted records are
/// skipped as grant sources may be gone (documented in `FORENSICS.md`).
pub fn verify_causal(export: &LedgerExport) -> Result<(), VerifyError> {
    let evicted_anywhere = export.chains.values().any(|c| c.evicted > 0);
    if evicted_anywhere {
        return Ok(());
    }
    // (owner chain, share) -> granted, (caller chain, stream) -> opened,
    // each tagged with the global seq so "earlier" is well defined.
    let mut grants: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut opens: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for rec in export.records_by_seq() {
        match &rec.event {
            SecurityEvent::ShareGranted { share, owner, .. } => {
                grants.insert((*owner, *share), rec.seq);
            }
            SecurityEvent::ShareAccepted { share, owner, .. } => {
                match grants.get(&(*owner, *share)) {
                    Some(granted_seq) if *granted_seq < rec.seq => {}
                    _ => {
                        return Err(VerifyError::UnpairedShare {
                            chain: rec.chain,
                            index: rec.index,
                            share: *share,
                        })
                    }
                }
            }
            SecurityEvent::StreamOpened { stream, caller, .. } => {
                opens.insert((*caller, *stream), rec.seq);
            }
            SecurityEvent::StreamAccepted { stream, caller, .. } => {
                match opens.get(&(*caller, *stream)) {
                    Some(open_seq) if *open_seq < rec.seq => {}
                    _ => {
                        return Err(VerifyError::UnpairedStream {
                            chain: rec.chain,
                            index: rec.index,
                            stream: *stream,
                        })
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Counter pairings for the completeness check: ledger event kind ↔ flight
/// recorder counter. Every pair must agree exactly.
pub const COMPLETENESS_PAIRS: &[(&str, &str)] = &[
    ("stream-opened", "srpc.streams_opened"),
    ("stream-reopened", "srpc.streams_reopened"),
    ("fault-injected", "chaos.faults_fired"),
    ("trap-handled", "failure.signals"),
    ("partition-failed", "partition.failed"),
];

/// Verifies completeness against the flight recorder: for each pairing in
/// [`COMPLETENESS_PAIRS`] the ledger's event count must equal the counter
/// total reported by the caller (who reads it off the recorder).
pub fn verify_completeness(
    export: &LedgerExport,
    counter_total: impl Fn(&str) -> u64,
) -> Result<(), VerifyError> {
    if export.chains.values().any(|c| c.evicted > 0) {
        // Eviction drops events but not counters; counts can no longer
        // agree, so the check degrades to chain integrity only.
        return Ok(());
    }
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for chain in export.chains.values() {
        for rec in &chain.records {
            *by_kind.entry(rec.event.kind()).or_insert(0) += 1;
        }
    }
    for (kind, counter) in COMPLETENESS_PAIRS {
        let ledgered = by_kind.get(kind).copied().unwrap_or(0);
        let counted = counter_total(counter);
        if ledgered != counted {
            return Err(VerifyError::Incomplete {
                counter,
                ledgered,
                counted,
            });
        }
    }
    Ok(())
}

/// Runs chain integrity on every chain, then causal consistency. (Use
/// [`verify_completeness`] separately where a flight recorder is in scope.)
pub fn verify_export(export: &LedgerExport) -> Result<(), VerifyError> {
    let all: Vec<u32> = export.chains.keys().copied().collect();
    for chain in export.chains.values() {
        verify_chain(&export.seed, chain, &all)?;
    }
    verify_causal(export)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use cronus_sim::SimNs;

    fn sample_ledger() -> Ledger {
        let ledger = Ledger::new("seed");
        ledger.append(
            1,
            SimNs::from_nanos(1),
            SecurityEvent::ShareGranted {
                share: 1,
                owner: 1,
                peer: 2,
                pages: 4,
            },
        );
        ledger.append(
            2,
            SimNs::from_nanos(2),
            SecurityEvent::ShareAccepted {
                share: 1,
                owner: 1,
                peer: 2,
            },
        );
        ledger.append(
            1,
            SimNs::from_nanos(3),
            SecurityEvent::StreamOpened {
                stream: 9,
                caller: 1,
                callee: 2,
            },
        );
        ledger.append(
            2,
            SimNs::from_nanos(4),
            SecurityEvent::StreamAccepted {
                stream: 9,
                caller: 1,
                callee: 2,
            },
        );
        ledger
    }

    #[test]
    fn clean_export_verifies() {
        assert_eq!(verify_export(&sample_ledger().export()), Ok(()));
    }

    #[test]
    fn unpaired_acceptance_is_flagged() {
        let ledger = Ledger::new("seed");
        ledger.append(
            2,
            SimNs::from_nanos(1),
            SecurityEvent::ShareAccepted {
                share: 5,
                owner: 1,
                peer: 2,
            },
        );
        assert_eq!(
            verify_export(&ledger.export()),
            Err(VerifyError::UnpairedShare {
                chain: 2,
                index: 0,
                share: 5
            })
        );
    }

    #[test]
    fn completeness_checks_counter_pairs() {
        let export = sample_ledger().export();
        // One stream-opened is in the ledger; a matching counter passes.
        assert_eq!(
            verify_completeness(&export, |name| u64::from(name == "srpc.streams_opened")),
            Ok(())
        );
        // A recorder that saw two opens exposes the gap.
        let r = verify_completeness(
            &export,
            |name| {
                if name == "srpc.streams_opened" {
                    2
                } else {
                    0
                }
            },
        );
        assert_eq!(
            r,
            Err(VerifyError::Incomplete {
                counter: "srpc.streams_opened",
                ledgered: 1,
                counted: 2
            })
        );
    }

    #[test]
    fn post_eviction_chain_still_verifies() {
        let ledger = Ledger::with_capacity("seed", 8);
        for i in 0..50 {
            ledger.append(
                1,
                SimNs::from_nanos(i),
                SecurityEvent::StreamClosed { stream: i },
            );
        }
        let export = ledger.export();
        assert!(export.chains[&1].evicted > 0);
        assert_eq!(verify_export(&export), Ok(()));
    }

    #[test]
    fn display_names_chain_and_index() {
        let e = VerifyError::ChainBroken { chain: 2, index: 7 };
        assert_eq!(
            e.to_string(),
            "p2: chain broken at record #7 (prev digest mismatch)"
        );
    }
}
