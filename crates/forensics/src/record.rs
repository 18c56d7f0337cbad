//! Typed security-event records and their canonical byte encoding.
//!
//! Every record carries a canonical rendering (`SecurityEvent`'s `Display`)
//! that is stable across runs and versions of the pretty-printer: the hash
//! chain and the per-partition HMAC are computed over these bytes, so any
//! change to a stored record — a flipped bit, a swapped field, a reordered
//! entry — changes the digest and is caught by the verifier
//! (see [`crate::verify`]).

use std::fmt;

use cronus_crypto::{Digest, HmacKey, Sha256};
use cronus_sim::SimNs;

/// Chain id of the monitor/SPM itself (events that belong to no single
/// partition: device-tree attestation, TZASC/TZPC lockdown, fault
/// injections, stall-watchdog findings).
pub const MONITOR_CHAIN: u32 = u32::MAX;

/// Renders a chain id: partition chains as `p<asid>`, the monitor chain as
/// `monitor`.
pub fn chain_name(chain: u32) -> String {
    if chain == MONITOR_CHAIN {
        "monitor".to_string()
    } else {
        format!("p{chain}")
    }
}

/// One security-relevant transition, as appended to a partition's ledger
/// chain. Fields hold raw ids (`u32` asids, `u64` handles) rather than the
/// originating layers' types so the ledger crate stays below `spm`/`core`
/// in the dependency order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SecurityEvent {
    /// Secure boot validated and measured the device tree.
    DevtreeAttested {
        /// `measure("devtree", canonical bytes)`.
        digest: Digest,
    },
    /// Secure boot configured the TZASC's secure regions.
    TzascConfigured {
        /// Digest of the canonical region list.
        digest: Digest,
    },
    /// Secure boot latched the TZPC device-to-world assignment.
    TzpcLockdown {
        /// Digest of the canonical assignment list.
        digest: Digest,
    },
    /// A device vendor endorsed a partition's device ROM key.
    DeviceEndorsed {
        /// Raw device id.
        device: u32,
        /// Vendor name.
        vendor: String,
        /// Digest of the device's root-of-trust public key.
        rot_digest: Digest,
    },
    /// An attestation measurement was produced (report signing, local
    /// attestation during stream open).
    AttestMeasurement {
        /// What was measured (`report p2`, `enclave e2.1`, ...).
        subject: String,
        /// The measurement.
        digest: Digest,
    },
    /// An owner completed the DH key exchange with a new enclave.
    KeyExchange {
        /// The enclave's raw eid.
        eid: u32,
        /// The enclave-side DH public share (public by definition; the
        /// agreed secret is never ledgered).
        dh_public: u64,
    },
    /// An enclave was created.
    EnclaveCreated {
        /// Raw eid.
        eid: u32,
    },
    /// An enclave was destroyed.
    EnclaveDestroyed {
        /// Raw eid.
        eid: u32,
    },
    /// The SPM granted a shared-memory region (owner side).
    ShareGranted {
        /// Raw share handle.
        share: u64,
        /// Owner partition.
        owner: u32,
        /// Peer partition.
        peer: u32,
        /// Pages in the region.
        pages: u64,
    },
    /// The peer partition accepted the same region (peer side; must pair
    /// with a [`SecurityEvent::ShareGranted`] on the owner chain).
    ShareAccepted {
        /// Raw share handle.
        share: u64,
        /// Owner partition.
        owner: u32,
        /// Peer partition.
        peer: u32,
    },
    /// Failover step 1 poisoned a share (survivor's mappings invalidated).
    SharePoisoned {
        /// Raw share handle.
        share: u64,
        /// The surviving partition.
        survivor: u32,
    },
    /// A share's pages were scrubbed and returned to the allocator.
    ShareReclaimed {
        /// Raw share handle.
        share: u64,
    },
    /// An sRPC stream was opened (caller side).
    StreamOpened {
        /// Raw stream id.
        stream: u64,
        /// Caller partition.
        caller: u32,
        /// Callee partition.
        callee: u32,
    },
    /// The callee partition accepted the stream (must pair with a
    /// [`SecurityEvent::StreamOpened`] on the caller chain).
    StreamAccepted {
        /// Raw stream id.
        stream: u64,
        /// Caller partition.
        caller: u32,
        /// Callee partition.
        callee: u32,
    },
    /// A stream was closed in an orderly fashion.
    StreamClosed {
        /// Raw stream id.
        stream: u64,
    },
    /// A stream was quarantined after a peer failure.
    StreamQuarantined {
        /// Raw stream id.
        stream: u64,
        /// The detection channel that surfaced the failure.
        channel: &'static str,
    },
    /// A quarantined stream was replaced by a fresh one.
    StreamReopened {
        /// The discarded stream.
        old: u64,
        /// Its replacement.
        new: u64,
    },
    /// The chaos injector fired an armed fault.
    FaultInjected {
        /// Pipeline phase name.
        phase: &'static str,
        /// Fault action name.
        action: &'static str,
        /// The stream it fired on.
        stream: u64,
    },
    /// The SPM's proactive sweep detected a failed partition.
    FailureDetected {
        /// The failed partition.
        asid: u32,
    },
    /// Failover step 1 (proceed) ran for a partition.
    PartitionFailed {
        /// The failed partition.
        asid: u32,
        /// Stage-2/SMMU entries invalidated.
        invalidated: u64,
    },
    /// Failover step 3: a surviving enclave trapped on poisoned memory and
    /// received the failure signal.
    TrapHandled {
        /// The surviving partition.
        survivor: u32,
        /// The faulting physical page.
        ppn: u64,
        /// Raw eid of the signalled enclave.
        signalled: u32,
    },
    /// One step of failover step 2 (`clear` or `reload`).
    RecoveryStep {
        /// The recovering partition.
        asid: u32,
        /// Step name.
        step: &'static str,
    },
    /// The stall watchdog flagged a wedged stream.
    StallDetected {
        /// The stalled stream.
        stream: u64,
        /// Requests enqueued but not executed.
        backlog: u64,
    },
    /// Eviction checkpoint: the ledger dropped its oldest records and
    /// recorded the chained digest of the evicted prefix so the remaining
    /// suffix still verifies (see `FORENSICS.md`).
    Checkpoint {
        /// Total records evicted from this chain so far.
        evicted_total: u64,
        /// Digest of the last evicted record (equals the next surviving
        /// record's `prev`).
        prefix_digest: Digest,
    },
}

impl SecurityEvent {
    /// Short stable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            SecurityEvent::DevtreeAttested { .. } => "devtree-attested",
            SecurityEvent::TzascConfigured { .. } => "tzasc-configured",
            SecurityEvent::TzpcLockdown { .. } => "tzpc-lockdown",
            SecurityEvent::DeviceEndorsed { .. } => "device-endorsed",
            SecurityEvent::AttestMeasurement { .. } => "attest-measurement",
            SecurityEvent::KeyExchange { .. } => "key-exchange",
            SecurityEvent::EnclaveCreated { .. } => "enclave-created",
            SecurityEvent::EnclaveDestroyed { .. } => "enclave-destroyed",
            SecurityEvent::ShareGranted { .. } => "share-granted",
            SecurityEvent::ShareAccepted { .. } => "share-accepted",
            SecurityEvent::SharePoisoned { .. } => "share-poisoned",
            SecurityEvent::ShareReclaimed { .. } => "share-reclaimed",
            SecurityEvent::StreamOpened { .. } => "stream-opened",
            SecurityEvent::StreamAccepted { .. } => "stream-accepted",
            SecurityEvent::StreamClosed { .. } => "stream-closed",
            SecurityEvent::StreamQuarantined { .. } => "stream-quarantined",
            SecurityEvent::StreamReopened { .. } => "stream-reopened",
            SecurityEvent::FaultInjected { .. } => "fault-injected",
            SecurityEvent::FailureDetected { .. } => "failure-detected",
            SecurityEvent::PartitionFailed { .. } => "partition-failed",
            SecurityEvent::TrapHandled { .. } => "trap-handled",
            SecurityEvent::RecoveryStep { .. } => "recovery-step",
            SecurityEvent::StallDetected { .. } => "stall-detected",
            SecurityEvent::Checkpoint { .. } => "checkpoint",
        }
    }

    /// Canonical field rendering: `kind key=value ...` with keys in a fixed
    /// order (the event's `Display`). This is what gets hashed, so it must
    /// stay stable.
    pub fn canonical(&self) -> String {
        self.to_string()
    }
}

/// The canonical rendering. [`LedgerRecord::digest`] writes it straight
/// into the chain hasher, so this is the only place an event is rendered.
impl fmt::Display for SecurityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityEvent::DevtreeAttested { digest } => {
                write!(f, "devtree-attested digest={digest}")
            }
            SecurityEvent::TzascConfigured { digest } => {
                write!(f, "tzasc-configured digest={digest}")
            }
            SecurityEvent::TzpcLockdown { digest } => {
                write!(f, "tzpc-lockdown digest={digest}")
            }
            SecurityEvent::DeviceEndorsed {
                device,
                vendor,
                rot_digest,
            } => write!(
                f,
                "device-endorsed device={device} vendor={vendor} rot={rot_digest}"
            ),
            SecurityEvent::AttestMeasurement { subject, digest } => {
                write!(f, "attest-measurement subject={subject} digest={digest}")
            }
            SecurityEvent::KeyExchange { eid, dh_public } => {
                write!(f, "key-exchange eid={eid} dh_public={dh_public}")
            }
            SecurityEvent::EnclaveCreated { eid } => write!(f, "enclave-created eid={eid}"),
            SecurityEvent::EnclaveDestroyed { eid } => write!(f, "enclave-destroyed eid={eid}"),
            SecurityEvent::ShareGranted {
                share,
                owner,
                peer,
                pages,
            } => write!(
                f,
                "share-granted share={share} owner={owner} peer={peer} pages={pages}"
            ),
            SecurityEvent::ShareAccepted { share, owner, peer } => {
                write!(f, "share-accepted share={share} owner={owner} peer={peer}")
            }
            SecurityEvent::SharePoisoned { share, survivor } => {
                write!(f, "share-poisoned share={share} survivor={survivor}")
            }
            SecurityEvent::ShareReclaimed { share } => write!(f, "share-reclaimed share={share}"),
            SecurityEvent::StreamOpened {
                stream,
                caller,
                callee,
            } => write!(
                f,
                "stream-opened stream={stream} caller={caller} callee={callee}"
            ),
            SecurityEvent::StreamAccepted {
                stream,
                caller,
                callee,
            } => write!(
                f,
                "stream-accepted stream={stream} caller={caller} callee={callee}"
            ),
            SecurityEvent::StreamClosed { stream } => write!(f, "stream-closed stream={stream}"),
            SecurityEvent::StreamQuarantined { stream, channel } => {
                write!(f, "stream-quarantined stream={stream} channel={channel}")
            }
            SecurityEvent::StreamReopened { old, new } => {
                write!(f, "stream-reopened old={old} new={new}")
            }
            SecurityEvent::FaultInjected {
                phase,
                action,
                stream,
            } => write!(
                f,
                "fault-injected phase={phase} action={action} stream={stream}"
            ),
            SecurityEvent::FailureDetected { asid } => write!(f, "failure-detected asid={asid}"),
            SecurityEvent::PartitionFailed { asid, invalidated } => {
                write!(f, "partition-failed asid={asid} invalidated={invalidated}")
            }
            SecurityEvent::TrapHandled {
                survivor,
                ppn,
                signalled,
            } => write!(
                f,
                "trap-handled survivor={survivor} ppn={ppn} signalled={signalled}"
            ),
            SecurityEvent::RecoveryStep { asid, step } => {
                write!(f, "recovery-step asid={asid} step={step}")
            }
            SecurityEvent::StallDetected { stream, backlog } => {
                write!(f, "stall-detected stream={stream} backlog={backlog}")
            }
            SecurityEvent::Checkpoint {
                evicted_total,
                prefix_digest,
            } => write!(
                f,
                "checkpoint evicted_total={evicted_total} prefix={prefix_digest}"
            ),
        }
    }
}

/// One chained ledger record.
///
/// The chain digest covers the canonical bytes of everything *except*
/// `mac`; `mac` is `HMAC(chain key, digest)`. The previous record's digest
/// is included via `prev`, so records form a hash chain per partition, and
/// `seq` is a global append sequence across all chains, giving the timeline
/// reconstructor a deterministic total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Position in this chain, monotonically increasing from 0 and *not*
    /// reset by eviction.
    pub index: u64,
    /// Global append sequence across all chains of this ledger.
    pub seq: u64,
    /// Owning chain (a partition's raw asid, or [`MONITOR_CHAIN`]).
    pub chain: u32,
    /// Virtual time of the event.
    pub at: SimNs,
    /// The event.
    pub event: SecurityEvent,
    /// Digest of the previous record on this chain ([`Digest::ZERO`] for a
    /// chain's genesis record).
    pub prev: Digest,
    /// `HMAC-SHA256(chain key, record digest)`.
    pub mac: Digest,
}

impl LedgerRecord {
    /// Canonical bytes covered by the chain digest (everything but `mac`).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_canonical(&mut out);
        out
    }

    /// `index|seq|chain|at|event`: the one rendering [`Self::canonical`]
    /// returns and [`Self::digest`] hashes.
    fn write_canonical(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write!(
            w,
            "{}|{}|{}|{}|{}",
            self.index,
            self.seq,
            self.chain,
            self.at.as_nanos(),
            self.event
        )
    }

    /// The record's chain digest,
    /// `measure_chained("ledger-record", prev, canonical)`: `prev` is mixed
    /// in, so the digest commits to the whole prefix. The canonical form is
    /// written straight into the hasher rather than built as a `String`.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledger-record\0");
        h.update(self.prev.as_bytes());
        // Writing into a hasher cannot fail.
        let _ = self.write_canonical(&mut h);
        h.finalize()
    }

    /// The MAC a record whose [`LedgerRecord::digest`] is `digest` carries
    /// under its chain's `key`. Takes the digest rather than the record so a
    /// caller that also needs the digest (to chain the next record) hashes
    /// the canonical form once; takes the absorbed key so a chain pays for
    /// its key's pad blocks once, not once per record.
    pub fn mac_for(key: &HmacKey, digest: &Digest) -> Digest {
        key.mac(digest.as_bytes())
    }

    /// One human-readable report line.
    pub fn line(&self) -> String {
        format!(
            "[{:>7}] #{:<4} seq={:<4} t={:<12} {}",
            chain_name(self.chain),
            self.index,
            self.seq,
            self.at.as_nanos(),
            self.event
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(event: SecurityEvent) -> LedgerRecord {
        LedgerRecord {
            index: 3,
            seq: 7,
            chain: 2,
            at: SimNs::from_nanos(1234),
            event,
            prev: Digest::ZERO,
            mac: Digest::ZERO,
        }
    }

    #[test]
    fn canonical_is_stable_and_distinguishes_fields() {
        let a = record(SecurityEvent::ShareGranted {
            share: 1,
            owner: 1,
            peer: 2,
            pages: 64,
        });
        let b = record(SecurityEvent::ShareGranted {
            share: 1,
            owner: 2,
            peer: 1,
            pages: 64,
        });
        assert_eq!(a.canonical(), a.canonical());
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_commits_to_prev() {
        let mut a = record(SecurityEvent::StreamClosed { stream: 9 });
        let d0 = a.digest();
        a.prev = cronus_crypto::measure("x", b"y");
        assert_ne!(a.digest(), d0);
    }

    #[test]
    fn every_kind_renders_with_its_tag() {
        let events = vec![
            SecurityEvent::DevtreeAttested {
                digest: Digest::ZERO,
            },
            SecurityEvent::KeyExchange {
                eid: 5,
                dh_public: 77,
            },
            SecurityEvent::RecoveryStep {
                asid: 2,
                step: "clear",
            },
            SecurityEvent::Checkpoint {
                evicted_total: 8,
                prefix_digest: Digest::ZERO,
            },
        ];
        for e in events {
            assert!(e.canonical().starts_with(e.kind()));
        }
    }

    #[test]
    fn chain_names() {
        assert_eq!(chain_name(2), "p2");
        assert_eq!(chain_name(MONITOR_CHAIN), "monitor");
    }
}
