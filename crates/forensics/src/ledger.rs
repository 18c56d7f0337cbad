//! The hash-chained, per-partition security-event ledger.
//!
//! A [`Ledger`] is a cloneable handle (the flight-recorder idiom: an
//! `Arc<Mutex<..>>` whose clones share state) holding one hash chain per
//! partition plus a monitor chain. Every append links the new record to the
//! chain head via [`cronus_crypto::measure_chained`] and MACs the digest
//! with the chain's key, derived from the platform seed and absorbed into an
//! [`HmacKey`] once per chain — so a compromised partition cannot rewrite
//! its own history without the monitor's verifier noticing (see
//! [`crate::verify`]).
//!
//! Eviction here must not break verification: when a chain reaches its capacity the oldest half is
//! dropped and a [`SecurityEvent::Checkpoint`] record is appended carrying
//! the chained digest of the evicted prefix, so the surviving suffix still
//! verifies end to end.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cronus_crypto::{measure, Digest, HmacKey};
use cronus_sim::SimNs;

use crate::blackbox::{BlackBox, StreamSnap};
use crate::record::{LedgerRecord, SecurityEvent};

/// Default per-chain record capacity. Generous: a whole chaos scenario
/// appends a few dozen records, so eviction only triggers on long-running
/// systems (or in tests that shrink the capacity).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Records kept in a black box's ledger tail.
pub const BLACKBOX_TAIL: usize = 8;

/// Derives a chain's MAC key from the platform seed. Public so the
/// monitor-side verifier (and tamper tests) can derive the same keys.
pub fn chain_key(seed: &str, chain: u32) -> [u8; 32] {
    *measure("ledger-chain-key", format!("{seed}|{chain}").as_bytes()).as_bytes()
}

/// One chain's live state.
#[derive(Debug)]
struct ChainInner {
    /// The chain key, pads absorbed once when the chain starts (its `Debug`
    /// is redacted, so a `{:?}` of the ledger shows no key material).
    key: HmacKey,
    records: Vec<LedgerRecord>,
    /// Digest of the last appended record ([`Digest::ZERO`] at genesis).
    head: Digest,
    /// Index the next record will get (== total ever appended).
    next_index: u64,
    /// Records evicted so far.
    evicted: u64,
}

/// Everything behind the [`Ledger`] handle.
#[derive(Debug)]
pub struct LedgerInner {
    seed: String,
    capacity: usize,
    next_seq: u64,
    chains: BTreeMap<u32, ChainInner>,
    blackboxes: Vec<BlackBox>,
}

/// Cloneable handle to the security-event ledger (clones share state).
#[derive(Clone, Debug)]
pub struct Ledger {
    inner: Arc<Mutex<LedgerInner>>,
}

/// A chain exported for verification: the surviving records plus the
/// trusted head/length metadata the monitor tracks out of band (which is
/// what makes tail truncation detectable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainExport {
    /// Chain id.
    pub chain: u32,
    /// Surviving records, oldest first.
    pub records: Vec<LedgerRecord>,
    /// Digest of the last appended record.
    pub head: Digest,
    /// Total records ever appended.
    pub next_index: u64,
    /// Records evicted so far.
    pub evicted: u64,
}

/// The whole ledger exported for verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerExport {
    /// The platform seed the chain keys derive from.
    pub seed: String,
    /// Every chain, keyed by chain id.
    pub chains: BTreeMap<u32, ChainExport>,
}

impl LedgerExport {
    /// Total surviving records across all chains.
    pub fn records(&self) -> u64 {
        self.chains.values().map(|c| c.records.len() as u64).sum()
    }

    /// All surviving records across chains, in global append order.
    pub fn records_by_seq(&self) -> Vec<&LedgerRecord> {
        let mut all: Vec<&LedgerRecord> = self
            .chains
            .values()
            .flat_map(|c| c.records.iter())
            .collect();
        all.sort_by_key(|r| r.seq);
        all
    }
}

impl Ledger {
    /// A ledger with the default capacity.
    pub fn new(seed: &str) -> Self {
        Ledger::with_capacity(seed, DEFAULT_CAPACITY)
    }

    /// A ledger with a custom per-chain capacity (clamped to ≥ 4 so the
    /// eviction checkpoint always fits).
    pub fn with_capacity(seed: &str, capacity: usize) -> Self {
        Ledger {
            inner: Arc::new(Mutex::new(LedgerInner {
                seed: seed.to_string(),
                capacity: capacity.max(4),
                next_seq: 0,
                chains: BTreeMap::new(),
                blackboxes: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LedgerInner> {
        // A poisoned mutex only means another thread panicked mid-append;
        // the ledger itself is still consistent enough to report.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends an event to a chain at virtual time `at`.
    pub fn append(&self, chain: u32, at: SimNs, event: SecurityEvent) {
        let mut inner = self.lock();
        inner.append(chain, at, event);
        inner.evict_if_full(chain, at);
    }

    /// Exports every chain for verification.
    pub fn export(&self) -> LedgerExport {
        let inner = self.lock();
        LedgerExport {
            seed: inner.seed.clone(),
            chains: inner
                .chains
                .iter()
                .map(|(id, c)| {
                    (
                        *id,
                        ChainExport {
                            chain: *id,
                            records: c.records.clone(),
                            head: c.head,
                            next_index: c.next_index,
                            evicted: c.evicted,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Surviving records across all chains (feeds the `ledger.records`
    /// gauge).
    pub fn records_total(&self) -> u64 {
        self.lock()
            .chains
            .values()
            .map(|c| c.records.len() as u64)
            .sum()
    }

    /// Evicted records across all chains (feeds the `ledger.evicted`
    /// gauge).
    pub fn evicted_total(&self) -> u64 {
        self.lock().chains.values().map(|c| c.evicted).sum()
    }

    /// The platform seed (the verifier derives chain keys from it).
    pub fn seed(&self) -> String {
        self.lock().seed.clone()
    }

    /// Rendered tail (last `n` report lines) of a chain.
    pub fn tail(&self, chain: u32, n: usize) -> Vec<String> {
        let inner = self.lock();
        inner
            .chains
            .get(&chain)
            .map(|c| {
                let skip = c.records.len().saturating_sub(n);
                c.records
                    .iter()
                    .skip(skip)
                    .map(LedgerRecord::line)
                    .collect()
            })
            .unwrap_or_default()
    }

    // ---- black boxes -------------------------------------------------------

    /// Captures a black-box skeleton at trap time (SPM side): trap facts
    /// plus the survivor chain's ledger tail. Stream snapshots and the
    /// mapping digest are annotated later by the layer that owns them.
    pub fn capture_blackbox(&self, at: SimNs, survivor: u32, ppn: u64, signalled: u32) -> u64 {
        let tail = self.tail(survivor, BLACKBOX_TAIL);
        let mut inner = self.lock();
        let seq = inner.blackboxes.len() as u64;
        inner.blackboxes.push(BlackBox {
            seq,
            at,
            survivor,
            ppn,
            signalled,
            streams: Vec::new(),
            ledger_tail: tail,
            mapping_digest: Digest::ZERO,
        });
        seq
    }

    /// Annotates the most recent black box with stream snapshots and the
    /// isolation-audit mapping digest (core side).
    pub fn annotate_last_blackbox(&self, streams: Vec<StreamSnap>, mapping_digest: Digest) {
        let mut inner = self.lock();
        if let Some(bb) = inner.blackboxes.last_mut() {
            bb.streams = streams;
            bb.mapping_digest = mapping_digest;
        }
    }

    /// All captured black boxes, in capture order.
    pub fn blackboxes(&self) -> Vec<BlackBox> {
        self.lock().blackboxes.clone()
    }
}

impl LedgerInner {
    fn append(&mut self, chain_id: u32, at: SimNs, event: SecurityEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let seed = &self.seed;
        let chain = self.chains.entry(chain_id).or_insert_with(|| ChainInner {
            key: HmacKey::new(&chain_key(seed, chain_id)),
            records: Vec::new(),
            head: Digest::ZERO,
            next_index: 0,
            evicted: 0,
        });
        let mut rec = LedgerRecord {
            index: chain.next_index,
            seq,
            chain: chain_id,
            at,
            event,
            prev: chain.head,
            mac: Digest::ZERO,
        };
        let digest = rec.digest();
        rec.mac = LedgerRecord::mac_for(&chain.key, &digest);
        chain.head = digest;
        chain.next_index += 1;
        chain.records.push(rec);
    }

    /// Evicts the oldest half of a full chain, then appends the checkpoint
    /// that lets the remaining suffix verify. The checkpoint's
    /// `prefix_digest` equals the surviving first record's `prev` by
    /// construction.
    fn evict_if_full(&mut self, chain_id: u32, at: SimNs) {
        let Some(chain) = self.chains.get_mut(&chain_id) else {
            return;
        };
        if chain.records.len() < self.capacity {
            return;
        }
        // A capacity below 2 would make `drop_n` zero; there is then no
        // boundary record to checkpoint against, so skip eviction rather
        // than underflowing.
        let drop_n = self.capacity / 2;
        let Some(boundary) = drop_n.checked_sub(1).and_then(|i| chain.records.get(i)) else {
            return;
        };
        let prefix_digest = boundary.digest();
        chain.records.drain(..drop_n);
        chain.evicted += drop_n as u64;
        let evicted_total = chain.evicted;
        self.append(
            chain_id,
            at,
            SecurityEvent::Checkpoint {
                evicted_total,
                prefix_digest,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> SecurityEvent {
        SecurityEvent::StreamClosed { stream: i }
    }

    #[test]
    fn appends_link_and_mac() {
        let ledger = Ledger::new("seed");
        ledger.append(1, SimNs::from_nanos(1), ev(1));
        ledger.append(1, SimNs::from_nanos(2), ev(2));
        let export = ledger.export();
        let c = &export.chains[&1];
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].prev, Digest::ZERO);
        assert_eq!(c.records[1].prev, c.records[0].digest());
        assert_eq!(c.head, c.records[1].digest());
        let key = HmacKey::new(&chain_key("seed", 1));
        assert_eq!(c.records[1].mac, LedgerRecord::mac_for(&key, &c.head));
    }

    #[test]
    fn chains_are_independent() {
        let ledger = Ledger::new("seed");
        ledger.append(1, SimNs::ZERO, ev(1));
        ledger.append(2, SimNs::ZERO, ev(1));
        let export = ledger.export();
        assert_eq!(export.chains.len(), 2);
        assert_ne!(
            export.chains[&1].records[0].mac, export.chains[&2].records[0].mac,
            "different chain keys must yield different macs for the same event"
        );
        // Global seq gives a total order across chains.
        let all = export.records_by_seq();
        assert_eq!(all[0].chain, 1);
        assert_eq!(all[1].chain, 2);
    }

    #[test]
    fn eviction_inserts_checkpoint_and_keeps_counts() {
        let ledger = Ledger::with_capacity("seed", 8);
        for i in 0..20 {
            ledger.append(1, SimNs::from_nanos(i), ev(i));
        }
        assert!(ledger.evicted_total() > 0);
        let export = ledger.export();
        let c = &export.chains[&1];
        // Surviving window stays under capacity.
        assert!(c.records.len() < 8);
        // First surviving record's index equals the evicted count.
        assert_eq!(c.records[0].index, c.evicted);
        // A checkpoint matching the surviving prefix exists.
        assert!(c.records.iter().any(|r| matches!(
            r.event,
            SecurityEvent::Checkpoint { evicted_total, prefix_digest }
                if evicted_total == c.records[0].index && prefix_digest == c.records[0].prev
        )));
        // Total appended is still tracked.
        assert_eq!(c.next_index, c.evicted + c.records.len() as u64);
    }

    #[test]
    fn blackbox_capture_and_annotation() {
        let ledger = Ledger::new("seed");
        ledger.append(1, SimNs::ZERO, ev(7));
        let seq = ledger.capture_blackbox(SimNs::from_nanos(5), 1, 0x42, 9);
        assert_eq!(seq, 0);
        ledger.annotate_last_blackbox(
            vec![StreamSnap {
                stream: 7,
                rid: 1,
                sid: 1,
                backlog: 0,
                open: false,
                quarantined: true,
            }],
            Digest::ZERO,
        );
        let boxes = ledger.blackboxes();
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].streams.len(), 1);
        assert_eq!(boxes[0].ledger_tail.len(), 1);
    }

    #[test]
    fn tail_returns_last_lines() {
        let ledger = Ledger::new("seed");
        for i in 0..12 {
            ledger.append(3, SimNs::from_nanos(i), ev(i));
        }
        let tail = ledger.tail(3, 4);
        assert_eq!(tail.len(), 4);
        assert!(tail[3].contains("stream-closed stream=11"));
    }

    #[test]
    fn debug_shows_no_key_material() {
        let ledger = Ledger::new("seed");
        ledger.append(1, SimNs::ZERO, ev(1));
        let text = format!("{ledger:?}");
        let key = chain_key("seed", 1);
        assert!(text.contains("HmacKey { .. }"), "{text}");
        assert!(!text.contains(&Digest(key).to_hex()), "{text}");
        assert!(!text.contains(&format!("{key:?}")), "{text}");
    }
}
