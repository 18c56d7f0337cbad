//! sRPC ring-buffer layout and slot encoding.
//!
//! An sRPC stream stores its state entirely inside a trusted shared memory
//! region (§IV-C): a request index `Rid`, a progress index `Sid`, a dCheck
//! tag, and two slot arrays (requests and results). This module defines the
//! byte layout and the slot codec; the protocol driver in [`crate::srpc`]
//! moves these bytes through the simulated machine so every access is
//! checked by stage-1/stage-2/TZASC.
//!
//! Since the multi-queue fast path, one stream's shared region is divided
//! into `lanes` equally-sized lane regions, each a self-contained ring pair
//! with its own producer/consumer indices. Layout of one lane region
//! (`lane_pages * 4096` bytes; the stream region is `lanes` of these
//! back-to-back):
//!
//! ```text
//! 0x000  rid: u64           next request index (producer-owned)
//! 0x008  sid: u64           executed-request count (consumer-owned)
//! 0x010  dcheck: [u8; 32]   HMAC(secret_dhke, nonce) — lane 0 only
//! 0x030  closed: u8         stream close flag — lane 0 only
//! 0x040  request slots      (half of the remaining space)
//! ....   result slots       (the other half)
//! ```
//!
//! The dCheck tag and the close flag are global to the stream and live only
//! in lane 0's header; every other lane uses just its index words. A
//! single-lane [`MultiRingLayout`] is byte-identical to the pre-multi-queue
//! format.

use cronus_sim::addr::PAGE_SIZE;

/// Maximum encoded message (name + payload) per slot. Slots carry RPC
/// *descriptors* (names, handles, offsets, scalar args); bulk data moves
/// through dedicated shared data buffers set up by the runtimes, exactly as
/// real `cudaMemcpy` bounce buffers do.
pub const SLOT_PAYLOAD: usize = 480;
/// On-wire slot size: u32 name_len + u32 payload_len + payload area.
pub const SLOT_SIZE: usize = 8 + SLOT_PAYLOAD;
/// Result slot size: u32 status + u32 len + payload area.
pub const RESULT_SLOT_SIZE: usize = 8 + SLOT_PAYLOAD;
/// Header bytes reserved at the start of the region.
pub const HEADER_SIZE: u64 = 0x40;

/// Offset of the `Rid` word.
pub const RID_OFFSET: u64 = 0x0;
/// Offset of the `Sid` word.
pub const SID_OFFSET: u64 = 0x8;
/// Offset of the dCheck tag.
pub const DCHECK_OFFSET: u64 = 0x10;
/// Offset of the close flag.
pub const CLOSED_OFFSET: u64 = 0x30;

/// Bytes in `lanes` regions of `pages` pages each, unless that overflows.
fn region_bytes(lanes: usize, pages: usize) -> Option<u64> {
    (lanes as u64)
        .checked_mul(pages as u64)?
        .checked_mul(PAGE_SIZE)
}

/// Computed geometry of a ring over `pages` shared pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingLayout {
    /// Shared pages backing the stream.
    pub pages: usize,
    /// Number of request slots (== number of result slots).
    pub slots: u64,
    /// Byte offset of the request slot array.
    pub requests_offset: u64,
    /// Byte offset of the result slot array.
    pub results_offset: u64,
}

impl RingLayout {
    /// Computes the layout for a region of `pages` pages, or `None` when
    /// the region cannot hold one slot pair or its byte size overflows.
    pub fn new(pages: usize) -> Option<Self> {
        RingLayout::with_slot_cap(pages, u64::MAX)
    }

    /// [`RingLayout::new`] with the slot count additionally capped at
    /// `cap` — a shallow ring deliberately bounds in-flight requests (and
    /// with them queue wait) below what the region could hold. `None` as
    /// for [`RingLayout::new`], and when `cap` is zero.
    pub fn with_slot_cap(pages: usize, cap: u64) -> Option<Self> {
        let total = region_bytes(1, pages)?.checked_sub(HEADER_SIZE)?;
        let slots = (total / (SLOT_SIZE as u64 + RESULT_SLOT_SIZE as u64)).min(cap);
        (slots >= 1).then_some(RingLayout {
            pages,
            slots,
            requests_offset: HEADER_SIZE,
            results_offset: HEADER_SIZE + slots * SLOT_SIZE as u64,
        })
    }

    /// Byte offset of request slot `index` (wrapped).
    pub fn request_slot(&self, index: u64) -> u64 {
        self.requests_offset + (index % self.slots) * SLOT_SIZE as u64
    }

    /// Byte offset of result slot `index` (wrapped).
    pub fn result_slot(&self, index: u64) -> u64 {
        self.results_offset + (index % self.slots) * RESULT_SLOT_SIZE as u64
    }

    /// True when the ring is full: the producer must wait for the consumer
    /// ("checks the progress of mE_B ... when it needs synchronization").
    pub fn is_full(&self, rid: u64, sid: u64) -> bool {
        rid - sid >= self.slots
    }
}

/// Geometry of a multi-queue stream: `lanes` independent ring pairs packed
/// back-to-back in one shared region, each occupying `lane_pages` pages
/// with identical internal geometry.
///
/// Lane regions are self-contained [`RingLayout`]s, so every byte offset a
/// single-ring stream used still exists — lane 0 of an L-lane stream is the
/// old single ring, and the stream-global dCheck/closed words stay at their
/// lane-0 header offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiRingLayout {
    /// Independent ring pairs.
    pub lanes: usize,
    /// Pages per lane region.
    pub lane_pages: usize,
    /// Geometry within one lane region.
    pub lane: RingLayout,
}

impl MultiRingLayout {
    /// Computes the layout for `lanes` rings of `lane_pages` pages each,
    /// with per-lane depth capped at `depth` slots when given. `None` when
    /// `lanes` is zero, a lane region cannot hold one slot pair (or
    /// `depth` is `Some(0)`), or the whole region's byte size overflows.
    pub fn new(lanes: usize, lane_pages: usize, depth: Option<u64>) -> Option<Self> {
        if lanes == 0 {
            return None;
        }
        region_bytes(lanes, lane_pages)?;
        Some(MultiRingLayout {
            lanes,
            lane_pages,
            lane: RingLayout::with_slot_cap(lane_pages, depth.unwrap_or(u64::MAX))?,
        })
    }

    /// Splits a `pages`-page budget into at most `max_lanes` equal lanes
    /// (fewer when the region is too small), preserving the region's total
    /// size and roughly its total slot capacity. `None` as for
    /// [`MultiRingLayout::new`].
    pub fn split(pages: usize, max_lanes: usize) -> Option<Self> {
        let lanes = max_lanes.clamp(1, pages.max(1));
        MultiRingLayout::new(lanes, pages / lanes, None)
    }

    /// Total pages across all lane regions.
    pub fn pages(&self) -> usize {
        self.lanes * self.lane_pages
    }

    /// Request slots per lane.
    pub fn slots_per_lane(&self) -> u64 {
        self.lane.slots
    }

    /// Total in-flight capacity across lanes.
    pub fn total_slots(&self) -> u64 {
        self.lanes as u64 * self.lane.slots
    }

    /// Byte offset of lane `lane`'s region within the shared mapping.
    pub fn lane_base(&self, lane: usize) -> u64 {
        debug_assert!(lane < self.lanes);
        lane as u64 * self.lane_pages as u64 * PAGE_SIZE
    }

    /// Byte offset of lane `lane`'s `Rid` word.
    pub fn rid_offset(&self, lane: usize) -> u64 {
        self.lane_base(lane) + RID_OFFSET
    }

    /// Byte offset of lane `lane`'s `Sid` word.
    pub fn sid_offset(&self, lane: usize) -> u64 {
        self.lane_base(lane) + SID_OFFSET
    }

    /// Byte offset of request slot `index` in lane `lane` (wrapped).
    pub fn request_slot(&self, lane: usize, index: u64) -> u64 {
        self.lane_base(lane) + self.lane.request_slot(index)
    }

    /// Byte offset of result slot `index` in lane `lane` (wrapped).
    pub fn result_slot(&self, lane: usize, index: u64) -> u64 {
        self.lane_base(lane) + self.lane.result_slot(index)
    }

    /// Whether a lane with the given indices is full.
    pub fn lane_full(&self, rid: u64, sid: u64) -> bool {
        self.lane.is_full(rid, sid)
    }
}

/// A request message: the mECall name and its serialized arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// mECall name.
    pub name: String,
    /// Serialized arguments.
    pub payload: Vec<u8>,
}

/// Errors from slot encoding/decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// name + payload exceed [`SLOT_PAYLOAD`].
    TooLarge { size: usize },
    /// The slot contains lengths that do not fit — corrupted or foreign data.
    Corrupt,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooLarge { size } => {
                write!(
                    f,
                    "message of {size} bytes exceeds slot capacity {SLOT_PAYLOAD}"
                )
            }
            CodecError::Corrupt => f.write_str("slot contents are corrupt"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a request into a `SLOT_SIZE` byte buffer.
///
/// # Errors
///
/// [`CodecError::TooLarge`] when the message exceeds the slot capacity —
/// large transfers use dedicated data buffers, not ring slots.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, CodecError> {
    encode_request_slot(&req.name, &req.payload).map(|slot| slot.to_vec())
}

/// [`encode_request`] from borrowed parts into a slot-sized array: what the
/// enqueue path uses, so a call costs no `Request` and no heap buffer.
///
/// # Errors
///
/// [`CodecError::TooLarge`], as [`encode_request`].
pub fn encode_request_slot(name: &str, payload: &[u8]) -> Result<[u8; SLOT_SIZE], CodecError> {
    encode_slot(name, payload.len() as u32, payload)
}

/// Lays out one request slot: the name length, `payload_word` verbatim
/// (a length, or a length with [`GRANT_FLAG`]), the name and `body`.
fn encode_slot(name: &str, payload_word: u32, body: &[u8]) -> Result<[u8; SLOT_SIZE], CodecError> {
    let total = name.len() + body.len();
    if total > SLOT_PAYLOAD {
        return Err(CodecError::TooLarge { size: total });
    }
    let mut out = [0u8; SLOT_SIZE];
    let name_len = (name.len() as u32).to_le_bytes();
    lay_out(
        &mut out,
        &[
            &name_len,
            &payload_word.to_le_bytes(),
            name.as_bytes(),
            body,
        ],
    )?;
    Ok(out)
}

/// Copies `parts` back to back into the front of `out` through checked
/// splits: a part that would run past the end is [`CodecError::TooLarge`],
/// not a panic.
fn lay_out(out: &mut [u8], parts: &[&[u8]]) -> Result<(), CodecError> {
    let mut rest = out;
    for part in parts {
        let (head, tail) = std::mem::take(&mut rest)
            .split_at_mut_checked(part.len())
            .ok_or(CodecError::TooLarge { size: part.len() })?;
        head.copy_from_slice(part);
        rest = tail;
    }
    Ok(())
}

/// Decodes a request slot.
///
/// # Errors
///
/// [`CodecError::Corrupt`] on impossible lengths or non-UTF-8 names, and on
/// grant slots (see [`decode_slot_request`]).
pub fn decode_request(slot: &[u8]) -> Result<Request, CodecError> {
    match decode_slot_request(slot)? {
        SlotRequest::Inline(request) => Ok(request),
        SlotRequest::Grant { .. } => Err(CodecError::Corrupt),
    }
}

/// Flag bit set in a slot's `payload_len` word when the payload travels by
/// page grant instead of inline bytes: the slot then carries a 16-byte
/// [`GrantRef`] descriptor naming where in the stream's grant arena the
/// callee finds the real payload.
pub const GRANT_FLAG: u32 = 1 << 31;

/// A zero-copy payload descriptor: the payload lives at `offset..offset+len`
/// in the stream's grant arena (a share-ledger-tracked region mapped into
/// both endpoints' stage-1), not in the ring slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantRef {
    /// Byte offset within the grant arena.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// A decoded request slot: either a classic inline-payload request or a
/// zero-copy grant descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotRequest {
    /// Payload travelled through the slot.
    Inline(Request),
    /// Payload travelled by page grant; resolve `grant` against the arena.
    Grant {
        /// mECall name.
        name: String,
        /// Arena descriptor.
        grant: GrantRef,
    },
}

/// A request slot decoded in place: [`SlotRequest`] with the name and an
/// inline payload borrowed from the slot bytes, so the executor's drain
/// allocates nothing to read a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotView<'a> {
    /// Payload travelled through the slot.
    Inline {
        /// mECall name.
        name: &'a str,
        /// Serialized arguments.
        payload: &'a [u8],
    },
    /// Payload travelled by page grant; resolve `grant` against the arena.
    Grant {
        /// mECall name.
        name: &'a str,
        /// Arena descriptor.
        grant: GrantRef,
    },
}

/// Encodes a grant-descriptor request into a `SLOT_SIZE` buffer.
///
/// # Errors
///
/// [`CodecError::TooLarge`] when the name plus the 16-byte descriptor
/// exceed the slot capacity.
pub fn encode_grant_request(name: &str, grant: GrantRef) -> Result<Vec<u8>, CodecError> {
    encode_grant_slot(name, grant).map(|slot| slot.to_vec())
}

/// [`encode_grant_request`] into a slot-sized array (see
/// [`encode_request_slot`]).
///
/// # Errors
///
/// [`CodecError::TooLarge`], as [`encode_grant_request`].
pub fn encode_grant_slot(name: &str, grant: GrantRef) -> Result<[u8; SLOT_SIZE], CodecError> {
    let mut descriptor = [0u8; 16];
    let (offset, len) = descriptor.split_at_mut(8);
    offset.copy_from_slice(&grant.offset.to_le_bytes());
    len.copy_from_slice(&grant.len.to_le_bytes());
    encode_slot(name, 16 | GRANT_FLAG, &descriptor)
}

/// Decodes a request slot into either form. Inline slots decode exactly as
/// [`decode_request`]; slots with [`GRANT_FLAG`] set yield the descriptor.
///
/// # Errors
///
/// [`CodecError::Corrupt`] on impossible lengths, a malformed descriptor,
/// or a non-UTF-8 name.
pub fn decode_slot_request(slot: &[u8]) -> Result<SlotRequest, CodecError> {
    Ok(match view_slot(slot)? {
        SlotView::Inline { name, payload } => SlotRequest::Inline(Request {
            name: name.to_string(),
            payload: payload.to_vec(),
        }),
        SlotView::Grant { name, grant } => SlotRequest::Grant {
            name: name.to_string(),
            grant,
        },
    })
}

/// [`decode_slot_request`] in place: the one request decoder, which the
/// owned forms wrap. The slot bytes come straight from shared ring memory
/// the peer may have mangled, so every length is checked before it is
/// sliced by.
///
/// # Errors
///
/// [`CodecError::Corrupt`], as [`decode_slot_request`].
pub fn view_slot(slot: &[u8]) -> Result<SlotView<'_>, CodecError> {
    let name_len = u32::from_le_bytes(read_word(slot, 0)?) as usize;
    let payload_word = u32::from_le_bytes(read_word(slot, 4)?);
    let grant = payload_word & GRANT_FLAG != 0;
    let body_len = if grant { 16 } else { payload_word as usize };
    if (grant && payload_word & !GRANT_FLAG != 16) || name_len + body_len > SLOT_PAYLOAD {
        return Err(CodecError::Corrupt);
    }
    let (name, rest) = slot
        .get(8..)
        .and_then(|rest| rest.split_at_checked(name_len))
        .ok_or(CodecError::Corrupt)?;
    let body = rest.get(..body_len).ok_or(CodecError::Corrupt)?;
    let name = std::str::from_utf8(name).map_err(|_| CodecError::Corrupt)?;
    if !grant {
        return Ok(SlotView::Inline {
            name,
            payload: body,
        });
    }
    let grant = GrantRef {
        offset: u64::from_le_bytes(read_word(body, 0)?),
        len: u64::from_le_bytes(read_word(body, 8)?),
    };
    Ok(SlotView::Grant { name, grant })
}

/// Execution status stored in a result slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultStatus {
    /// Handler completed; payload is its return bytes.
    Ok,
    /// Handler failed; payload is an error string.
    Err,
}

/// Encodes a result into a `RESULT_SLOT_SIZE` buffer.
///
/// # Errors
///
/// [`CodecError::TooLarge`].
pub fn encode_result(status: ResultStatus, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    encode_result_slot(status, payload).map(|slot| slot.to_vec())
}

/// [`encode_result`] into a slot-sized array: what the drain writes, so a
/// result costs no heap buffer.
///
/// # Errors
///
/// [`CodecError::TooLarge`], as [`encode_result`].
pub fn encode_result_slot(
    status: ResultStatus,
    payload: &[u8],
) -> Result<[u8; RESULT_SLOT_SIZE], CodecError> {
    if payload.len() > SLOT_PAYLOAD {
        return Err(CodecError::TooLarge {
            size: payload.len(),
        });
    }
    let status = match status {
        ResultStatus::Ok => 1u32,
        ResultStatus::Err => 2u32,
    };
    let mut out = [0u8; RESULT_SLOT_SIZE];
    let len = (payload.len() as u32).to_le_bytes();
    lay_out(&mut out, &[&status.to_le_bytes(), &len, payload])?;
    Ok(out)
}

/// Decodes a result slot.
///
/// # Errors
///
/// [`CodecError::Corrupt`].
pub fn decode_result(slot: &[u8]) -> Result<(ResultStatus, Vec<u8>), CodecError> {
    let status = match u32::from_le_bytes(read_word(slot, 0)?) {
        1 => ResultStatus::Ok,
        2 => ResultStatus::Err,
        _ => return Err(CodecError::Corrupt),
    };
    let len = u32::from_le_bytes(read_word(slot, 4)?) as usize;
    if len > SLOT_PAYLOAD || 8 + len > slot.len() {
        return Err(CodecError::Corrupt);
    }
    Ok((
        status,
        slot.get(8..8 + len).ok_or(CodecError::Corrupt)?.to_vec(),
    ))
}

/// Reads the `N` bytes at `offset`, treating a truncated slot as corruption
/// rather than panicking on it.
fn read_word<const N: usize>(slot: &[u8], offset: usize) -> Result<[u8; N], CodecError> {
    slot.get(offset..offset + N)
        .and_then(|b| <[u8; N]>::try_from(b).ok())
        .ok_or(CodecError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fits_slots() {
        let l = RingLayout::new(4).unwrap();
        assert!(l.slots >= 2);
        assert_eq!(l.requests_offset, HEADER_SIZE);
        assert!(l.results_offset > l.requests_offset);
        assert!(
            l.result_slot(l.slots - 1) + RESULT_SLOT_SIZE as u64 <= 4 * PAGE_SIZE,
            "slots stay within the region"
        );
    }

    #[test]
    fn slot_offsets_wrap() {
        let l = RingLayout::new(4).unwrap();
        assert_eq!(l.request_slot(0), l.request_slot(l.slots));
        assert_eq!(l.result_slot(1), l.result_slot(l.slots + 1));
        assert_ne!(l.request_slot(0), l.request_slot(1));
    }

    #[test]
    fn fullness() {
        let l = RingLayout::new(4).unwrap();
        assert!(!l.is_full(0, 0));
        assert!(!l.is_full(l.slots - 1, 0));
        assert!(l.is_full(l.slots, 0));
        assert!(!l.is_full(l.slots, 1));
    }

    #[test]
    fn multi_ring_lanes_do_not_overlap() {
        let m = MultiRingLayout::new(4, 1, None).unwrap();
        assert_eq!(m.pages(), 4);
        assert_eq!(m.total_slots(), 4 * m.slots_per_lane());
        for lane in 0..4 {
            let base = m.lane_base(lane);
            let end = base + PAGE_SIZE;
            assert!(m.rid_offset(lane) >= base && m.sid_offset(lane) < end);
            let last = m.result_slot(lane, m.slots_per_lane() - 1) + RESULT_SLOT_SIZE as u64;
            assert!(last <= end, "lane {lane} spills past its region");
        }
        assert_eq!(m.rid_offset(0), RID_OFFSET, "lane 0 keeps the old header");
    }

    #[test]
    fn single_lane_matches_legacy_layout() {
        let m = MultiRingLayout::new(1, 4, None).unwrap();
        let l = RingLayout::new(4).unwrap();
        assert_eq!(m.lane, l);
        assert_eq!(m.request_slot(0, 3), l.request_slot(3));
        assert_eq!(m.result_slot(0, 3), l.result_slot(3));
    }

    #[test]
    fn depth_cap_shrinks_lanes() {
        let m = MultiRingLayout::new(8, 1, Some(1)).unwrap();
        assert_eq!(m.slots_per_lane(), 1);
        assert_eq!(m.total_slots(), 8);
        assert!(m.lane_full(1, 0));
        assert!(!m.lane_full(1, 1));
        // Wraparound at depth 1: every index maps to the single slot.
        assert_eq!(m.request_slot(3, 0), m.request_slot(3, 7));
    }

    #[test]
    fn split_preserves_region_and_caps_lanes() {
        let m = MultiRingLayout::split(64, 16).unwrap();
        assert_eq!((m.lanes, m.lane_pages), (16, 4));
        assert_eq!(m.pages(), 64);
        // A small region gets fewer lanes rather than sub-page lanes.
        let small = MultiRingLayout::split(4, 16).unwrap();
        assert_eq!((small.lanes, small.lane_pages), (4, 1));
        assert_eq!(MultiRingLayout::split(1, 16).unwrap().lanes, 1);
    }

    #[test]
    fn grant_request_round_trip() {
        let grant = GrantRef {
            offset: 0x3000,
            len: 9001,
        };
        let enc = encode_grant_request("cuMemcpyH2D", grant).unwrap();
        assert_eq!(enc.len(), SLOT_SIZE);
        match decode_slot_request(&enc).unwrap() {
            SlotRequest::Grant { name, grant: g } => {
                assert_eq!(name, "cuMemcpyH2D");
                assert_eq!(g, grant);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        // The legacy decoder refuses grant slots instead of misreading them.
        assert_eq!(decode_request(&enc), Err(CodecError::Corrupt));
    }

    #[test]
    fn inline_slots_decode_identically_through_both_decoders() {
        let req = Request {
            name: "echo".into(),
            payload: vec![7; 32],
        };
        let enc = encode_request(&req).unwrap();
        assert_eq!(decode_slot_request(&enc).unwrap(), SlotRequest::Inline(req));
    }

    #[test]
    fn corrupt_grant_descriptor_rejected() {
        let mut enc = encode_grant_request("f", GrantRef { offset: 0, len: 8 }).unwrap();
        // Claim a descriptor length other than 16.
        enc[4..8].copy_from_slice(&(8u32 | GRANT_FLAG).to_le_bytes());
        assert_eq!(decode_slot_request(&enc), Err(CodecError::Corrupt));
    }

    #[test]
    fn request_round_trip() {
        let req = Request {
            name: "cudaLaunchKernel".into(),
            payload: vec![1, 2, 3, 4],
        };
        let encoded = encode_request(&req).unwrap();
        assert_eq!(encoded.len(), SLOT_SIZE);
        assert_eq!(decode_request(&encoded).unwrap(), req);
    }

    #[test]
    fn empty_payload_round_trip() {
        let req = Request {
            name: "sync".into(),
            payload: vec![],
        };
        assert_eq!(decode_request(&encode_request(&req).unwrap()).unwrap(), req);
    }

    #[test]
    fn oversized_request_rejected() {
        let req = Request {
            name: "f".into(),
            payload: vec![0u8; SLOT_PAYLOAD],
        };
        assert!(matches!(
            encode_request(&req),
            Err(CodecError::TooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_request_rejected() {
        let mut encoded = encode_request(&Request {
            name: "f".into(),
            payload: vec![1],
        })
        .unwrap();
        encoded[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&encoded), Err(CodecError::Corrupt));
        assert_eq!(decode_request(&[0u8; 4]), Err(CodecError::Corrupt));
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut encoded = encode_request(&Request {
            name: "ab".into(),
            payload: vec![],
        })
        .unwrap();
        encoded[8] = 0xff;
        encoded[9] = 0xfe;
        assert_eq!(decode_request(&encoded), Err(CodecError::Corrupt));
    }

    #[test]
    fn result_round_trip() {
        for (status, payload) in [
            (ResultStatus::Ok, vec![5u8; 100]),
            (ResultStatus::Err, b"unknown mecall".to_vec()),
            (ResultStatus::Ok, vec![]),
        ] {
            let enc = encode_result(status, &payload).unwrap();
            assert_eq!(decode_result(&enc).unwrap(), (status, payload));
        }
    }

    #[test]
    fn zeroed_result_slot_is_corrupt_not_ok() {
        // A result slot that was never written decodes as corrupt, so a
        // caller can never mistake "no result yet" for a success.
        assert_eq!(
            decode_result(&[0u8; RESULT_SLOT_SIZE]),
            Err(CodecError::Corrupt)
        );
    }
}
