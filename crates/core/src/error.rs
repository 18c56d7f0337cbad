//! The typed CRONUS error hierarchy.
//!
//! mECall handlers, the sRPC transport and the system facade all used to
//! funnel failures through bare `String`s, which forced fault-injection
//! campaigns (and applications) to substring-grep messages. [`CronusError`]
//! replaces that: every failure carries its typed cause, implements
//! [`std::error::Error::source`] for chain walking, and classifies itself
//! into a stable [`FaultKind`] that survives the ring's wire format — a
//! result slot encodes the kind as a tag byte plus the rendered detail, so
//! the caller side can still match on *what went wrong* even though the
//! typed payload cannot cross the (serialized) trust boundary intact.

use std::fmt;

use cronus_devices::DeviceError;
use cronus_mos::hal::HalError;
use cronus_mos::manager::ManagerError;
use cronus_mos::mos::MosError;
use cronus_sim::Fault;
use cronus_spm::spm::SpmError;

/// Stable classification of a [`CronusError`]. This is what crosses the
/// ring as a tag byte, so campaign assertions match on it instead of
/// grepping message text. New kinds may be appended; existing tags never
/// change meaning.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Enclave-manager failure (ownership, manifests, unknown eids).
    Manager,
    /// HAL/driver failure.
    Hal,
    /// An architectural fault (stage-1/stage-2/TZASC/SMMU/bus).
    ArchFault,
    /// Other mOS failure (out of memory, not running).
    Mos,
    /// SPM failure.
    Spm,
    /// Accelerator device failure. (Tag 7 was the NPU's own kind while the
    /// GPU and the NPU had separate error types; it is retired, not reused.)
    Device,
    /// The request descriptor was malformed.
    BadRequest,
    /// Application-defined handler failure.
    App,
    /// No handler was registered for a declared mECall.
    NoHandler,
}

impl FaultKind {
    /// The wire tag byte for this kind.
    pub fn as_tag(self) -> u8 {
        match self {
            FaultKind::Manager => 1,
            FaultKind::Hal => 2,
            FaultKind::ArchFault => 3,
            FaultKind::Mos => 4,
            FaultKind::Spm => 5,
            FaultKind::Device => 6,
            FaultKind::BadRequest => 8,
            FaultKind::App => 9,
            FaultKind::NoHandler => 10,
        }
    }

    /// Parses a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<FaultKind> {
        Some(match tag {
            1 => FaultKind::Manager,
            2 => FaultKind::Hal,
            3 => FaultKind::ArchFault,
            4 => FaultKind::Mos,
            5 => FaultKind::Spm,
            6 => FaultKind::Device,
            8 => FaultKind::BadRequest,
            9 => FaultKind::App,
            10 => FaultKind::NoHandler,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Manager => "manager",
            FaultKind::Hal => "hal",
            FaultKind::ArchFault => "arch-fault",
            FaultKind::Mos => "mos",
            FaultKind::Spm => "spm",
            FaultKind::Device => "device",
            FaultKind::BadRequest => "bad-request",
            FaultKind::App => "app",
            FaultKind::NoHandler => "no-handler",
        };
        f.write_str(s)
    }
}

/// A typed CRONUS failure: what an mECall handler (or the machinery under
/// it) reports instead of a `String`.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum CronusError {
    /// mOS failure (enclave manager, HAL, architectural fault, ...).
    Mos(MosError),
    /// SPM failure.
    Spm(SpmError),
    /// Accelerator device failure.
    Device(DeviceError),
    /// The mECall's request descriptor was malformed.
    BadRequest,
    /// Application-defined failure with an app-chosen code.
    App {
        /// Application-defined error code.
        code: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// An error that crossed the ring: the callee's typed error was
    /// serialized into a result slot, so only its [`FaultKind`] and the
    /// rendered detail survive transit.
    Remote {
        /// The original error's classification.
        kind: FaultKind,
        /// The original error's rendered message.
        detail: String,
    },
}

impl CronusError {
    /// An application-defined failure with code 0.
    pub fn app(detail: impl Into<String>) -> CronusError {
        CronusError::App {
            code: 0,
            detail: detail.into(),
        }
    }

    /// The stable classification of this error.
    pub fn kind(&self) -> FaultKind {
        match self {
            CronusError::Mos(MosError::Manager(_)) => FaultKind::Manager,
            CronusError::Mos(MosError::Hal(_)) => FaultKind::Hal,
            CronusError::Mos(MosError::Fault(_)) => FaultKind::ArchFault,
            CronusError::Mos(_) => FaultKind::Mos,
            CronusError::Spm(SpmError::Mos(MosError::Fault(_))) => FaultKind::ArchFault,
            CronusError::Spm(_) => FaultKind::Spm,
            CronusError::Device(_) => FaultKind::Device,
            CronusError::BadRequest => FaultKind::BadRequest,
            CronusError::App { .. } => FaultKind::App,
            CronusError::Remote { kind, .. } => *kind,
        }
    }

    /// Encodes the error for a ring result slot: kind tag + rendered detail.
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut out = vec![self.kind().as_tag()];
        out.extend_from_slice(self.to_string().as_bytes());
        out
    }

    /// Decodes an error from a ring result slot. Unknown or missing tags
    /// decode as [`FaultKind::App`] so corrupted slots still yield a typed
    /// value.
    pub fn decode_wire(bytes: &[u8]) -> CronusError {
        let (kind, detail) = match bytes.split_first() {
            Some((tag, rest)) => (
                FaultKind::from_tag(*tag).unwrap_or(FaultKind::App),
                String::from_utf8_lossy(rest).into_owned(),
            ),
            None => (FaultKind::App, String::new()),
        };
        CronusError::Remote { kind, detail }
    }
}

impl fmt::Display for CronusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CronusError::Mos(e) => write!(f, "mos error: {e}"),
            CronusError::Spm(e) => write!(f, "spm error: {e}"),
            CronusError::Device(e) => write!(f, "device error: {e}"),
            CronusError::BadRequest => f.write_str("malformed request descriptor"),
            CronusError::App { code, detail } => {
                write!(f, "application error (code {code}): {detail}")
            }
            CronusError::Remote { kind, detail } => {
                write!(f, "remote {kind} error: {detail}")
            }
        }
    }
}

impl std::error::Error for CronusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CronusError::Mos(e) => Some(e),
            CronusError::Spm(e) => Some(e),
            CronusError::Device(e) => Some(e),
            CronusError::BadRequest | CronusError::App { .. } | CronusError::Remote { .. } => None,
        }
    }
}

impl From<MosError> for CronusError {
    fn from(e: MosError) -> Self {
        CronusError::Mos(e)
    }
}

impl From<SpmError> for CronusError {
    fn from(e: SpmError) -> Self {
        CronusError::Spm(e)
    }
}

impl From<DeviceError> for CronusError {
    fn from(e: DeviceError) -> Self {
        CronusError::Device(e)
    }
}

impl From<HalError> for CronusError {
    fn from(e: HalError) -> Self {
        CronusError::Mos(MosError::Hal(e))
    }
}

impl From<ManagerError> for CronusError {
    fn from(e: ManagerError) -> Self {
        CronusError::Mos(MosError::Manager(e))
    }
}

impl From<Fault> for CronusError {
    fn from(e: Fault) -> Self {
        CronusError::Mos(MosError::Fault(e))
    }
}

impl From<cronus_devices::bus::BusError> for CronusError {
    fn from(e: cronus_devices::bus::BusError) -> Self {
        CronusError::Mos(MosError::Hal(HalError::Bus(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_sim::machine::AsId;
    use cronus_sim::PhysAddr;

    #[test]
    fn kinds_round_trip_through_tags() {
        for kind in [
            FaultKind::Manager,
            FaultKind::Hal,
            FaultKind::ArchFault,
            FaultKind::Mos,
            FaultKind::Spm,
            FaultKind::Device,
            FaultKind::BadRequest,
            FaultKind::App,
            FaultKind::NoHandler,
        ] {
            assert_eq!(FaultKind::from_tag(kind.as_tag()), Some(kind));
        }
        assert_eq!(FaultKind::from_tag(0), None);
        assert_eq!(FaultKind::from_tag(7), None, "retired");
        assert_eq!(FaultKind::from_tag(200), None);
    }

    #[test]
    fn wire_round_trip_preserves_kind_and_detail() {
        let e = CronusError::Mos(MosError::Fault(Fault::Stage2Unmapped {
            asid: AsId::new(2),
            pa: PhysAddr::new(0x4000),
        }));
        let decoded = CronusError::decode_wire(&e.encode_wire());
        assert_eq!(decoded.kind(), FaultKind::ArchFault);
        match decoded {
            CronusError::Remote { detail, .. } => {
                assert_eq!(detail, e.to_string());
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn empty_or_garbage_slots_still_decode() {
        assert_eq!(CronusError::decode_wire(&[]).kind(), FaultKind::App);
        assert_eq!(
            CronusError::decode_wire(&[0xff, b'x']).kind(),
            FaultKind::App
        );
    }

    #[test]
    fn source_chain_reaches_the_fault() {
        let e = CronusError::from(Fault::BusAbort {
            pa: PhysAddr::new(0xdead_0000),
        });
        let mos = std::error::Error::source(&e).expect("mos layer");
        let fault = mos.source().expect("fault layer");
        assert!(fault.to_string().contains("bus abort"));
    }

    #[test]
    fn app_errors_carry_codes() {
        let e = CronusError::app("device exploded");
        assert_eq!(e.kind(), FaultKind::App);
        assert!(e.to_string().contains("device exploded"));
    }
}
