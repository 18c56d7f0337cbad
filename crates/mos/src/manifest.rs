//! mEnclave manifests and enclave identifiers.
//!
//! A manifest (paper Figure 3) declares the device type, the hashes of the
//! mEnclave runtime and images, the mECall list (with the paper's
//! synchronous/asynchronous flag used by sRPC), and the resource capacity.
//! The Enclave Manager checks loaded images against these hashes, and the
//! whole manifest is measured into attestation reports.

use std::collections::BTreeMap;
use std::fmt;

use cronus_crypto::{measure, Digest};
use cronus_devices::DeviceKind;

/// An mOS identifier: the top 8 bits of every [`Eid`] minted by that mOS.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MosId(pub u8);

impl fmt::Display for MosId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mos{}", self.0)
    }
}

/// A 32-bit enclave identifier: "the first 8 bits are the mOS id, and the
/// last 24 bits are for the enclave id within the mOS" (§IV-A). The SPM
/// "uses the mOS part for validating cross-mOS messages".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Eid(u32);

impl Eid {
    /// Local id 0 of mOS 0. No mOS mints it (each numbers its enclaves
    /// from 1), so it names no enclave.
    pub const NONE: Eid = Eid(0);

    /// Composes an eid from its parts, or `None` when `local` does not fit
    /// in 24 bits.
    pub fn new(mos: MosId, local: u32) -> Option<Self> {
        (local < (1 << 24)).then_some(Eid((mos.0 as u32) << 24 | local))
    }

    /// The owning mOS.
    pub fn mos(self) -> MosId {
        MosId((self.0 >> 24) as u8)
    }

    /// The enclave index within its mOS.
    pub fn local(self) -> u32 {
        self.0 & 0x00ff_ffff
    }

    /// Raw 32-bit value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Eid({}:{})", self.mos().0, self.local())
    }
}

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}.{}", self.mos().0, self.local())
    }
}

/// Declaration of one mECall in the manifest's edl-like list.
///
/// The paper "reused SGX's edl format ... and instrumented the format with
/// the synchronization/asynchronization flag for sRPC" (§IV-A).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McallDecl {
    /// Function name.
    pub name: String,
    /// If true, the caller must synchronize on the result (e.g.
    /// `cudaMemcpy` back to host); if false it can stream (e.g.
    /// `cudaLaunchKernel`).
    pub synchronous: bool,
    /// If true the call may be safely re-issued after a transient failure:
    /// the reliability layer only permits retry-with-backoff for mECalls
    /// that declare idempotence here, because the declaration is measured
    /// into attestation like the rest of the manifest.
    pub idempotent: bool,
}

impl McallDecl {
    /// Declares an asynchronous (streamable) mECall.
    pub fn asynchronous(name: &str) -> Self {
        McallDecl {
            name: name.to_string(),
            synchronous: false,
            idempotent: false,
        }
    }

    /// Declares a synchronous mECall.
    pub fn synchronous(name: &str) -> Self {
        McallDecl {
            name: name.to_string(),
            synchronous: true,
            idempotent: false,
        }
    }

    /// Marks the mECall as idempotent (builder style), making it eligible
    /// for bounded retry after timeouts or transient handler failures.
    pub fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }
}

/// Resource capacity requested by the mEnclave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resources {
    /// Device/enclave memory in bytes (the manifest's `"memory": "1G"`).
    pub memory_bytes: u64,
}

impl Default for Resources {
    fn default() -> Self {
        Resources {
            memory_bytes: 64 << 20,
        }
    }
}

/// Why a manifest was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestError {
    /// The manifest's device type does not match the hosting mOS's device.
    DeviceMismatch {
        manifest: DeviceKind,
        mos: DeviceKind,
    },
    /// A provided image's hash does not match the manifest entry.
    ImageHashMismatch { name: String },
    /// The manifest references an image that was not provided.
    MissingImage { name: String },
    /// Requested resources exceed what the partition can offer.
    InsufficientResources { requested: u64, available: u64 },
    /// Two mECalls share a name.
    DuplicateMcall { name: String },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::DeviceMismatch { manifest, mos } => {
                write!(f, "manifest targets {manifest} but mos manages {mos}")
            }
            ManifestError::ImageHashMismatch { name } => {
                write!(f, "image {name:?} does not match its manifest hash")
            }
            ManifestError::MissingImage { name } => {
                write!(f, "image {name:?} declared but not provided")
            }
            ManifestError::InsufficientResources {
                requested,
                available,
            } => {
                write!(f, "requested {requested} bytes, only {available} available")
            }
            ManifestError::DuplicateMcall { name } => {
                write!(f, "mecall {name:?} declared twice")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// An mEnclave manifest (paper Figure 3).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Device kind the enclave computes on.
    pub device_type: DeviceKind,
    /// Image name → expected hash (runtime, kernels, mOS pieces).
    pub images: BTreeMap<String, Digest>,
    /// Callable mECalls with their sRPC flags.
    pub mecalls: Vec<McallDecl>,
    /// Resource capacity.
    pub resources: Resources,
}

impl Manifest {
    /// Creates a manifest with no images (valid for fixed-function devices:
    /// "It can also be null, if a device executes only pre-defined
    /// functions", §IV-A).
    pub fn new(device_type: DeviceKind) -> Self {
        Manifest {
            device_type,
            images: BTreeMap::new(),
            mecalls: Vec::new(),
            resources: Resources::default(),
        }
    }

    /// Adds an image hash entry (builder style).
    pub fn with_image(mut self, name: &str, digest: Digest) -> Self {
        self.images.insert(name.to_string(), digest);
        self
    }

    /// Adds an mECall declaration (builder style).
    pub fn with_mecall(mut self, decl: McallDecl) -> Self {
        self.mecalls.push(decl);
        self
    }

    /// Sets the memory capacity (builder style).
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.resources.memory_bytes = bytes;
        self
    }

    /// Basic structural validation (duplicate mECalls).
    ///
    /// # Errors
    ///
    /// [`ManifestError::DuplicateMcall`].
    pub fn validate(&self) -> Result<(), ManifestError> {
        for (i, a) in self.mecalls.iter().enumerate() {
            if self.mecalls.iter().skip(i + 1).any(|b| b.name == a.name) {
                return Err(ManifestError::DuplicateMcall {
                    name: a.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Checks provided `images` (name → bytes) against the declared hashes.
    ///
    /// # Errors
    ///
    /// [`ManifestError::MissingImage`] or [`ManifestError::ImageHashMismatch`].
    pub fn check_images(&self, images: &BTreeMap<String, Vec<u8>>) -> Result<(), ManifestError> {
        for (name, expected) in &self.images {
            let bytes = images
                .get(name)
                .ok_or_else(|| ManifestError::MissingImage { name: name.clone() })?;
            if measure("image", bytes) != *expected {
                return Err(ManifestError::ImageHashMismatch { name: name.clone() });
            }
        }
        Ok(())
    }

    /// Looks up an mECall declaration by name.
    pub fn mecall(&self, name: &str) -> Option<&McallDecl> {
        self.mecalls.iter().find(|m| m.name == name)
    }

    /// A canonical byte encoding of the manifest for measurement.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.device_type.to_string().as_bytes());
        out.push(0);
        for (name, digest) in &self.images {
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.extend_from_slice(digest.as_bytes());
        }
        for m in &self.mecalls {
            out.extend_from_slice(m.name.as_bytes());
            out.push(if m.synchronous { 1 } else { 0 });
            out.push(if m.idempotent { 1 } else { 0 });
        }
        out.extend_from_slice(&self.resources.memory_bytes.to_le_bytes());
        out
    }

    /// The manifest measurement included in attestation reports.
    pub fn measurement(&self) -> Digest {
        measure("manifest", &self.canonical_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eid_packs_and_unpacks() {
        let eid = Eid::new(MosId(3), 0x00ab_cdef).unwrap();
        assert_eq!(eid.mos(), MosId(3));
        assert_eq!(eid.local(), 0x00ab_cdef);
        assert_eq!(eid.as_u32(), 0x03ab_cdef);
        assert_eq!(eid.to_string(), "e3.11259375");
    }

    #[test]
    fn eid_overflow_is_refused() {
        assert_eq!(Eid::new(MosId(0), 1 << 24), None);
        assert_eq!(Eid::new(MosId(0), 0), Some(Eid::NONE));
    }

    #[test]
    fn manifest_builder_and_lookup() {
        let m = Manifest::new(DeviceKind::Gpu)
            .with_image("mat.cubin", measure("image", b"cubin-bytes"))
            .with_mecall(McallDecl::asynchronous("cudaLaunchKernel"))
            .with_mecall(McallDecl::synchronous("cudaMemcpyD2H"))
            .with_memory(1 << 30);
        m.validate().unwrap();
        assert!(!m.mecall("cudaLaunchKernel").unwrap().synchronous);
        assert!(m.mecall("cudaMemcpyD2H").unwrap().synchronous);
        assert!(m.mecall("missing").is_none());
        assert_eq!(m.resources.memory_bytes, 1 << 30);
    }

    #[test]
    fn duplicate_mecall_rejected() {
        let m = Manifest::new(DeviceKind::Cpu)
            .with_mecall(McallDecl::synchronous("f"))
            .with_mecall(McallDecl::asynchronous("f"));
        assert_eq!(
            m.validate().unwrap_err(),
            ManifestError::DuplicateMcall { name: "f".into() }
        );
    }

    #[test]
    fn image_checking() {
        let good = b"kernel image".to_vec();
        let m = Manifest::new(DeviceKind::Gpu).with_image("k.cubin", measure("image", &good));

        let mut images = BTreeMap::new();
        assert_eq!(
            m.check_images(&images).unwrap_err(),
            ManifestError::MissingImage {
                name: "k.cubin".into()
            }
        );

        images.insert("k.cubin".to_string(), b"tampered".to_vec());
        assert_eq!(
            m.check_images(&images).unwrap_err(),
            ManifestError::ImageHashMismatch {
                name: "k.cubin".into()
            }
        );

        images.insert("k.cubin".to_string(), good);
        m.check_images(&images).unwrap();
    }

    #[test]
    fn measurement_distinguishes_manifests() {
        let a = Manifest::new(DeviceKind::Gpu).with_memory(1024);
        let b = Manifest::new(DeviceKind::Gpu).with_memory(2048);
        let c = Manifest::new(DeviceKind::Npu).with_memory(1024);
        assert_ne!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
        assert_eq!(a.measurement(), a.clone().measurement());
    }

    #[test]
    fn idempotence_is_declared_and_measured() {
        let m = Manifest::new(DeviceKind::Gpu)
            .with_mecall(McallDecl::asynchronous("cuLaunchKernel"))
            .with_mecall(McallDecl::synchronous("cuMemcpyD2H").idempotent());
        assert!(!m.mecall("cuLaunchKernel").unwrap().idempotent);
        assert!(m.mecall("cuMemcpyD2H").unwrap().idempotent);

        // Flipping the flag changes the measurement: retry eligibility is
        // part of what gets attested, not a mutable runtime knob.
        let flipped = Manifest::new(DeviceKind::Gpu)
            .with_mecall(McallDecl::asynchronous("cuLaunchKernel").idempotent())
            .with_mecall(McallDecl::synchronous("cuMemcpyD2H").idempotent());
        assert_ne!(m.measurement(), flipped.measurement());
    }

    #[test]
    fn empty_image_manifest_is_valid() {
        // Fixed-function devices may have no images.
        let m = Manifest::new(DeviceKind::Npu);
        m.validate().unwrap();
        m.check_images(&BTreeMap::new()).unwrap();
    }
}
