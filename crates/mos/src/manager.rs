//! Enclave Manager.
//!
//! "Enclave Manager implements several functionalities such as attestation
//! and bookkeeping the resources utilization, independent of the execution
//! model. When an untrusted app or an mEnclave invokes `create`, \[it\] reads
//! the manifest and mEnclave image, allocates resources and loads the
//! execution model ... The caller of `create` is the owner of the mEnclave,
//! and only the owner can invoke mECall of the created mEnclave." (§IV-A)
//!
//! Ownership is made robust against failing/substituted mOSes by integrating
//! Diffie–Hellman into creation: creator and enclave share `secret_dhke`,
//! and every pre-channel message is authenticated under it.

use std::collections::BTreeMap;
use std::fmt;

use cronus_crypto::dh::{DhKeyPair, SharedSecret};
use cronus_crypto::hmac::{hmac_sha256, verify_hmac};
use cronus_crypto::{measure, Digest, Sha256};
use cronus_sim::pagetable::PageTable;
use cronus_sim::Frame;

use crate::hal::DeviceCtx;
use crate::manifest::{Eid, Manifest, ManifestError, MosId};

/// Who created (and therefore owns) an mEnclave.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Owner {
    /// A normal-world application, identified by the dispatcher.
    App(u32),
    /// Another mEnclave.
    Enclave(Eid),
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::App(id) => write!(f, "app{id}"),
            Owner::Enclave(eid) => write!(f, "{eid}"),
        }
    }
}

/// Errors from the Enclave Manager.
#[derive(Clone, Debug, PartialEq)]
pub enum ManagerError {
    /// Manifest rejected.
    Manifest(ManifestError),
    /// The eid does not exist (or was destroyed).
    UnknownEnclave(Eid),
    /// The caller is not the enclave's owner.
    NotOwner { eid: Eid, caller: Owner },
    /// 24-bit local id space exhausted.
    EidSpaceExhausted,
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::Manifest(e) => write!(f, "manifest rejected: {e}"),
            ManagerError::UnknownEnclave(eid) => write!(f, "unknown enclave {eid}"),
            ManagerError::NotOwner { eid, caller } => {
                write!(f, "{caller} is not the owner of {eid}")
            }
            ManagerError::EidSpaceExhausted => f.write_str("local enclave id space exhausted"),
        }
    }
}

impl std::error::Error for ManagerError {}

impl From<ManifestError> for ManagerError {
    fn from(e: ManifestError) -> Self {
        ManagerError::Manifest(e)
    }
}

/// Base of the per-enclave virtual address space for mapped pages.
pub(crate) const ENCLAVE_VA_BASE: u64 = 0x0001_0000;

/// An mEnclave's address space: created and torn down with its entry, so a
/// live enclave always has one.
#[derive(Clone, Debug)]
pub(crate) struct AddressSpace {
    /// The stage-1 table.
    pub(crate) stage1: PageTable,
    /// Where the next mapping goes.
    pub(crate) next_va: u64,
    /// Private frames, returned to the machine on teardown.
    pub(crate) owned_frames: Vec<Frame>,
}

/// Book-keeping for one live mEnclave.
#[derive(Clone, Debug)]
pub struct EnclaveEntry {
    /// The enclave id.
    pub eid: Eid,
    /// Validated manifest.
    pub manifest: Manifest,
    /// Measurement over manifest + images (goes into attestation reports).
    pub measurement: Digest,
    /// The creator; sole principal allowed to invoke mECalls.
    pub owner: Owner,
    /// Device context backing this enclave.
    pub ctx: DeviceCtx,
    /// The enclave's DH public share (sent back to the creator).
    pub dh_public: u64,
    secret: SharedSecret,
    pub(crate) space: AddressSpace,
}

impl EnclaveEntry {
    /// The shared `secret_dhke` with the owner. Private to the secure world;
    /// exposed here for the protocol layers in `cronus-core`.
    pub fn secret_dhke(&self) -> &SharedSecret {
        &self.secret
    }

    /// Authenticates `msg` under `secret_dhke` (for untrusted-memory
    /// messages such as local-attestation requests).
    pub fn sign_message(&self, msg: &[u8]) -> Digest {
        hmac_sha256(self.secret.as_bytes(), msg)
    }

    /// Verifies a `secret_dhke`-authenticated message.
    pub fn verify_message(&self, msg: &[u8], tag: &Digest) -> bool {
        verify_hmac(self.secret.as_bytes(), msg, tag)
    }
}

/// The per-mOS enclave manager.
#[derive(Debug)]
pub struct EnclaveManager {
    mos: MosId,
    next_local: u32,
    enclaves: BTreeMap<Eid, EnclaveEntry>,
}

impl EnclaveManager {
    /// Creates a manager for `mos`.
    pub fn new(mos: MosId) -> Self {
        EnclaveManager {
            mos,
            next_local: 1,
            enclaves: BTreeMap::new(),
        }
    }

    /// The hosting mOS id.
    pub fn mos_id(&self) -> MosId {
        self.mos
    }

    /// Registers a new enclave: validates the manifest structure and image
    /// hashes, measures them, mints an eid and completes the DH exchange
    /// with the creator.
    ///
    /// The caller (the mOS) must have already created the device context
    /// `ctx` according to the manifest's resources.
    ///
    /// # Errors
    ///
    /// Manifest validation failures or eid exhaustion.
    pub fn create(
        &mut self,
        manifest: Manifest,
        images: &BTreeMap<String, Vec<u8>>,
        owner: Owner,
        owner_dh_public: u64,
        ctx: DeviceCtx,
    ) -> Result<Eid, ManagerError> {
        manifest.validate()?;
        manifest.check_images(images)?;
        let eid = Eid::new(self.mos, self.next_local).ok_or(ManagerError::EidSpaceExhausted)?;
        self.next_local += 1;

        let measurement = Self::measure(&manifest, images);
        // The enclave's DH share is derived from its identity + measurement,
        // making the whole simulation deterministic.
        let dh = DhKeyPair::from_seed(&format!("enclave:{}:{}", eid, measurement));
        let secret = dh.agree(owner_dh_public);

        self.enclaves.insert(
            eid,
            EnclaveEntry {
                eid,
                manifest,
                measurement,
                owner,
                ctx,
                dh_public: dh.public(),
                secret,
                space: AddressSpace {
                    stage1: PageTable::new(),
                    next_va: ENCLAVE_VA_BASE,
                    owned_frames: Vec::new(),
                },
            },
        );
        Ok(eid)
    }

    /// Measurement over a manifest and its provided images.
    pub fn measure(manifest: &Manifest, images: &BTreeMap<String, Vec<u8>>) -> Digest {
        let mut h = Sha256::new();
        h.update(measure("manifest", &manifest.canonical_bytes()).as_bytes());
        for (name, bytes) in images {
            h.update(name.as_bytes());
            h.update(&[0]);
            h.update(measure("image", bytes).as_bytes());
        }
        h.finalize()
    }

    /// Looks up an enclave.
    ///
    /// # Errors
    ///
    /// [`ManagerError::UnknownEnclave`].
    pub fn entry(&self, eid: Eid) -> Result<&EnclaveEntry, ManagerError> {
        self.enclaves
            .get(&eid)
            .ok_or(ManagerError::UnknownEnclave(eid))
    }

    /// [`EnclaveManager::entry`], to update the enclave's address space.
    pub(crate) fn entry_mut(&mut self, eid: Eid) -> Result<&mut EnclaveEntry, ManagerError> {
        self.enclaves
            .get_mut(&eid)
            .ok_or(ManagerError::UnknownEnclave(eid))
    }

    /// Checks that `caller` owns `eid` (mECall authorization).
    ///
    /// # Errors
    ///
    /// [`ManagerError::UnknownEnclave`] or [`ManagerError::NotOwner`].
    pub fn authorize(&self, eid: Eid, caller: Owner) -> Result<&EnclaveEntry, ManagerError> {
        let entry = self.entry(eid)?;
        if entry.owner != caller {
            return Err(ManagerError::NotOwner { eid, caller });
        }
        Ok(entry)
    }

    /// Destroys an enclave, returning its entry: the device context for the
    /// HAL and the private frames for the machine to take back.
    ///
    /// # Errors
    ///
    /// [`ManagerError::UnknownEnclave`].
    pub fn destroy(&mut self, eid: Eid) -> Result<EnclaveEntry, ManagerError> {
        self.enclaves
            .remove(&eid)
            .ok_or(ManagerError::UnknownEnclave(eid))
    }

    /// Every live enclave, in eid order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &EnclaveEntry> {
        self.enclaves.values()
    }

    /// Number of live enclaves.
    pub fn len(&self) -> usize {
        self.enclaves.len()
    }

    /// Returns true when no enclaves are live.
    pub fn is_empty(&self) -> bool {
        self.enclaves.is_empty()
    }

    /// Measurements of all live enclaves, in eid order (attestation input:
    /// "mOSes measure the hashes of mEnclaves").
    pub fn enclave_measurements(&self) -> Vec<(Eid, Digest)> {
        self.entries().map(|e| (e.eid, e.measurement)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_devices::DeviceKind;

    fn manager() -> EnclaveManager {
        EnclaveManager::new(MosId(2))
    }

    fn create_one(mgr: &mut EnclaveManager, owner: Owner) -> Eid {
        let manifest = Manifest::new(DeviceKind::Gpu);
        let dh = DhKeyPair::from_seed("owner");
        mgr.create(
            manifest,
            &BTreeMap::new(),
            owner,
            dh.public(),
            DeviceCtx::Cpu(0),
        )
        .unwrap()
    }

    #[test]
    fn create_mints_scoped_eids() {
        let mut mgr = manager();
        let a = create_one(&mut mgr, Owner::App(1));
        let b = create_one(&mut mgr, Owner::App(1));
        assert_eq!(a.mos(), MosId(2));
        assert_eq!(b.mos(), MosId(2));
        assert_ne!(a, b);
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn ownership_is_enforced() {
        let mut mgr = manager();
        let eid = create_one(&mut mgr, Owner::App(1));
        assert!(mgr.authorize(eid, Owner::App(1)).is_ok());
        let err = mgr.authorize(eid, Owner::App(2)).unwrap_err();
        assert!(matches!(err, ManagerError::NotOwner { .. }));
        let other = Eid::new(MosId(9), 1).unwrap();
        assert_eq!(
            mgr.authorize(other, Owner::App(1)).unwrap_err(),
            ManagerError::UnknownEnclave(other)
        );
    }

    #[test]
    fn dh_secret_matches_owner_side() {
        let mut mgr = manager();
        let manifest = Manifest::new(DeviceKind::Gpu);
        let owner_dh = DhKeyPair::from_seed("owner-session");
        let eid = mgr
            .create(
                manifest,
                &BTreeMap::new(),
                Owner::App(7),
                owner_dh.public(),
                DeviceCtx::Cpu(0),
            )
            .unwrap();
        let entry = mgr.entry(eid).unwrap();
        let owner_secret = owner_dh.agree(entry.dh_public);
        assert_eq!(*entry.secret_dhke(), owner_secret);

        // Message authentication under secret_dhke.
        let tag = entry.sign_message(b"local-attestation-request");
        assert!(entry.verify_message(b"local-attestation-request", &tag));
        assert!(!entry.verify_message(b"forged", &tag));
    }

    #[test]
    fn bad_images_rejected() {
        let mut mgr = manager();
        let manifest =
            Manifest::new(DeviceKind::Gpu).with_image("k.cubin", measure("image", b"real"));
        let mut images = BTreeMap::new();
        images.insert("k.cubin".to_string(), b"fake".to_vec());
        let err = mgr
            .create(manifest, &images, Owner::App(1), 1, DeviceCtx::Cpu(0))
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::Manifest(ManifestError::ImageHashMismatch { .. })
        ));
        assert!(mgr.is_empty());
    }

    #[test]
    fn destroy_removes_and_returns_ctx() {
        let mut mgr = manager();
        let eid = create_one(&mut mgr, Owner::App(1));
        assert_eq!(mgr.destroy(eid).unwrap().ctx, DeviceCtx::Cpu(0));
        assert!(mgr.entry(eid).is_err());
        assert_eq!(
            mgr.destroy(eid).unwrap_err(),
            ManagerError::UnknownEnclave(eid)
        );
    }

    #[test]
    fn measurements_are_sorted_and_distinct() {
        let mut mgr = manager();
        let a = create_one(&mut mgr, Owner::App(1));
        let b = create_one(&mut mgr, Owner::App(2));
        let ms = mgr.enclave_measurements();
        assert_eq!(ms.len(), 2);
        assert!(ms[0].0 < ms[1].0);
        // Same manifest, same images => same measurement is fine; eids differ.
        assert!(ms.iter().any(|(e, _)| *e == a));
        assert!(ms.iter().any(|(e, _)| *e == b));
    }

    #[test]
    fn enclave_owned_enclaves() {
        let mut mgr = manager();
        let parent = Eid::new(MosId(1), 1).unwrap();
        let child = create_one(&mut mgr, Owner::Enclave(parent));
        assert!(mgr.authorize(child, Owner::Enclave(parent)).is_ok());
        assert!(mgr.authorize(child, Owner::App(1)).is_err());
    }
}
