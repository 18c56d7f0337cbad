//! The MicroOS proper: one partition's OS image.
//!
//! `MicroOs` combines the [`EnclaveManager`], the [`DeviceHal`] and the
//! [`ShimKernel`]. An enclave's stage-1 table lives in its manager entry;
//! every enclave memory access walks
//! `stage-1 (here) → stage-2 (machine) → TZASC (machine)`.
//!
//! The mOS itself can *fail* (status flips to [`MosStatus::Failed`]) and be
//! *restarted* from its image — the SPM drives the full §IV-D recovery
//! sequence around these two operations.

use std::collections::BTreeMap;
use std::fmt;

use cronus_crypto::{measure, Digest};
use cronus_devices::DeviceKind;
use cronus_sim::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use cronus_sim::machine::AsId;
use cronus_sim::pagetable::{Access, PagePerms, PageTable};
use cronus_sim::{Fault, Machine, World};

use crate::hal::{DeviceHal, HalError};
use crate::manager::{EnclaveManager, ManagerError, Owner};
use crate::manifest::{Eid, Manifest, MosId};
use crate::shim::ShimKernel;

/// Run state of an mOS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MosStatus {
    /// Serving requests.
    Running,
    /// Crashed / panicked / killed; awaiting SPM recovery.
    Failed,
}

/// Errors from mOS operations.
#[derive(Clone, Debug, PartialEq)]
pub enum MosError {
    /// Enclave-manager error (ownership, manifests, unknown eids).
    Manager(ManagerError),
    /// HAL/driver error.
    Hal(HalError),
    /// An architectural fault (stage-1 faults are minted here; stage-2 and
    /// TZASC faults propagate from the machine).
    Fault(Fault),
    /// Secure memory exhausted.
    OutOfMemory,
    /// The mOS is marked failed and refuses service.
    NotRunning,
}

impl fmt::Display for MosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosError::Manager(e) => write!(f, "enclave manager: {e}"),
            MosError::Hal(e) => write!(f, "hal: {e}"),
            MosError::Fault(e) => write!(f, "fault: {e}"),
            MosError::OutOfMemory => f.write_str("secure memory exhausted"),
            MosError::NotRunning => f.write_str("mos is not running"),
        }
    }
}

impl std::error::Error for MosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MosError::Manager(e) => Some(e),
            MosError::Hal(e) => Some(e),
            MosError::Fault(e) => Some(e),
            MosError::OutOfMemory | MosError::NotRunning => None,
        }
    }
}

impl From<ManagerError> for MosError {
    fn from(e: ManagerError) -> Self {
        MosError::Manager(e)
    }
}

impl From<HalError> for MosError {
    fn from(e: HalError) -> Self {
        MosError::Hal(e)
    }
}

impl From<Fault> for MosError {
    fn from(e: Fault) -> Self {
        MosError::Fault(e)
    }
}

/// One MicroOS instance.
pub struct MicroOs {
    id: MosId,
    asid: AsId,
    image_digest: Digest,
    version: String,
    hal: DeviceHal,
    shim: ShimKernel,
    manager: EnclaveManager,
    status: MosStatus,
}

impl fmt::Debug for MicroOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MicroOs")
            .field("id", &self.id)
            .field("asid", &self.asid)
            .field("kind", &self.hal.kind())
            .field("status", &self.status)
            .field("enclaves", &self.manager.len())
            .finish_non_exhaustive()
    }
}

impl MicroOs {
    /// Boots an mOS from `image` bytes (the digest is measured for
    /// attestation, exactly as "CRONUS's secure monitor measures hashes of
    /// mOSes") into partition `asid`, managing the device behind `hal`.
    pub fn new(id: MosId, asid: AsId, image: &[u8], version: &str, hal: DeviceHal) -> Self {
        MicroOs {
            id,
            asid,
            image_digest: measure("mos-image", image),
            version: version.to_string(),
            hal,
            shim: ShimKernel::new(),
            manager: EnclaveManager::new(id),
            status: MosStatus::Running,
        }
    }

    /// mOS identifier.
    pub fn id(&self) -> MosId {
        self.id
    }

    /// Hosting partition.
    pub fn asid(&self) -> AsId {
        self.asid
    }

    /// Measured image digest.
    pub fn image_digest(&self) -> Digest {
        self.image_digest
    }

    /// mOS software version (different services may run different versions
    /// of the same device's mOS, §III-B).
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Managed device kind.
    pub fn device_kind(&self) -> DeviceKind {
        self.hal.kind()
    }

    /// Current status.
    pub fn status(&self) -> MosStatus {
        self.status
    }

    /// The HAL (for runtime layers issuing device operations).
    pub fn hal(&self) -> &DeviceHal {
        &self.hal
    }

    /// Mutable HAL access.
    pub fn hal_mut(&mut self) -> &mut DeviceHal {
        &mut self.hal
    }

    /// Every enclave's stage-1 table, in enclave-id order — the full
    /// stage-1 mapping state, used by the isolation auditor.
    pub fn stage1_tables(&self) -> Vec<(Eid, &PageTable)> {
        let entries = self.manager.entries();
        entries.map(|e| (e.eid, &e.space.stage1)).collect()
    }

    /// The enclave manager (read side).
    pub fn manager(&self) -> &EnclaveManager {
        &self.manager
    }

    fn ensure_running(&self) -> Result<(), MosError> {
        if self.status == MosStatus::Running {
            Ok(())
        } else {
            Err(MosError::NotRunning)
        }
    }

    /// Creates an mEnclave: allocates the device context per the manifest,
    /// registers it with the Enclave Manager and sets up an empty stage-1
    /// address space.
    ///
    /// # Errors
    ///
    /// Manifest mismatches (including a device-type mismatch with this mOS),
    /// device out-of-memory, or [`MosError::NotRunning`].
    pub fn create_enclave(
        &mut self,
        manifest: Manifest,
        images: &BTreeMap<String, Vec<u8>>,
        owner: Owner,
        owner_dh_public: u64,
    ) -> Result<Eid, MosError> {
        self.ensure_running()?;
        if manifest.device_type != self.hal.kind() {
            return Err(MosError::Manager(ManagerError::Manifest(
                crate::manifest::ManifestError::DeviceMismatch {
                    manifest: manifest.device_type,
                    mos: self.hal.kind(),
                },
            )));
        }
        let ctx = self.hal.create_context(manifest.resources.memory_bytes)?;
        let created = self
            .manager
            .create(manifest, images, owner, owner_dh_public, ctx);
        created.map_err(|e| {
            // Roll back the device context on manifest failure.
            let _ = self.hal.destroy_context(ctx);
            e.into()
        })
    }

    /// Destroys an mEnclave, tearing down its device context, stage-1 table
    /// and returning its private frames to the machine.
    ///
    /// # Errors
    ///
    /// [`ManagerError::UnknownEnclave`] via [`MosError::Manager`].
    pub fn destroy_enclave(&mut self, machine: &mut Machine, eid: Eid) -> Result<(), MosError> {
        let entry = self.manager.destroy(eid)?;
        let _ = self.hal.destroy_context(entry.ctx);
        for frame in entry.space.owned_frames {
            machine.stage2_revoke(self.asid, frame.page());
            machine.free_frame(frame);
        }
        Ok(())
    }

    /// Allocates `pages` secure pages for an enclave, grants them in the
    /// partition's stage-2 table and maps them into the enclave's stage-1
    /// address space. Returns the base virtual address.
    ///
    /// # Errors
    ///
    /// [`MosError::OutOfMemory`], stage-2 grant faults, or unknown eids.
    pub fn alloc_enclave_pages(
        &mut self,
        machine: &mut Machine,
        eid: Eid,
        pages: usize,
    ) -> Result<VirtAddr, MosError> {
        self.ensure_running()?;
        self.manager.entry(eid)?;
        let frames = machine
            .alloc_frames(World::Secure, pages)
            .ok_or(MosError::OutOfMemory)?;
        for frame in &frames {
            machine.stage2_grant(self.asid, frame.page(), PagePerms::RW)?;
        }
        let ppns: Vec<u64> = frames.iter().map(|f| f.page()).collect();
        self.manager
            .entry_mut(eid)?
            .space
            .owned_frames
            .extend(frames);
        self.map_pages(eid, &ppns, PagePerms::RW)
    }

    /// Maps already-granted physical pages into an enclave's stage-1 table
    /// (used by the SPM's shared-memory flow). Returns the base VA.
    ///
    /// # Errors
    ///
    /// Unknown eid.
    pub fn map_pages(
        &mut self,
        eid: Eid,
        ppns: &[u64],
        perms: PagePerms,
    ) -> Result<VirtAddr, MosError> {
        let space = &mut self.manager.entry_mut(eid)?.space;
        let base = VirtAddr::new(space.next_va);
        for (i, ppn) in ppns.iter().enumerate() {
            space.stage1.map(base.page_number() + i as u64, *ppn, perms);
        }
        space.next_va += ppns.len() as u64 * PAGE_SIZE;
        Ok(base)
    }

    /// Removes every stage-1 mapping of `eid` onto one of `ppns`. Returns
    /// the number removed. This is the mOS half of trap handling: "CRONUS
    /// asks P_i to invalidate the mEnclave's page table entries that map
    /// memory to P_a's" (§IV-D step 3).
    pub fn unmap_phys_pages(&mut self, eid: Eid, ppns: &[u64]) -> usize {
        let Ok(entry) = self.manager.entry_mut(eid) else {
            return 0;
        };
        let table = &mut entry.space.stage1;
        table.unmap_where(|ppn| ppns.contains(&ppn)).len()
    }

    /// Translates an enclave VA (stage-1 only).
    ///
    /// # Errors
    ///
    /// Stage-1 faults; unknown eids.
    pub fn translate(&self, eid: Eid, va: VirtAddr, access: Access) -> Result<PhysAddr, MosError> {
        let table = &self.manager.entry(eid)?.space.stage1;
        Ok(table.translate(self.asid, va, access)?)
    }

    /// Full checked enclave read: stage-1 here, stage-2 + TZASC in the
    /// machine. Handles page-crossing accesses.
    ///
    /// # Errors
    ///
    /// Any translation or filter fault, or [`MosError::NotRunning`].
    pub fn enclave_read(
        &self,
        machine: &mut Machine,
        eid: Eid,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), MosError> {
        self.ensure_running()?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va.add(done as u64);
            let pa = self.translate(eid, cur, Access::Read)?;
            let n = (buf.len() - done).min((PAGE_SIZE - cur.page_offset()) as usize);
            let Some(chunk) = buf.get_mut(done..done + n) else {
                break;
            };
            machine.mem_read(self.asid, World::Secure, pa, chunk)?;
            done += n;
        }
        Ok(())
    }

    /// Full checked enclave write; see [`MicroOs::enclave_read`].
    ///
    /// # Errors
    ///
    /// Any translation or filter fault, or [`MosError::NotRunning`].
    pub fn enclave_write(
        &self,
        machine: &mut Machine,
        eid: Eid,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), MosError> {
        self.ensure_running()?;
        let mut done = 0usize;
        while done < data.len() {
            let cur = va.add(done as u64);
            let pa = self.translate(eid, cur, Access::Write)?;
            let n = (data.len() - done).min((PAGE_SIZE - cur.page_offset()) as usize);
            let Some(chunk) = data.get(done..done + n) else {
                break;
            };
            machine.mem_write(self.asid, World::Secure, pa, chunk)?;
            done += n;
        }
        Ok(())
    }

    /// Marks the mOS failed (panic / kill / hang detected).
    pub fn fail(&mut self) {
        self.status = MosStatus::Failed;
    }

    /// Restarts the mOS from a (possibly new) image: wipes all enclaves,
    /// stage-1 tables and device contexts, frees owned frames, and returns
    /// to [`MosStatus::Running`]. The SPM performs the §IV-D clearing of
    /// shared memory *before* calling this.
    pub fn restart(&mut self, machine: &mut Machine, image: &[u8], version: &str) {
        self.hal.reset_device();
        let wiped = std::mem::replace(&mut self.manager, EnclaveManager::new(self.id));
        for frame in wiped.entries().flat_map(|e| &e.space.owned_frames) {
            machine.stage2_revoke(self.asid, frame.page());
            machine.free_frame(*frame);
        }
        for frame in self.shim.drain_heap() {
            machine.free_frame(frame);
        }
        self.image_digest = measure("mos-image", image);
        self.version = version.to_string();
        self.status = MosStatus::Running;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ENCLAVE_VA_BASE;
    use cronus_devices::gpu::GpuDevice;
    use cronus_sim::tzpc::DeviceId;
    use cronus_sim::{MachineConfig, StreamId};

    fn setup() -> (Machine, MicroOs) {
        let mut machine = Machine::new(MachineConfig::default());
        let asid = AsId::new(2);
        machine.register_partition(asid);
        let gpu = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 24, 46);
        let mos = MicroOs::new(
            MosId(2),
            asid,
            b"cuda-mos-image-v3",
            "v3",
            DeviceHal::Gpu(gpu),
        );
        (machine, mos)
    }

    fn gpu_manifest() -> Manifest {
        Manifest::new(DeviceKind::Gpu).with_memory(1 << 20)
    }

    #[test]
    fn create_enclave_and_alloc_memory() {
        let (mut machine, mut mos) = setup();
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 42)
            .unwrap();
        assert_eq!(eid.mos(), MosId(2));
        assert_eq!(mos.hal().context_count(), 1);

        let va = mos.alloc_enclave_pages(&mut machine, eid, 2).unwrap();
        mos.enclave_write(&mut machine, eid, va, b"hello enclave")
            .unwrap();
        let mut buf = [0u8; 13];
        mos.enclave_read(&mut machine, eid, va, &mut buf).unwrap();
        assert_eq!(&buf, b"hello enclave");
    }

    #[test]
    fn cross_page_enclave_access() {
        let (mut machine, mut mos) = setup();
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 42)
            .unwrap();
        let va = mos.alloc_enclave_pages(&mut machine, eid, 2).unwrap();
        let end_of_first = va.add(PAGE_SIZE - 2);
        mos.enclave_write(&mut machine, eid, end_of_first, &[1, 2, 3, 4])
            .unwrap();
        let mut buf = [0u8; 4];
        mos.enclave_read(&mut machine, eid, end_of_first, &mut buf)
            .unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn device_type_mismatch_rejected() {
        let (_machine, mut mos) = setup();
        let err = mos
            .create_enclave(
                Manifest::new(DeviceKind::Npu),
                &BTreeMap::new(),
                Owner::App(1),
                1,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            MosError::Manager(ManagerError::Manifest(
                crate::manifest::ManifestError::DeviceMismatch { .. }
            ))
        ));
        // No leaked device context.
        assert_eq!(mos.hal().context_count(), 0);
    }

    #[test]
    fn unmapped_va_faults_stage1() {
        let (mut machine, mut mos) = setup();
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
            .unwrap();
        let mut buf = [0u8; 1];
        let err = mos
            .enclave_read(&mut machine, eid, VirtAddr::new(0xdead_0000), &mut buf)
            .unwrap_err();
        assert!(matches!(err, MosError::Fault(Fault::Stage1Unmapped { .. })));
    }

    #[test]
    fn destroy_enclave_frees_frames() {
        let (mut machine, mut mos) = setup();
        let before = machine.free_pages(World::Secure);
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
            .unwrap();
        mos.alloc_enclave_pages(&mut machine, eid, 4).unwrap();
        assert_eq!(machine.free_pages(World::Secure), before - 4);
        mos.destroy_enclave(&mut machine, eid).unwrap();
        assert_eq!(machine.free_pages(World::Secure), before);
        assert_eq!(mos.hal().context_count(), 0);
    }

    #[test]
    fn failed_mos_refuses_service() {
        let (mut machine, mut mos) = setup();
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
            .unwrap();
        let va = mos.alloc_enclave_pages(&mut machine, eid, 1).unwrap();
        mos.fail();
        assert_eq!(mos.status(), MosStatus::Failed);
        assert_eq!(
            mos.create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
                .unwrap_err(),
            MosError::NotRunning
        );
        let mut buf = [0u8; 1];
        assert_eq!(
            mos.enclave_read(&mut machine, eid, va, &mut buf)
                .unwrap_err(),
            MosError::NotRunning
        );
    }

    #[test]
    fn restart_wipes_state_and_changes_measurement() {
        let (mut machine, mut mos) = setup();
        let before_pages = machine.free_pages(World::Secure);
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
            .unwrap();
        mos.alloc_enclave_pages(&mut machine, eid, 3).unwrap();
        let old_digest = mos.image_digest();
        mos.fail();
        mos.restart(&mut machine, b"cuda-mos-image-v4", "v4");
        assert_eq!(mos.status(), MosStatus::Running);
        assert_eq!(mos.manager().len(), 0);
        assert_eq!(machine.free_pages(World::Secure), before_pages);
        assert_ne!(mos.image_digest(), old_digest);
        assert_eq!(mos.version(), "v4");
        // The old eid is gone.
        assert!(mos
            .translate(eid, VirtAddr::new(ENCLAVE_VA_BASE), Access::Read)
            .is_err());
    }

    #[test]
    fn unmap_phys_pages_counts() {
        let (mut machine, mut mos) = setup();
        let eid = mos
            .create_enclave(gpu_manifest(), &BTreeMap::new(), Owner::App(1), 1)
            .unwrap();
        let va = mos.alloc_enclave_pages(&mut machine, eid, 2).unwrap();
        let pa = mos.translate(eid, va, Access::Read).unwrap();
        let removed = mos.unmap_phys_pages(eid, &[pa.page_number()]);
        assert_eq!(removed, 1);
        let mut buf = [0u8; 1];
        assert!(mos.enclave_read(&mut machine, eid, va, &mut buf).is_err());
        // Second page still mapped.
        assert!(mos
            .enclave_read(&mut machine, eid, va.add(PAGE_SIZE), &mut buf)
            .is_ok());
    }
}
