//! Shim kernel library — the LibOS for device drivers.
//!
//! The paper observes that open-source drivers are "mature and modular" and
//! runs them unmodified inside mOSes by providing "standard kernel functions
//! (e.g., ioremap)" through a shim runtime (§IV-B). Our drivers are the
//! simulated devices, but the shim still provides the kernel-facing pieces
//! CRONUS's protocols rely on:
//!
//! * a per-mOS page heap (`kmalloc`-style) carved from secure frames,
//! * `ioremap` bookkeeping for MMIO windows,
//! * [`SharedSpinLock`]: a lock living *in trusted shared memory*, acquired
//!   with architectural reads/writes. The paper replaces mutexes with
//!   spinlocks "which avoids involvements of the untrusted OS" (§IV-C), and
//!   its deadlock attack A2 (§IV-D) is precisely a peer dying while holding
//!   such a lock — our lock faults through the machine exactly like any
//!   other shared-memory access, so the proceed-trap protocol covers it.

use std::collections::BTreeMap;
use std::fmt;

use cronus_sim::addr::{PhysAddr, PhysRange};
use cronus_sim::machine::AsId;
use cronus_sim::{Fault, Frame, Machine, World};

/// Errors from the shared spinlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinLockError {
    /// The underlying memory access faulted (e.g. the peer partition failed
    /// and its stage-2 entries were invalidated) — the caller should treat
    /// this as the failure signal of §IV-D step 3.
    Fault(Fault),
    /// The lock is held by someone else (try-acquire failed).
    Contended { holder: u32 },
    /// Release attempted by a non-holder.
    NotHolder { holder: u32 },
}

impl fmt::Display for SpinLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpinLockError::Fault(fault) => write!(f, "lock access faulted: {fault}"),
            SpinLockError::Contended { holder } => {
                write!(f, "lock is held by owner {holder}")
            }
            SpinLockError::NotHolder { holder } => {
                write!(f, "lock held by {holder}, not by releaser")
            }
        }
    }
}

impl std::error::Error for SpinLockError {}

impl From<Fault> for SpinLockError {
    fn from(f: Fault) -> Self {
        SpinLockError::Fault(f)
    }
}

/// A spinlock word in (shared) physical memory.
///
/// Value 0 = free; any other value = the holder's tag. All operations go
/// through the machine's checked access path, so stage-2 invalidation is
/// observed as [`SpinLockError::Fault`] instead of a hang — this is what
/// makes the A2 deadlock recoverable.
#[derive(Clone, Copy, Debug)]
pub struct SharedSpinLock {
    word: PhysAddr,
}

impl SharedSpinLock {
    /// Creates a lock over the 4-byte word at `word`.
    pub fn new(word: PhysAddr) -> Self {
        SharedSpinLock { word }
    }

    /// The lock word's address.
    pub fn addr(&self) -> PhysAddr {
        self.word
    }

    fn read_word(&self, machine: &mut Machine, asid: AsId, world: World) -> Result<u32, Fault> {
        let bytes = machine.mem_read_vec(asid, world, self.word, 4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn write_word(
        &self,
        machine: &mut Machine,
        asid: AsId,
        world: World,
        value: u32,
    ) -> Result<(), Fault> {
        machine.mem_write(asid, world, self.word, &value.to_le_bytes())
    }

    /// Attempts to acquire the lock for holder `tag` (must be nonzero).
    ///
    /// The simulation is single-threaded per step, so read-check-write is an
    /// adequate model of compare-and-swap.
    ///
    /// # Errors
    ///
    /// [`SpinLockError::Contended`] when held, [`SpinLockError::Fault`] when
    /// the memory access traps.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is zero (reserved for "free").
    pub fn try_acquire(
        &self,
        machine: &mut Machine,
        asid: AsId,
        world: World,
        tag: u32,
    ) -> Result<(), SpinLockError> {
        assert!(tag != 0, "holder tag 0 is reserved for the free state");
        let current = self.read_word(machine, asid, world)?;
        if current != 0 {
            return Err(SpinLockError::Contended { holder: current });
        }
        self.write_word(machine, asid, world, tag)?;
        Ok(())
    }

    /// Releases the lock held by `tag`.
    ///
    /// # Errors
    ///
    /// [`SpinLockError::NotHolder`] on ownership mismatch, or a fault.
    pub fn release(
        &self,
        machine: &mut Machine,
        asid: AsId,
        world: World,
        tag: u32,
    ) -> Result<(), SpinLockError> {
        let current = self.read_word(machine, asid, world)?;
        if current != tag {
            return Err(SpinLockError::NotHolder { holder: current });
        }
        self.write_word(machine, asid, world, 0)?;
        Ok(())
    }

    /// Returns the current holder tag (0 = free).
    ///
    /// # Errors
    ///
    /// A fault if the word is unreachable.
    pub fn holder(
        &self,
        machine: &mut Machine,
        asid: AsId,
        world: World,
    ) -> Result<u32, SpinLockError> {
        Ok(self.read_word(machine, asid, world)?)
    }
}

/// The per-mOS shim kernel: heap pages and ioremap records.
#[derive(Debug, Default)]
pub struct ShimKernel {
    heap: Vec<Frame>,
    ioremaps: BTreeMap<u64, PhysRange>,
    next_iomap: u64,
}

impl ShimKernel {
    /// Creates an empty shim.
    pub fn new() -> Self {
        ShimKernel::default()
    }

    /// `kmalloc`-style: takes ownership of secure frames for driver state.
    pub fn add_heap_frames(&mut self, frames: Vec<Frame>) {
        self.heap.extend(frames);
    }

    /// Heap frames currently owned (released to the machine on teardown).
    pub fn heap_frames(&self) -> &[Frame] {
        &self.heap
    }

    /// Drains the heap for teardown, returning the frames to free.
    pub fn drain_heap(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.heap)
    }

    /// `ioremap`: records a driver mapping of an MMIO window, returning a
    /// cookie the driver uses to refer to it.
    pub fn ioremap(&mut self, window: PhysRange) -> u64 {
        let cookie = self.next_iomap;
        self.next_iomap += 1;
        self.ioremaps.insert(cookie, window);
        cookie
    }

    /// `iounmap`: removes a mapping. Returns true if it existed.
    pub fn iounmap(&mut self, cookie: u64) -> bool {
        self.ioremaps.remove(&cookie).is_some()
    }

    /// Resolves an ioremap cookie.
    pub fn iomap(&self, cookie: u64) -> Option<PhysRange> {
        self.ioremaps.get(&cookie).copied()
    }

    /// Number of live MMIO mappings.
    pub fn iomap_count(&self) -> usize {
        self.ioremaps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_sim::pagetable::PagePerms;
    use cronus_sim::MachineConfig;

    const P1: AsId = AsId::new(1);
    const P2: AsId = AsId::new(2);

    fn setup() -> (Machine, SharedSpinLock) {
        let mut m = Machine::new(MachineConfig::default());
        m.register_partition(P1);
        m.register_partition(P2);
        let frame = m.alloc_frame(World::Secure).unwrap();
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        m.stage2_grant(P2, frame.page(), PagePerms::RW).unwrap();
        (m, SharedSpinLock::new(frame.base()))
    }

    #[test]
    fn acquire_release_cycle() {
        let (mut m, lock) = setup();
        lock.try_acquire(&mut m, P1, World::Secure, 1).unwrap();
        assert_eq!(lock.holder(&mut m, P2, World::Secure).unwrap(), 1);
        assert_eq!(
            lock.try_acquire(&mut m, P2, World::Secure, 2).unwrap_err(),
            SpinLockError::Contended { holder: 1 }
        );
        lock.release(&mut m, P1, World::Secure, 1).unwrap();
        lock.try_acquire(&mut m, P2, World::Secure, 2).unwrap();
    }

    #[test]
    fn release_by_non_holder_rejected() {
        let (mut m, lock) = setup();
        lock.try_acquire(&mut m, P1, World::Secure, 1).unwrap();
        assert_eq!(
            lock.release(&mut m, P2, World::Secure, 2).unwrap_err(),
            SpinLockError::NotHolder { holder: 1 }
        );
    }

    #[test]
    fn lock_access_faults_after_stage2_invalidation() {
        // Models attack A2: P2 holds the lock, P2's partition fails, the SPM
        // invalidates P1's stage-2 entry for the shared page. P1's next lock
        // access faults instead of spinning forever.
        let (mut m, lock) = setup();
        lock.try_acquire(&mut m, P2, World::Secure, 2).unwrap();
        let page = lock.addr().page_number();
        m.stage2_invalidate(P1, page);
        let err = lock.try_acquire(&mut m, P1, World::Secure, 1).unwrap_err();
        assert!(matches!(err, SpinLockError::Fault(f) if f.is_stage2()));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_tag_panics() {
        let (mut m, lock) = setup();
        let _ = lock.try_acquire(&mut m, P1, World::Secure, 0);
    }

    #[test]
    fn shim_heap_and_ioremap() {
        let mut m = Machine::new(MachineConfig::default());
        let mut shim = ShimKernel::new();
        let frames = m.alloc_frames(World::Secure, 3).unwrap();
        shim.add_heap_frames(frames);
        assert_eq!(shim.heap_frames().len(), 3);

        let window = PhysRange::from_base_len(PhysAddr::new(0x1000_0000), 0x1000);
        let cookie = shim.ioremap(window);
        assert_eq!(shim.iomap(cookie), Some(window));
        assert_eq!(shim.iomap_count(), 1);
        assert!(shim.iounmap(cookie));
        assert!(!shim.iounmap(cookie));

        let drained = shim.drain_heap();
        assert_eq!(drained.len(), 3);
        assert!(shim.heap_frames().is_empty());
        for f in drained {
            m.free_frame(f);
        }
    }
}
