//! TrustZone Protection Controller (TZPC) model.
//!
//! The TZPC decides, per I/O device, whether the normal world may access it.
//! CRONUS "locks down all devices configured to the secure world to resist
//! malicious reconfiguration" (§V-A); we model the lockdown bit explicitly.

use std::collections::BTreeMap;
use std::fmt;

use crate::fault::Fault;
use crate::mem::World;

/// Identifier of an I/O device on the simulated bus.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a device id from a raw value.
    pub const fn new(raw: u32) -> Self {
        DeviceId(raw)
    }

    /// Returns the raw id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceId({})", self.0)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Per-device world assignment plus a boot-time lockdown latch.
#[derive(Clone, Debug, Default)]
pub struct Tzpc {
    assignment: BTreeMap<DeviceId, World>,
    locked: bool,
}

impl Tzpc {
    /// Creates an empty TZPC; unknown devices default to the normal world.
    pub fn new() -> Self {
        Tzpc::default()
    }

    /// Assigns a device to a world.
    ///
    /// # Errors
    ///
    /// Returns an error once [`Tzpc::lock_down`] has been called: after
    /// secure boot the assignment is immutable until the next reboot, which
    /// is exactly the paper's defense against malicious reconfiguration.
    pub fn assign(&mut self, device: DeviceId, world: World) -> Result<(), TzpcLocked> {
        if self.locked {
            return Err(TzpcLocked { device });
        }
        self.assignment.insert(device, world);
        Ok(())
    }

    /// Latches the current configuration; further [`Tzpc::assign`] calls
    /// fail until the machine reboots (which constructs a fresh `Tzpc`).
    pub fn lock_down(&mut self) {
        self.locked = true;
    }

    /// Returns true once the configuration has been latched.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Returns which world owns `device` (normal if never assigned).
    pub fn world_of(&self, device: DeviceId) -> World {
        self.assignment
            .get(&device)
            .copied()
            .unwrap_or(World::Normal)
    }

    /// Checks whether `world` may access `device`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::TzpcDenied`] when the normal world touches a
    /// secure-assigned device.
    pub fn check(&self, world: World, device: DeviceId) -> Result<(), Fault> {
        if world.may_access(self.world_of(device)) {
            Ok(())
        } else {
            Err(Fault::TzpcDenied { world, device })
        }
    }

    /// Iterates over all explicit device assignments, in device-id order.
    pub fn assignments(&self) -> impl Iterator<Item = (DeviceId, World)> + '_ {
        self.assignment.iter().map(|(d, w)| (*d, *w))
    }

    /// Canonical encoding of the assignment (in device-id order) plus the
    /// lockdown latch: what the security-event ledger digests at lockdown.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for (d, w) in self.assignments() {
            out.push_str(&format!("{d}={w};"));
        }
        out.push_str(if self.locked { "locked" } else { "open" });
        out.into_bytes()
    }
}

/// Error returned when reconfiguring a locked-down TZPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TzpcLocked {
    /// The device whose reassignment was rejected.
    pub device: DeviceId,
}

impl fmt::Display for TzpcLocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tzpc is locked down; cannot reassign {}", self.device)
    }
}

impl std::error::Error for TzpcLocked {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unassigned_devices_are_normal_world() {
        let tzpc = Tzpc::new();
        assert_eq!(tzpc.world_of(DeviceId::new(7)), World::Normal);
        assert!(tzpc.check(World::Normal, DeviceId::new(7)).is_ok());
    }

    #[test]
    fn secure_device_blocks_normal_world() {
        let mut tzpc = Tzpc::new();
        let gpu = DeviceId::new(1);
        tzpc.assign(gpu, World::Secure).unwrap();
        assert!(matches!(
            tzpc.check(World::Normal, gpu),
            Err(Fault::TzpcDenied { .. })
        ));
        assert!(tzpc.check(World::Secure, gpu).is_ok());
    }

    #[test]
    fn lockdown_freezes_configuration() {
        let mut tzpc = Tzpc::new();
        let npu = DeviceId::new(2);
        tzpc.assign(npu, World::Secure).unwrap();
        tzpc.lock_down();
        assert!(tzpc.is_locked());
        let err = tzpc.assign(npu, World::Normal).unwrap_err();
        assert_eq!(err.device, npu);
        // The original assignment still stands.
        assert_eq!(tzpc.world_of(npu), World::Secure);
    }

    #[test]
    fn assignments_iterator_reports_all() {
        let mut tzpc = Tzpc::new();
        tzpc.assign(DeviceId::new(1), World::Secure).unwrap();
        tzpc.assign(DeviceId::new(2), World::Normal).unwrap();
        assert_eq!(tzpc.assignments().count(), 2);
    }
}
