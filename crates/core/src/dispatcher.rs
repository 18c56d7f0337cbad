//! The Enclave Dispatcher (normal world, untrusted).
//!
//! "Enclave Dispatcher determines which partition is used to handle an
//! mEnclave request from an application. Moreover, \[it\] records the device
//! type and configurations, mOS images, and usable resources in each
//! partition" (§III-A). Being normal-world software it is *untrusted*: it may
//! "maliciously dispatch an mEnclave request to an incorrect partition",
//! which CRONUS tolerates through ownership assurance and per-partition
//! manifest checks — the tests in `cronus-core` exercise exactly that.

use cronus_devices::DeviceKind;
use cronus_mos::manifest::MosId;
use cronus_sim::machine::AsId;

/// Dispatcher bookkeeping for one partition.
#[derive(Clone, Debug)]
pub struct PartitionInfo {
    /// The partition.
    pub asid: AsId,
    /// Its mOS id.
    pub mos_id: MosId,
    /// Device kind it manages.
    pub kind: DeviceKind,
    /// mOS image the normal world supplied at boot.
    pub image: Vec<u8>,
    /// mOS version label.
    pub version: String,
    /// Requests dispatched to it so far (utilization bookkeeping).
    pub dispatched: u64,
}

/// The normal-world dispatcher.
#[derive(Debug, Default)]
pub struct Dispatcher {
    partitions: Vec<PartitionInfo>,
    /// Attack injection: forces requests for a device kind to a wrong
    /// partition (the malicious-dispatch threat of §III-B).
    misroute: Option<(DeviceKind, AsId)>,
}

impl Dispatcher {
    /// Creates an empty dispatcher.
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// Records a partition's info.
    pub fn register(&mut self, info: PartitionInfo) {
        self.partitions.push(info);
    }

    /// All recorded partitions.
    pub fn partitions(&self) -> &[PartitionInfo] {
        &self.partitions
    }

    /// Routes a request for `kind` to the same-kind partition with the
    /// fewest dispatches so far (Fig. 11b multi-GPU balancing; ties go to
    /// registration order), counting the dispatch. Misroute injection (the
    /// dispatcher is untrusted) overrides it. Returns `None` if no partition
    /// manages `kind`.
    pub fn route(&mut self, kind: DeviceKind) -> Option<AsId> {
        let asid = match self.misroute {
            Some((bad_kind, target)) if bad_kind == kind => target,
            _ => {
                let of_kind = self.partitions.iter().filter(|p| p.kind == kind);
                of_kind.min_by_key(|p| p.dispatched)?.asid
            }
        };
        if let Some(p) = self.partitions.iter_mut().find(|p| p.asid == asid) {
            p.dispatched += 1;
        }
        Some(asid)
    }

    /// The stored mOS image for a partition (for recovery reloads).
    pub fn mos_image(&self, asid: AsId) -> Option<(&[u8], &str)> {
        self.partitions
            .iter()
            .find(|p| p.asid == asid)
            .map(|p| (p.image.as_slice(), p.version.as_str()))
    }

    /// ATTACK INJECTION: make the (untrusted) dispatcher misroute requests
    /// for `kind` to `target`. Used by security tests.
    pub fn inject_misroute(&mut self, kind: DeviceKind, target: AsId) {
        self.misroute = Some((kind, target));
    }

    /// Clears attack injection.
    pub fn clear_misroute(&mut self) {
        self.misroute = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(mos: u8, kind: DeviceKind) -> PartitionInfo {
        PartitionInfo {
            asid: AsId::new(mos as u32),
            mos_id: MosId(mos),
            kind,
            image: vec![mos],
            version: "v1".into(),
            dispatched: 0,
        }
    }

    #[test]
    fn routes_by_kind() {
        let mut d = Dispatcher::new();
        d.register(info(1, DeviceKind::Cpu));
        d.register(info(2, DeviceKind::Gpu));
        assert_eq!(d.route(DeviceKind::Gpu), Some(AsId::new(2)));
        assert_eq!(d.route(DeviceKind::Cpu), Some(AsId::new(1)));
        assert_eq!(d.route(DeviceKind::Npu), None);
        assert_eq!(d.partitions()[1].dispatched, 1);
    }

    #[test]
    fn least_loaded_balances() {
        let mut d = Dispatcher::new();
        d.register(info(2, DeviceKind::Gpu));
        d.register(info(3, DeviceKind::Gpu));
        let a = d.route(DeviceKind::Gpu).unwrap();
        let b = d.route(DeviceKind::Gpu).unwrap();
        assert_ne!(a, b, "two GPUs share the load");
    }

    #[test]
    fn misroute_injection() {
        let mut d = Dispatcher::new();
        d.register(info(1, DeviceKind::Cpu));
        d.register(info(2, DeviceKind::Gpu));
        d.inject_misroute(DeviceKind::Gpu, AsId::new(1));
        // Misroute overrides the routing: the dispatcher is untrusted.
        assert_eq!(d.route(DeviceKind::Gpu), Some(AsId::new(1)));
        d.clear_misroute();
        assert_eq!(d.route(DeviceKind::Gpu), Some(AsId::new(2)));
    }

    #[test]
    fn stores_mos_images() {
        let mut d = Dispatcher::new();
        d.register(info(2, DeviceKind::Gpu));
        let (img, v) = d.mos_image(AsId::new(2)).unwrap();
        assert_eq!(img, &[2]);
        assert_eq!(v, "v1");
        assert!(d.mos_image(AsId::new(9)).is_none());
    }
}
