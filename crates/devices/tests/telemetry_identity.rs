//! The devices report through telemetry handles they resolve once, one
//! locked recorder step per launch, program, DMA transfer and ISR. This test
//! pins what those steps record: it drives one scripted sequence through the
//! real devices on one recorder and, on a second recorder, replays what the
//! string-keyed calls the devices used to make would have recorded — the
//! `reference` module below is that old code, kept only here — and demands
//! byte-identical exports.

use std::collections::VecDeque;
use std::sync::Arc;

use cronus_devices::bus::{PcieBus, PcieSlot};
use cronus_devices::gpu::{GpuDevice, GpuKernelDesc};
use cronus_devices::npu::{NpuDevice, VtaInsn, VtaProgram};
use cronus_devices::{BusError, SimDevice};
use cronus_obs::queue::DEFAULT_LITTLE_TOLERANCE;
use cronus_obs::{FlightRecorder, ReqId};
use cronus_sim::addr::{PhysAddr, PhysRange};
use cronus_sim::pagetable::PagePerms;
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, Machine, MachineConfig, SimNs, StreamId, World};

/// What the devices recorded per operation before they cached handles, call
/// for call and in that order.
mod reference {
    use super::*;
    use cronus_devices::IRQ_QUEUE_SLOTS;
    use cronus_obs::QueueKind;

    pub fn declare(rec: &FlightRecorder) {
        rec.queue_declare("bus.dma", QueueKind::Dma, 1);
        rec.queue_declare("gpu:1.completion", QueueKind::Completion, IRQ_QUEUE_SLOTS);
        rec.queue_declare("npu:2.completion", QueueKind::Completion, IRQ_QUEUE_SLOTS);
    }

    /// Returns when the completion IRQ was raised.
    pub fn gpu_launch(
        rec: &FlightRecorder,
        kernel: &str,
        t: SimNs,
        (active, used, sm_count): (u32, u64, u32),
        desc: GpuKernelDesc,
    ) -> SimNs {
        rec.counter_add("gpu.kernel_launches", &[("kernel", kernel)], 1);
        rec.observe("gpu.kernel_ns", &[("kernel", kernel)], t);
        rec.gauge_set("gpu.active_contexts", &[], active as i64);
        rec.gauge_set("gpu.mem_used", &[], used as i64);
        let sms_avail = (sm_count as f64 / active as f64).max(1.0);
        let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
        let pct = (sms_used * active as f64 / sm_count as f64 * 100.0).min(100.0);
        rec.gauge_set("gpu.sm_occupancy_pct", &[], pct as i64);
        let track = rec.track("gpu:1");
        let start = rec.total_elapsed();
        let req = rec.current_req();
        rec.set_current_req(None);
        rec.complete_span(track, kernel.to_string(), "kernel", start, start + t);
        rec.set_current_req(req);
        let raised = start + t;
        rec.queue_enqueue("gpu:1.completion", raised);
        raised
    }

    pub fn npu_run(rec: &FlightRecorder, insns: u64, total: SimNs) -> SimNs {
        rec.counter_add("npu.programs_run", &[], 1);
        rec.counter_add("npu.insns_run", &[], insns);
        rec.observe("npu.program_ns", &[], total);
        let track = rec.track("npu:2");
        let start = rec.total_elapsed();
        let req = rec.current_req();
        rec.set_current_req(None);
        rec.complete_span(
            track,
            "vta-program".to_string(),
            "kernel",
            start,
            start + total,
        );
        rec.set_current_req(req);
        let raised = start + total;
        rec.queue_enqueue("npu:2.completion", raised);
        raised
    }

    pub fn take_irqs(rec: &FlightRecorder, queue: &str, raised: &mut VecDeque<SimNs>) {
        let now = rec.total_elapsed();
        while let Some(at) = raised.pop_front() {
            rec.queue_dequeue(queue, now.max(at), now.saturating_sub(at), SimNs::ZERO);
        }
    }

    pub fn reset(rec: &FlightRecorder, queue: &str, raised: &mut VecDeque<SimNs>) {
        rec.queue_flush(queue, rec.total_elapsed());
        raised.clear();
    }

    pub fn bus_dma(rec: &FlightRecorder, dir: &str, device: DeviceId, bytes: u64, t: SimNs) {
        rec.counter_add("bus.dma_bytes", &[("dir", dir)], bytes);
        rec.counter_add("bus.dma_transfers", &[("dir", dir)], 1);
        let track = rec.track("bus");
        let start = rec.total_elapsed();
        let req = rec.current_req();
        rec.set_current_req(None);
        rec.complete_span(track, format!("{dir}:{device}"), "dma", start, start + t);
        rec.set_current_req(req);
        rec.queue_enqueue("bus.dma", start);
        rec.queue_dequeue("bus.dma", start + t, SimNs::ZERO, t);
    }
}

const GPU: DeviceId = DeviceId::new(1);
const NPU: DeviceId = DeviceId::new(2);
const SMS: u32 = 46;

fn desc(sm_demand: u32) -> GpuKernelDesc {
    GpuKernelDesc {
        flops: 3.0e6,
        mem_bytes: 8192.0,
        sm_demand,
    }
}

/// The devices under test plus the state the reference needs to follow
/// along (the IRQs it believes are pending).
struct Rig {
    machine: Machine,
    frame: PhysAddr,
    bus: PcieBus,
    gpu: GpuDevice,
    npu: NpuDevice,
    cost: CostModel,
    gpu_irqs: VecDeque<SimNs>,
    npu_irqs: VecDeque<SimNs>,
}

impl Rig {
    fn new() -> Rig {
        let mut machine = Machine::new(MachineConfig::default());
        let frame = machine.alloc_frame(World::Secure).unwrap();
        let mut bus = PcieBus::new();
        for (device, bar) in [(GPU, 0x1000_0000), (NPU, 0x1001_0000)] {
            let stream = StreamId::new(device.as_u32());
            machine
                .smmu_mut()
                .grant(stream, frame.page(), PagePerms::RW);
            bus.register(PcieSlot {
                device,
                bar: PhysRange::from_base_len(PhysAddr::new(bar), 0x1000),
                stream,
                world: World::Secure,
            })
            .unwrap();
        }
        Rig {
            machine,
            frame: frame.base(),
            bus,
            gpu: GpuDevice::new(GPU, StreamId::new(1), 1 << 24, SMS),
            npu: NpuDevice::new(NPU, StreamId::new(2), 1 << 20),
            cost: CostModel::default(),
            gpu_irqs: VecDeque::new(),
            npu_irqs: VecDeque::new(),
        }
    }

    /// Installs `real` on the devices and declares on `model` what
    /// installing declares.
    fn install(&mut self, real: &FlightRecorder, model: &FlightRecorder, label_cap: usize) {
        for rec in [real, model] {
            rec.lock().metrics.set_max_label_sets(label_cap);
            // An ambient request must survive every step and must not be
            // attached to the device-timebase spans.
            rec.set_current_req(Some(ReqId(7)));
        }
        self.bus.set_recorder(real.clone());
        self.gpu.set_recorder(real.clone());
        self.npu.set_recorder(real.clone());
        reference::declare(model);
    }

    /// Launches of three kernel names on two contexts, H2D/D2H/P2P DMA, an
    /// NPU program, both ISRs (with and without pending IRQs), and a reset
    /// followed by more of the same on the handles that survive it.
    fn script(&mut self, model: &FlightRecorder) {
        for round in 0..2 {
            let a = self.gpu.create_context(1 << 20).unwrap();
            let b = self.gpu.create_context(1 << 20).unwrap();
            let buf = self.gpu.alloc(a, 8192).unwrap();
            for ctx in [a, b] {
                for k in ["alpha", "beta", "gamma"] {
                    self.gpu
                        .register_kernel(ctx, k, Arc::new(|_, _| Ok(())))
                        .unwrap();
                }
            }
            let launches = [
                (a, "alpha", 4),
                (b, "beta", 46),
                (b, "alpha", 1),
                (a, "gamma", 30),
                (a, "alpha", 4),
            ];
            for (ctx, kernel, sm_demand) in launches {
                let d = desc(sm_demand);
                let t = self.gpu.launch(&self.cost, ctx, kernel, &[], d).unwrap();
                let state = (2, self.gpu.memory_used(), SMS);
                self.gpu_irqs
                    .push_back(reference::gpu_launch(model, kernel, t, state, d));
            }

            // H2D: the bus reports, then the device counts the bytes in.
            let (machine, bus, frame) = (&mut self.machine, &self.bus, self.frame);
            let t = self
                .gpu
                .dma_in(a, buf, 4096, 4096, |dst| -> Result<SimNs, Error> {
                    Ok(bus.dma_to_device(machine, GPU, frame, dst)?)
                })
                .unwrap();
            reference::bus_dma(model, "h2d", GPU, 4096, t);
            model.counter_add("gpu.dma_bytes", &[("dir", "h2d")], 4096);
            // D2H: the device counts the bytes out, then the bus reports.
            let t = self
                .gpu
                .dma_out(a, buf, 0, 1000, |src| -> Result<SimNs, Error> {
                    Ok(bus.dma_from_device(machine, GPU, frame, src)?)
                })
                .unwrap();
            model.counter_add("gpu.dma_bytes", &[("dir", "d2h")], 1000);
            reference::bus_dma(model, "d2h", GPU, 1000, t);
            let t = bus.dma_peer_to_peer(machine, NPU, GPU, 1 << 16).unwrap();
            reference::bus_dma(model, "p2p", NPU, 1 << 16, t);

            let nctx = self.npu.create_context(1 << 16).unwrap();
            let nbuf = self.npu.alloc(nctx, 64).unwrap();
            self.npu.write_buffer(nctx, nbuf, 0, &[3; 64]).unwrap();
            model.counter_add("npu.dma_bytes", &[("dir", "h2d")], 64);
            let mut prog = VtaProgram::new();
            prog.push(VtaInsn::ResetAcc { rows: 4, cols: 4 })
                .push(VtaInsn::StoreAcc {
                    dst: nbuf,
                    offset: 0,
                    stride: 4,
                });
            let total = self.npu.run(&self.cost, nctx, &prog).unwrap();
            self.npu_irqs.push_back(reference::npu_run(model, 2, total));
            let mut out = [0u8; 16];
            self.npu.read_buffer(nctx, nbuf, 0, &mut out).unwrap();
            model.counter_add("npu.dma_bytes", &[("dir", "d2h")], 16);

            if round == 0 {
                assert_eq!(self.gpu.take_irqs(), 5);
                reference::take_irqs(model, "gpu:1.completion", &mut self.gpu_irqs);
                assert_eq!(self.npu.take_irqs(), 1);
                reference::take_irqs(model, "npu:2.completion", &mut self.npu_irqs);
                // Nothing pending: the ISR has nothing to report.
                assert_eq!(self.gpu.take_irqs(), 0);
                assert_eq!(self.npu.take_irqs(), 0);
            }
            // The second round's completions are still queued when the
            // devices are reset.
            self.gpu.reset();
            reference::reset(model, "gpu:1.completion", &mut self.gpu_irqs);
            self.npu.reset();
            reference::reset(model, "npu:2.completion", &mut self.npu_irqs);
        }
    }
}

/// The error of a DMA closure: device or bus.
#[derive(Debug)]
struct Error(#[allow(dead_code)] String);

impl From<cronus_devices::GpuError> for Error {
    fn from(e: cronus_devices::GpuError) -> Self {
        Error(e.to_string())
    }
}

impl From<BusError> for Error {
    fn from(e: BusError) -> Self {
        Error(e.to_string())
    }
}

fn assert_same_exports(real: &FlightRecorder, model: &FlightRecorder, what: &str) {
    assert_eq!(
        real.metrics_snapshot_json("run"),
        model.metrics_snapshot_json("run"),
        "{what}: metrics snapshot"
    );
    assert_eq!(
        real.chrome_trace_json(),
        model.chrome_trace_json(),
        "{what}: chrome trace"
    );
    assert_eq!(
        real.queue_report(DEFAULT_LITTLE_TOLERANCE)
            .to_json()
            .render(),
        model
            .queue_report(DEFAULT_LITTLE_TOLERANCE)
            .to_json()
            .render(),
        "{what}: queue report"
    );
    assert_eq!(
        real.folded_stacks(),
        model.folded_stacks(),
        "{what}: folded stacks"
    );
    assert_eq!(
        real.current_req(),
        Some(ReqId(7)),
        "{what}: ambient request"
    );
}

#[test]
fn cached_handle_steps_record_what_the_string_keyed_calls_did() {
    let mut rig = Rig::new();
    let (real, model) = (FlightRecorder::new(), FlightRecorder::new());
    rig.install(&real, &model, cronus_obs::metrics::DEFAULT_MAX_LABEL_SETS);
    rig.script(&model);
    assert_same_exports(&real, &model, "first recorder");
    assert!(real.lock().spans.spans().len() >= 16, "the script recorded");

    // A second recorder: the devices drop what they resolved on the first
    // and report to the new one from scratch; the first hears no more.
    let before = real.metrics_snapshot_json("run");
    let (real2, model2) = (FlightRecorder::new(), FlightRecorder::new());
    rig.install(&real2, &model2, cronus_obs::metrics::DEFAULT_MAX_LABEL_SETS);
    rig.script(&model2);
    assert_same_exports(&real2, &model2, "second recorder");
    assert_eq!(real.metrics_snapshot_json("run"), before);
}

#[test]
fn a_kernel_name_past_the_label_cap_lands_on_overflow() {
    let mut rig = Rig::new();
    let (real, model) = (FlightRecorder::new(), FlightRecorder::new());
    rig.install(&real, &model, 2);
    rig.script(&model);
    assert_same_exports(&real, &model, "label cap 2");
    let inner = real.lock();
    let overflow = cronus_obs::metrics::overflow_labels();
    // `gamma` is the third kernel name: launched twice (once per round),
    // both on the overflow series, and counted as overflowing each time in
    // both the counter and the histogram family.
    assert_eq!(inner.metrics.counter("gpu.kernel_launches", &overflow), 2);
    assert_eq!(
        inner.metrics.counter(
            "gpu.kernel_launches",
            &cronus_obs::metrics::labels(&[("kernel", "gamma")])
        ),
        0
    );
    assert_eq!(
        inner.metrics.label_overflow(),
        model.lock().metrics.label_overflow()
    );
    assert!(inner.metrics.label_overflow() >= 4);
}
