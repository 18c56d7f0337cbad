//! Isolated probes of the layers the in-workload spans contain: each times
//! one primitive on a fresh fixture and reports the minimum over batches, so
//! a neighbour on the machine inflates it least. They complement the spans:
//! a span says how much host time a call into `core` took, a probe says what
//! the ring codec, a checked memory write or a ledger append inside it costs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cronus_core::ring::{
    decode_request, decode_slot_request, encode_grant_request, encode_request, GrantRef, Request,
};
use cronus_crypto::{hmac_sha256, sha256, KeyPair, StreamCipher};
use cronus_devices::gpu::{GpuDevice, GpuKernelDesc};
use cronus_devices::{DeviceKind, NpuBuffer, NpuDevice, PcieBus, PcieSlot, VtaInsn, VtaProgram};
use cronus_forensics::{verify_export, Ledger, SecurityEvent};
use cronus_mos::manager::Owner;
use cronus_mos::manifest::{Eid, Manifest, McallDecl, MosId};
use cronus_obs::{FlightRecorder, QueueKind, TimeCategory, WorkerId};
use cronus_runtime::wire::{Reader, Writer};
use cronus_sim::addr::{PhysAddr, PhysRange};
use cronus_sim::{
    AsId, CostModel, DeviceId, Frame, Machine, MachineConfig, PagePerms, SimNs, StreamId, World,
};
use cronus_spm::spm::{asid_of, BootConfig, DeviceSpec, PartitionSpec, Spm};

/// One probe result.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Probe {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Probe { name, unit, value }
    }
}

/// Batches per probe; the minimum is reported.
const BATCHES: usize = 12;

/// Minimum over [`BATCHES`] of the time of `iters` runs of `body` on a
/// fixture `setup` builds fresh for each batch, per run, in ns.
fn min_ns<S, R>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> R,
) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let mut fixture = setup();
            let t = Instant::now();
            for _ in 0..iters {
                black_box(body(black_box(&mut fixture)));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn boot_config() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 26,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    }
}

fn boot(recorded: bool) -> Spm {
    let mut spm = Spm::boot(boot_config());
    if recorded {
        spm.set_recorder(FlightRecorder::new());
    }
    spm
}

const CPU: MosId = MosId(1);
const GPU: MosId = MosId(2);

fn create_enclave(spm: &mut Spm, mos: MosId, owner: Owner) -> Eid {
    let kind = if mos == CPU {
        DeviceKind::Cpu
    } else {
        DeviceKind::Gpu
    };
    spm.create_enclave(
        asid_of(mos),
        Manifest::new(kind).with_memory(1 << 20),
        &BTreeMap::new(),
        owner,
        7,
    )
    .expect("enclave")
}

/// A booted SPM with one enclave on each partition.
fn with_enclaves(recorded: bool) -> (Spm, Eid, Eid) {
    let mut spm = boot(recorded);
    let a = create_enclave(&mut spm, CPU, Owner::App(1));
    let b = create_enclave(&mut spm, GPU, Owner::Enclave(a));
    (spm, a, b)
}

fn share(spm: &mut Spm, a: Eid, b: Eid) -> u64 {
    let (handle, _, _) = spm
        .share_memory((asid_of(CPU), a), (asid_of(GPU), b), 16)
        .expect("share");
    spm.share_pages(handle).expect("pages")[0]
}

/// A booted SPM with a 16-page share between the two partitions; returns
/// the share's first page.
fn with_share() -> (Spm, u64) {
    let (mut spm, a, b) = with_enclaves(true);
    let page = share(&mut spm, a, b);
    (spm, page)
}

/// A machine with one secure frame granted to partition 1 in stage 2 and to
/// DMA stream 1 in the SMMU.
fn machine_with_frame() -> (Machine, AsId, Frame) {
    let mut machine = Machine::new(MachineConfig::default());
    let asid = AsId::new(1);
    machine.register_partition(asid);
    let frame = machine.alloc_frame(World::Secure).expect("frame");
    machine
        .stage2_grant(asid, frame.page(), PagePerms::RW)
        .expect("grant");
    machine
        .smmu_mut()
        .grant(StreamId::new(1), frame.page(), PagePerms::RW);
    (machine, asid, frame)
}

/// Runs every probe.
pub fn run() -> Vec<Probe> {
    let mut out = Vec::new();
    let mut ns = |name, value| out.push(Probe::new(name, "ns", value));
    let data_4k = vec![0xA5u8; 4096];
    let buf_64 = [7u8; 64];

    // core: the ring's slot codecs.
    let req = Request {
        name: "cuLaunchKernel".to_string(),
        payload: vec![5u8; 256],
    };
    ns(
        "core.ring.codec_256b_ns",
        min_ns(
            2000,
            || (),
            |()| decode_request(&encode_request(&req).expect("fits")).expect("valid"),
        ),
    );
    let grant = GrantRef {
        offset: 4096,
        len: 4096,
    };
    ns(
        "core.ring.grant_codec_ns",
        min_ns(
            2000,
            || (),
            |()| {
                decode_slot_request(&encode_grant_request("blob", grant).expect("fits"))
                    .expect("valid")
            },
        ),
    );

    // runtime: the wire format of a launch descriptor.
    ns(
        "runtime.wire.codec_ns",
        min_ns(
            2000,
            || (),
            |()| {
                let mut w = Writer::new();
                w.str("matmul")
                    .u64(3)
                    .u64(0x1000)
                    .i64(-4)
                    .f32(0.5)
                    .bytes(&buf_64);
                let bytes = w.finish();
                let mut r = Reader::new(&bytes);
                (
                    r.str().expect("str"),
                    r.u64().expect("u64"),
                    r.u64().expect("u64"),
                    r.i64().expect("i64"),
                    r.f32().expect("f32"),
                    r.bytes().expect("bytes"),
                )
            },
        ),
    );

    // sim: checked memory, stage-2 maintenance, device DMA.
    ns(
        "sim.mem_write_64b_ns",
        min_ns(2000, machine_with_frame, |(m, asid, frame)| {
            m.mem_write(*asid, World::Secure, frame.base(), &buf_64)
        }),
    );
    ns(
        "sim.mem_read_64b_ns",
        min_ns(2000, machine_with_frame, |(m, asid, frame)| {
            m.mem_read_vec(*asid, World::Secure, frame.base(), 64)
        }),
    );
    ns(
        "sim.stage2_flip_ns",
        min_ns(2000, machine_with_frame, |(m, asid, frame)| {
            m.stage2_invalidate(*asid, frame.page()) & m.stage2_revalidate(*asid, frame.page())
        }),
    );
    ns(
        "sim.dma_write_4k_ns",
        min_ns(500, machine_with_frame, |(m, _, frame)| {
            m.dma_write(StreamId::new(1), World::Secure, frame.base(), &data_4k)
        }),
    );

    // crypto.
    ns(
        "crypto.sha256_4k_ns",
        min_ns(50, || (), |()| sha256(&data_4k)),
    );
    ns(
        "crypto.hmac_4k_ns",
        min_ns(50, || (), |()| hmac_sha256(b"key", &data_4k)),
    );
    let kp = KeyPair::from_seed("probe");
    let sig = kp.sign(b"report");
    ns(
        "crypto.schnorr_sign_ns",
        min_ns(50, || (), |()| kp.sign(b"report")),
    );
    ns(
        "crypto.schnorr_verify_ns",
        min_ns(50, || (), |()| kp.public().verify(b"report", &sig)),
    );
    let cipher = StreamCipher::new([9u8; 32]);
    ns(
        "crypto.seal_open_4k_ns",
        min_ns(20, || (), |()| cipher.open(&cipher.seal(1, &data_4k))),
    );

    // obs: what one instrumented site costs. Fresh recorder per batch, so
    // every batch fills the same stores from empty.
    let at = SimNs::from_nanos(100);
    ns(
        "obs.span_ns",
        min_ns(
            2000,
            || {
                let rec = FlightRecorder::new();
                let track = rec.track("probe");
                (rec, track)
            },
            |(rec, track)| {
                let id = rec.begin_span(*track, "call", "probe", at);
                rec.end_span(*track, id, at);
            },
        ),
    );
    ns(
        "obs.charge_ns",
        min_ns(2000, FlightRecorder::new, |rec| {
            rec.charge(TimeCategory::Ring, at)
        }),
    );
    ns(
        "obs.queue_enq_deq_ns",
        min_ns(
            2000,
            || {
                let rec = FlightRecorder::new();
                rec.queue_declare("probe", QueueKind::Ring, 16);
                rec
            },
            |rec| {
                rec.queue_enqueue("probe", at);
                rec.queue_dequeue("probe", at, SimNs::ZERO, at);
            },
        ),
    );
    ns(
        "obs.counter_add_ns",
        min_ns(2000, FlightRecorder::new, |rec| {
            rec.counter_add("probe.calls", &[("stream", "1")], 1)
        }),
    );
    ns(
        "obs.meter_occupy_ns",
        min_ns(2000, FlightRecorder::new, |rec| {
            rec.meter_occupy(WorkerId::lane(1, 0), at, at + at)
        }),
    );

    // forensics: the HMAC-chained ledger.
    let event = || SecurityEvent::StreamClosed { stream: 1 };
    ns(
        "forensics.append_ns",
        min_ns(
            200,
            || Ledger::new("probe"),
            |ledger| ledger.append(1, at, event()),
        ),
    );
    const RECORDS: usize = 256;
    ns(
        "forensics.verify_ns_per_record",
        min_ns(
            1,
            || {
                let ledger = Ledger::new("probe");
                for i in 0..RECORDS {
                    ledger.append(1, SimNs::from_nanos(i as u64), event());
                }
                ledger.export()
            },
            |export| verify_export(export),
        ) / RECORDS as f64,
    );

    // mos: measuring a manifest (every enclave creation and attestation).
    let manifest = Manifest::new(DeviceKind::Gpu)
        .with_mecall(McallDecl::asynchronous("echo"))
        .with_mecall(McallDecl::synchronous("echo_sync"))
        .with_memory(1 << 20);
    ns(
        "mos.manifest_measure_ns",
        min_ns(200, || (), |()| manifest.measurement()),
    );

    // devices: a GPU launch, a VTA program, a bus DMA, each without the
    // runtime or the ring above it.
    let cost = CostModel::default();
    ns(
        "devices.gpu.launch_ns",
        min_ns(
            1000,
            || {
                let mut gpu = GpuDevice::gtx2080(DeviceId::new(2), StreamId::new(2));
                let ctx = gpu.create_context(1 << 20).expect("context");
                gpu.register_kernel(ctx, "noop", std::sync::Arc::new(|_, _| Ok(())))
                    .expect("kernel");
                (gpu, ctx)
            },
            |(gpu, ctx)| {
                let desc = GpuKernelDesc {
                    flops: 1.0e6,
                    mem_bytes: 4096.0,
                    sm_demand: 4,
                };
                gpu.launch(&cost, *ctx, "noop", &[], desc)
            },
        ),
    );
    let bus_slot = || PcieSlot {
        device: DeviceId::new(1),
        bar: PhysRange::from_base_len(PhysAddr::new(0x1000_0000), 0x1000),
        stream: StreamId::new(1),
        world: World::Secure,
    };
    ns(
        "devices.bus.dma_4k_ns",
        min_ns(
            500,
            || {
                let mut bus = PcieBus::new();
                bus.register(bus_slot()).expect("slot");
                (bus, machine_with_frame())
            },
            |(bus, (m, _, frame))| bus.dma_from_device(m, DeviceId::new(1), frame.base(), &data_4k),
        ),
    );

    // The rest are reported in µs: whole SPM operations and a VTA program.
    let mut us = |name, value_ns: f64| out.push(Probe::new(name, "us", value_ns / 1e3));
    us(
        "devices.npu.run_us",
        min_ns(
            20,
            || {
                let mut npu = NpuDevice::vta(DeviceId::new(3), StreamId::new(3));
                let ctx = npu.create_context(1 << 20).expect("context");
                let buf = |npu: &mut NpuDevice| npu.alloc(ctx, 256).expect("buffer");
                let (inp, wgt, dst) = (buf(&mut npu), buf(&mut npu), buf(&mut npu));
                npu.write_buffer(ctx, inp, 0, &[1u8; 256]).expect("input");
                npu.write_buffer(ctx, wgt, 0, &[2u8; 256]).expect("weights");
                (npu, ctx, tile_program(inp, wgt, dst))
            },
            |(npu, ctx, prog)| npu.run(&cost, *ctx, prog),
        ),
    );

    // spm: each on a freshly booted SPM. The `_norec` twins run without a
    // flight recorder installed: the only observer-overhead A/B reachable
    // from outside the crates.
    us("spm.boot_us", min_ns(1, || (), |()| boot(true)));
    us("spm.boot_norec_us", min_ns(1, || (), |()| boot(false)));
    us(
        "spm.create_enclave_us",
        min_ns(
            1,
            || boot(true),
            |spm| create_enclave(spm, CPU, Owner::App(1)),
        ),
    );
    us(
        "spm.share_memory_us",
        min_ns(1, || with_enclaves(true), |(spm, a, b)| share(spm, *a, *b)),
    );
    us(
        "spm.share_memory_norec_us",
        min_ns(1, || with_enclaves(false), |(spm, a, b)| share(spm, *a, *b)),
    );
    us(
        "spm.fail_partition_us",
        min_ns(1, with_share, |(spm, _)| spm.fail_partition(asid_of(GPU))),
    );
    let failed = || {
        let (mut spm, page) = with_share();
        spm.fail_partition(asid_of(GPU)).expect("proceed");
        (spm, page)
    };
    us(
        "spm.recover_partition_us",
        min_ns(1, failed, |(spm, _)| {
            spm.recover_partition(asid_of(GPU), b"cuda-mos", "v3")
        }),
    );
    us(
        "spm.handle_trap_us",
        min_ns(1, failed, |(spm, page)| {
            spm.handle_trap(asid_of(CPU), *page)
        }),
    );
    us(
        "spm.make_report_us",
        min_ns(1, || boot(true), |spm| spm.make_report(asid_of(GPU))),
    );
    out
}

/// One 16×16 int8 GEMM tile with requantisation and store-back.
fn tile_program(inp: NpuBuffer, wgt: NpuBuffer, dst: NpuBuffer) -> VtaProgram {
    let tile = 16;
    let mut prog = VtaProgram::new();
    prog.push(VtaInsn::ResetAcc {
        rows: tile,
        cols: tile,
    })
    .push(VtaInsn::LoadInp {
        src: inp,
        offset: 0,
        rows: tile,
        cols: tile,
        stride: tile,
    })
    .push(VtaInsn::LoadWgt {
        src: wgt,
        offset: 0,
        rows: tile,
        cols: tile,
        stride: tile,
    })
    .push(VtaInsn::Gemm)
    .push(VtaInsn::StoreAcc {
        dst,
        offset: 0,
        stride: tile,
    });
    prog
}
