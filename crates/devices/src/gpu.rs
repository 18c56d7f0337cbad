//! A CUDA-class GPU simulator with spatial sharing.
//!
//! Stands in for the paper's GTX 2080 driven by nouveau/gdev. Memory,
//! contexts, DMA and completion interrupts are the common [`Accelerator`]'s;
//! this module is what is GPU about the device:
//!
//! * contexts model the "GPU virtual address isolation for isolating
//!   different mEnclaves' code" (§V-B): each holds its own loaded kernels,
//! * *named kernels that really compute* (registered as Rust closures by the
//!   CUDA runtime layer, the analogue of loading a `.cubin`) on the
//!   launching context's buffers, which are lent to them, not copied,
//! * MPS-style spatial sharing: concurrent contexts split the SMs and memory
//!   bandwidth, so small kernels from different tenants overlap until the
//!   machine saturates — the effect behind Fig. 11a.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use cronus_obs::{CounterId, FlightRecorder, GaugeId, HistogramId, NameId, RecorderInner};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimNs, StreamId};

use crate::accel::{Accelerator, Buffers};
pub use crate::view::{BufView, BufViewMut, F32Cell};
use crate::{DeviceKind, SimDevice};

/// The names kernel code is written against.
pub use crate::accel::{BufferId as GpuBuffer, ContextId as GpuContextId, DeviceError as GpuError};

/// An argument passed to a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelArg {
    /// A device buffer.
    Buffer(GpuBuffer),
    /// A 64-bit integer scalar.
    Int(i64),
    /// A 32-bit float scalar.
    Float(f32),
}

/// What a kernel does with the buffers it was lent: the exclusive views
/// come first, in the order they were asked for, then the shared ones.
pub type KernelBody<'f> =
    dyn FnMut(&mut [BufViewMut<'_>], &[BufView<'_>]) -> Result<(), GpuError> + 'f;

/// Device-memory access handed to a running kernel. Memory is lent, not
/// copied: the kernel computes on the launching context's own buffers, and
/// only on those.
pub trait GpuMemAccess {
    /// Lends `exclusive` buffers for reading and writing and `shared` ones
    /// for reading, and runs `body` on them. A shared buffer that is also
    /// lent exclusively is a snapshot taken before `body` runs, so a kernel
    /// never observes its own writes through an input.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownBuffer`] for a handle the launching context does
    /// not own, [`GpuError::BadArg`] when one buffer is asked for
    /// exclusively twice, else whatever `body` returns. The buffers are back
    /// in the context either way.
    fn lend(
        &mut self,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError>;
}

/// A kernel implementation: the Rust closure standing in for compiled SASS.
pub type KernelFn =
    Arc<dyn Fn(&mut dyn GpuMemAccess, &[KernelArg]) -> Result<(), GpuError> + Send + Sync>;

/// Description of a kernel launch's cost for the contention model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuKernelDesc {
    /// Floating point work in FLOPs.
    pub flops: f64,
    /// DRAM traffic in bytes.
    pub mem_bytes: f64,
    /// SMs the launch can usefully occupy (grid width).
    pub sm_demand: u32,
}

/// What the GPU keeps with a context: the kernels loaded into it.
type Kernels = HashMap<String, KernelFn>;

struct ContextMem<'a> {
    buffers: &'a mut Buffers,
}

impl GpuMemAccess for ContextMem<'_> {
    fn lend(
        &mut self,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError> {
        // An exclusively lent buffer leaves the context's map while the body
        // runs: nothing else can name it, and the borrow checker sees it as
        // disjoint from the shared ones. It returns whatever the body did.
        let mut held = Vec::with_capacity(exclusive.len());
        let result = self.lend_held(&mut held, exclusive, shared, body);
        for (buf, data) in held {
            self.buffers.insert(buf.as_raw(), data);
        }
        result
    }
}

impl ContextMem<'_> {
    fn lend_held(
        &mut self,
        held: &mut Vec<(GpuBuffer, Vec<u8>)>,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError> {
        for &buf in exclusive {
            match self.buffers.remove(&buf.as_raw()) {
                Some(data) => held.push((buf, data)),
                None if held.iter().any(|(h, _)| *h == buf) => {
                    return Err(GpuError::BadArg(format!(
                        "{buf:?} is written through two arguments"
                    )))
                }
                None => return Err(GpuError::UnknownBuffer(buf)),
            }
        }
        let snapshots: Vec<(GpuBuffer, Vec<u8>)> = held
            .iter()
            .filter(|(h, _)| shared.contains(h))
            .cloned()
            .collect();
        let inputs = shared
            .iter()
            .map(|&buf| {
                let live = self.buffers.get(&buf.as_raw());
                let snapshot = || snapshots.iter().find(|(h, _)| *h == buf).map(|(_, d)| d);
                live.or_else(snapshot)
                    .map(|data| BufView::new(buf, data))
                    .ok_or(GpuError::UnknownBuffer(buf))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut outputs: Vec<_> = held
            .iter_mut()
            .map(|(buf, data)| BufViewMut::new(*buf, data))
            .collect();
        body(&mut outputs, &inputs)
    }
}

/// The simulated GPU: the common [`Accelerator`] plus SMs that run kernels.
#[derive(Debug)]
pub struct GpuDevice {
    base: Accelerator,
    sm_count: u32,
    series: LaunchSeries,
}

impl Deref for GpuDevice {
    type Target = Accelerator;

    fn deref(&self) -> &Accelerator {
        &self.base
    }
}

impl DerefMut for GpuDevice {
    fn deref_mut(&mut self) -> &mut Accelerator {
        &mut self.base
    }
}

/// The series of one kernel name.
#[derive(Clone, Copy, Debug)]
struct KernelSeries {
    launches: CounterId,
    latency: HistogramId,
    span: NameId,
}

/// The device-wide gauges a launch refreshes.
#[derive(Clone, Copy, Debug)]
struct DeviceGauges {
    active_contexts: GaugeId,
    mem_used: GaugeId,
    sm_occupancy: GaugeId,
}

/// The launch telemetry handles on the installed recorder, each resolved
/// once: the device-wide gauges by the first launch, a kernel's series by
/// its first launch. Dropped when another recorder is installed.
#[derive(Debug, Default)]
struct LaunchSeries {
    gauges: Option<DeviceGauges>,
    kernels: HashMap<Box<str>, KernelSeries>,
}

/// What one launch reports besides its kernel name and duration.
struct Launched {
    active_contexts: u32,
    mem_used: u64,
    sm_occupancy_pct: i64,
}

impl LaunchSeries {
    /// One finished launch of `kernel` taking `t`: its count and latency and
    /// the device gauges. Returns the launch's span name.
    fn launched(&mut self, r: &mut RecorderInner, kernel: &str, t: SimNs, l: Launched) -> NameId {
        let k = match self.kernels.get(kernel) {
            Some(k) => *k,
            None => {
                let labels = [("kernel", kernel)];
                let k = KernelSeries {
                    launches: r.metrics.counter_id("gpu.kernel_launches", &labels),
                    latency: r.metrics.histogram_id("gpu.kernel_ns", &labels),
                    span: r.spans.intern(kernel),
                };
                self.kernels.insert(kernel.into(), k);
                k
            }
        };
        let g = *self.gauges.get_or_insert_with(|| DeviceGauges {
            active_contexts: r.metrics.gauge_id("gpu.active_contexts", &[]),
            mem_used: r.metrics.gauge_id("gpu.mem_used", &[]),
            sm_occupancy: r.metrics.gauge_id("gpu.sm_occupancy_pct", &[]),
        });
        r.metrics.counter_bump(k.launches, 1);
        r.metrics.histogram_record(k.latency, t);
        r.metrics
            .gauge_store(g.active_contexts, l.active_contexts as i64);
        r.metrics.gauge_store(g.mem_used, l.mem_used as i64);
        r.metrics.gauge_store(g.sm_occupancy, l.sm_occupancy_pct);
        k.span
    }
}

impl GpuDevice {
    /// Creates a GPU with `capacity` bytes of device DRAM and `sm_count`
    /// streaming multiprocessors.
    pub fn new(id: DeviceId, stream: StreamId, capacity: u64, sm_count: u32) -> Self {
        GpuDevice {
            base: Accelerator::new(
                DeviceKind::Gpu,
                "nvidia,gtx2080",
                "nvidia",
                id,
                stream,
                capacity,
            ),
            sm_count,
            series: LaunchSeries::default(),
        }
    }

    /// Installs a flight recorder: kernel launches gain spans on the
    /// `gpu:<id>` track plus launch/latency/occupancy metrics, and the
    /// completion-IRQ queue reports to the queue observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.series = LaunchSeries::default();
        self.base.set_recorder(rec);
    }

    /// Creates a GTX 2080-class GPU (8 GiB, 46 SMs) scaled to the cost
    /// model's defaults.
    pub fn gtx2080(id: DeviceId, stream: StreamId) -> Self {
        GpuDevice::new(id, stream, 8 << 30, 46)
    }

    /// Registers a kernel implementation under `name` in `ctx` (the device
    /// half of module loading; the image hash lives in the manifest).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn register_kernel(
        &mut self,
        ctx: GpuContextId,
        name: &str,
        f: KernelFn,
    ) -> Result<(), GpuError> {
        let (_, kernels) = self.base.context::<Kernels>(ctx)?;
        kernels.insert(name.to_string(), f);
        Ok(())
    }

    /// Launches a kernel: runs the registered closure against the context's
    /// buffers and returns the simulated execution time under the current
    /// spatial-sharing contention.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownKernel`] plus anything the kernel body raises.
    pub fn launch(
        &mut self,
        cost: &CostModel,
        ctx: GpuContextId,
        kernel: &str,
        args: &[KernelArg],
        desc: GpuKernelDesc,
    ) -> Result<SimNs, GpuError> {
        let active = self.base.context_count().max(1) as u32;
        let (buffers, kernels) = self.base.context::<Kernels>(ctx)?;
        let f = kernels
            .get(kernel)
            .ok_or_else(|| GpuError::UnknownKernel(kernel.to_string()))?
            .clone();
        f(&mut ContextMem { buffers }, args)?;
        let (sm_count, mem_used) = (self.sm_count, self.base.memory_used());
        let t = Self::exec_time(cost, sm_count, active, desc);
        let series = &mut self.series;
        self.base.complete(t, |r| {
            // Device-wide SM occupancy under the MPS split.
            let sms_avail = (sm_count as f64 / active as f64).max(1.0);
            let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
            let pct = (sms_used * active as f64 / sm_count as f64 * 100.0).min(100.0);
            let launched = Launched {
                active_contexts: active,
                mem_used,
                sm_occupancy_pct: pct as i64,
            };
            series.launched(r, kernel, t, launched)
        });
        Ok(t)
    }

    /// The contention model: concurrent contexts split SMs (MPS-style) and
    /// memory bandwidth, and the launch path (driver + doorbell) degrades
    /// quadratically with tenant count — small kernels from different
    /// tenants overlap well at 2 tenants but the submission pipeline
    /// saturates by 4, which is the Fig. 11a shape ("up to 63.4% higher
    /// throughput" at 2, degradation at 4).
    pub fn exec_time(
        cost: &CostModel,
        sm_count: u32,
        active_contexts: u32,
        desc: GpuKernelDesc,
    ) -> SimNs {
        let active = active_contexts.max(1) as f64;
        let sms_avail = (sm_count as f64 / active).max(1.0);
        let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
        let compute_ns = desc.flops / (cost.gpu_flops_per_sm_ns * sms_used);
        let mem_ns = desc.mem_bytes / (cost.gpu_mem_bytes_per_ns / active);
        let launch_factor = 1.0 + 0.18 * (active - 1.0) * (active - 1.0);
        cost.gpu_kernel_launch.scale(launch_factor)
            + SimNs::from_nanos(compute_ns.max(mem_ns).ceil() as u64)
    }

    /// SM count.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_sim::tzpc::DeviceId;

    fn gpu() -> GpuDevice {
        GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 20, 46)
    }

    fn scale_kernel() -> KernelFn {
        Arc::new(|mem, args| {
            let (buf, factor) = match args {
                [KernelArg::Buffer(b), KernelArg::Float(f)] => (*b, *f),
                _ => return Err(GpuError::BadArg("expected (buffer, float)".into())),
            };
            mem.lend(&[buf], &[], &mut |outs, _| {
                for mut v in outs[0].f32s_mut() {
                    v.set(v.get() * factor);
                }
                Ok(())
            })
        })
    }

    const TINY: GpuKernelDesc = GpuKernelDesc {
        flops: 1.0,
        mem_bytes: 1.0,
        sm_demand: 1,
    };

    /// Registers `body` as kernel `k` of `ctx` and launches it on `args`.
    fn launch_body(
        g: &mut GpuDevice,
        ctx: GpuContextId,
        args: &[KernelArg],
        body: impl Fn(&mut dyn GpuMemAccess, &[KernelArg]) -> Result<(), GpuError>
            + Send
            + Sync
            + 'static,
    ) -> Result<SimNs, GpuError> {
        g.register_kernel(ctx, "k", Arc::new(body)).unwrap();
        g.launch(&CostModel::default(), ctx, "k", args, TINY)
    }

    fn bytes_of(g: &mut GpuDevice, ctx: GpuContextId, buf: GpuBuffer, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        g.read_buffer(ctx, buf, 0, &mut out).unwrap();
        out
    }

    #[test]
    fn a_kernel_is_lent_only_its_own_contexts_buffers() {
        let mut g = gpu();
        let a = g.create_context(4096).unwrap();
        let b = g.create_context(4096).unwrap();
        let mine = g.alloc(a, 16).unwrap();
        let theirs = g.alloc(b, 16).unwrap();
        g.write_buffer(b, theirs, 0, &[7; 16]).unwrap();
        for (exclusive, shared) in [(vec![theirs], vec![]), (vec![mine], vec![theirs])] {
            let err = launch_body(&mut g, a, &[], move |mem, _| {
                mem.lend(&exclusive, &shared, &mut |_, _| {
                    panic!("a foreign buffer must not be lent")
                })
            })
            .unwrap_err();
            assert_eq!(err, GpuError::UnknownBuffer(theirs));
        }
        // A freed handle is as unknown as a foreign one.
        g.free(a, mine).unwrap();
        let err = launch_body(&mut g, a, &[], move |mem, _| {
            mem.lend(&[], &[mine], &mut |_, _| Ok(()))
        })
        .unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(mine));
        assert_eq!(bytes_of(&mut g, b, theirs, 16), [7; 16], "untouched");
    }

    #[test]
    fn exclusive_buffers_return_even_when_the_kernel_fails() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        let out = g.alloc(ctx, 64).unwrap();
        let inp = g.alloc(ctx, 16).unwrap();
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[out], &[inp], &mut |outs, _| {
                outs[0].set_u32(0, 0xDEAD_BEEF)?;
                outs[0].set_u32(16, 1)
            })
        })
        .unwrap_err();
        assert!(
            matches!(err, GpuError::OutOfBounds { buffer, offset: 64, len: 4 } if buffer == out)
        );
        // The buffer is back in its context, with what the kernel wrote
        // before it failed, and is zeroed and released by free as ever.
        assert_eq!(bytes_of(&mut g, ctx, out, 4), 0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(g.take_irqs(), 0, "a failed launch completes nothing");
        g.free(ctx, out).unwrap();
        assert_eq!(
            g.free(ctx, out).unwrap_err(),
            GpuError::UnknownBuffer(out),
            "freed exactly once"
        );
        let again = g.alloc(ctx, 64).expect("quota was released");
        assert_eq!(bytes_of(&mut g, ctx, again, 64), [0; 64]);
        // Lending the same buffer exclusively twice fails before the body
        // runs, and gives back the one already taken.
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[again, again], &[], &mut |_, _| {
                panic!("two exclusive views of one buffer")
            })
        })
        .unwrap_err();
        assert!(matches!(err, GpuError::BadArg(_)));
        assert_eq!(g.buffer_len(ctx, again).unwrap(), 64);
    }

    #[test]
    fn an_input_that_is_also_an_output_is_a_snapshot() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 12).unwrap();
        let init: Vec<u8> = [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        g.write_buffer(ctx, buf, 0, &init).unwrap();
        // out[i] = in[i] + in[(i + 1) % 3], with in == out.
        launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[buf], &[buf], &mut |outs, ins| {
                for i in 0..3 {
                    outs[0].set_u32(i, ins[0].u32(i)? + ins[0].u32((i + 1) % 3)?)?;
                }
                Ok(())
            })
        })
        .unwrap();
        let want: Vec<u8> = [3u32, 5, 4].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes_of(&mut g, ctx, buf, 12), want);
    }

    #[test]
    fn reset_zeroes_what_kernels_wrote() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 8).unwrap();
        launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[buf], &[], &mut |outs, _| outs[0].set_f32(1, 4.5))
        })
        .unwrap();
        assert_eq!(bytes_of(&mut g, ctx, buf, 8)[4..], 4.5f32.to_le_bytes());
        g.reset();
        assert_eq!(g.context_count(), 0);
        let ctx = g.create_context(4096).unwrap();
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[], &[buf], &mut |_, _| Ok(()))
        })
        .unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(buf), "old handles are dead");
    }

    #[test]
    fn kernel_computes_on_device_memory() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 16).unwrap();
        let init: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        g.write_buffer(ctx, buf, 0, &init).unwrap();
        g.register_kernel(ctx, "scale", scale_kernel()).unwrap();
        let desc = GpuKernelDesc {
            flops: 4.0,
            mem_bytes: 32.0,
            sm_demand: 1,
        };
        let t = g
            .launch(
                &cm,
                ctx,
                "scale",
                &[KernelArg::Buffer(buf), KernelArg::Float(2.0)],
                desc,
            )
            .unwrap();
        assert!(t >= cm.gpu_kernel_launch);
        let mut out = [0u8; 4];
        g.read_buffer(ctx, buf, 0, &mut out).unwrap();
        assert_eq!(f32::from_le_bytes(out), 2.0);
        assert_eq!(g.take_irqs(), 1, "the launch raised its completion");
    }

    #[test]
    fn unknown_kernel_rejected() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let desc = GpuKernelDesc {
            flops: 1.0,
            mem_bytes: 1.0,
            sm_demand: 1,
        };
        let err = g.launch(&cm, ctx, "nope", &[], desc).unwrap_err();
        assert_eq!(err, GpuError::UnknownKernel("nope".into()));
    }

    #[test]
    fn exec_time_contention_shape() {
        let cm = CostModel::default();
        // A small kernel (8 SM demand) should not slow down with 2 tenants on
        // a 46-SM machine but must slow down with 16.
        let small = GpuKernelDesc {
            flops: 1e8,
            mem_bytes: 0.0,
            sm_demand: 8,
        };
        let t1 = GpuDevice::exec_time(&cm, 46, 1, small);
        let t2 = GpuDevice::exec_time(&cm, 46, 2, small);
        let t16 = GpuDevice::exec_time(&cm, 46, 16, small);
        // Two tenants: only the mild launch-path contention applies.
        assert!(t2 >= t1);
        assert!(t2 < t1.scale(1.3));
        assert!(t16 > t2);
        // A machine-filling kernel slows down immediately.
        let big = GpuKernelDesc {
            flops: 1e9,
            mem_bytes: 0.0,
            sm_demand: 46,
        };
        assert!(GpuDevice::exec_time(&cm, 46, 2, big) > GpuDevice::exec_time(&cm, 46, 1, big));
    }

    #[test]
    fn sim_device_trait_surface() {
        let g = gpu();
        assert_eq!(g.kind(), DeviceKind::Gpu);
        assert_eq!(g.compatible(), "nvidia,gtx2080");
        let sig = g.sign_config(b"cfg");
        assert!(g.rot_public().verify(b"cfg", &sig).is_ok());
    }
}
