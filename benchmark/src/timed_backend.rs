//! A [`GpuBackend`] that wraps another and records a `runtime.cuda.*` span
//! around each call, so workload code (`workloads.*` parent spans) shows
//! which of its host time is its own and which is the CUDA runtime's and the
//! layers below it. It changes nothing the inner backend sees.

use cronus_devices::gpu::{GpuKernelDesc, KernelFn};
use cronus_sim::SimNs;
use cronus_workloads::backend::{Arg, BackendError, GpuBackend};

use crate::trace::{Name, Tracer};

pub struct TimedBackend<'t, B> {
    inner: B,
    tracer: &'t Tracer,
}

impl<'t, B: GpuBackend> TimedBackend<'t, B> {
    pub fn new(inner: B, tracer: &'t Tracer) -> Self {
        TimedBackend { inner, tracer }
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }
}

impl<B: GpuBackend> GpuBackend for TimedBackend<'_, B> {
    fn system_name(&self) -> &str {
        self.inner.system_name()
    }

    fn register_kernel(&mut self, name: &str, f: KernelFn) -> Result<(), BackendError> {
        self.inner.register_kernel(name, f)
    }

    fn alloc(&mut self, len: u64) -> Result<u64, BackendError> {
        self.tracer.span(Name::CudaMalloc, || self.inner.alloc(len))
    }

    fn free(&mut self, ptr: u64) -> Result<(), BackendError> {
        // cuFree is the allocator's other half; it shares the malloc span.
        self.tracer.span(Name::CudaMalloc, || self.inner.free(ptr))
    }

    fn h2d(&mut self, dst: u64, data: &[u8]) -> Result<(), BackendError> {
        self.tracer
            .span(Name::CudaH2d, || self.inner.h2d(dst, data))
    }

    fn d2h(&mut self, src: u64, len: u64) -> Result<Vec<u8>, BackendError> {
        self.tracer.span(Name::CudaD2h, || self.inner.d2h(src, len))
    }

    fn launch(
        &mut self,
        kernel: &str,
        args: &[Arg],
        desc: GpuKernelDesc,
    ) -> Result<(), BackendError> {
        self.tracer
            .span(Name::CudaLaunch, || self.inner.launch(kernel, args, desc))
    }

    fn sync(&mut self) -> Result<(), BackendError> {
        self.tracer.span(Name::CudaSync, || self.inner.sync())
    }

    fn elapsed(&self) -> SimNs {
        self.inner.elapsed()
    }
}
