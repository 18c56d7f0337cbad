//! The staging protocol of an accelerator [`crate::session::Session`].
//!
//! Bulk data moves through a dedicated trusted shared *staging buffer*
//! (distinct from the descriptor ring), and from there to the device by
//! SMMU-checked DMA — the same structure as pinned bounce buffers in a real
//! accelerator stack. The caller enclave writes a chunk into staging and
//! sends a copy mECall naming it; the device partition's handler walks the
//! chunk page by page and has the HAL DMA each page straight between
//! staging and device memory.

use cronus_core::{CronusError, CronusSystem, EnclaveRef, ServerCtx, SrpcError, StreamId};
use cronus_devices::Dma;
use cronus_mos::hal::DeviceCtx;
use cronus_obs::{
    spend, CountResource, CounterId, GaugeId, MeterScope, NameId, Principal, RecorderInner, TrackId,
};
use cronus_sim::addr::{VirtAddr, PAGE_SIZE};
use cronus_sim::pagetable::{Access, PagePerms};
use cronus_sim::{Cost, CostModel, SimClock, SimNs};

use crate::session::SessionNames;
use crate::wire::{Reader, Writer};

/// The telemetry handles of one staging buffer, resolved by its first chunk.
#[derive(Debug)]
struct StagingObs {
    /// The caller's partition and stream: who pays for staging copies.
    scope: MeterScope,
    ledger_records: GaugeId,
    ledger_evicted: GaugeId,
    /// `enclave:<caller>`.
    track: TrackId,
    /// By [`Dma`]: the byte counter and the interned span name.
    dirs: [(CounterId, NameId); 2],
}

/// The caller's side of a staging buffer.
#[derive(Debug)]
pub(crate) struct Staging {
    cpu: EnclaveRef,
    stream: StreamId,
    pub(crate) names: &'static SessionNames,
    caller_va: VirtAddr,
    bytes: u64,
    cursor: u64,
    obs: Option<StagingObs>,
}

impl Staging {
    /// Shares `pages` of staging memory between `cpu` and the device enclave
    /// `dev` (backed by device context `dctx`), lets the device's DMA engine
    /// reach them, and registers the two copy handlers in `dev`'s partition.
    ///
    /// # Errors
    ///
    /// Sharing failures.
    pub(crate) fn open(
        sys: &mut CronusSystem,
        cpu: EnclaveRef,
        dev: EnclaveRef,
        stream: StreamId,
        pages: usize,
        dctx: DeviceCtx,
        names: &'static SessionNames,
    ) -> Result<Staging, CronusError> {
        let (share, caller_va, callee_va) =
            sys.spm_mut()
                .share_memory((cpu.asid, cpu.eid), (dev.asid, dev.eid), pages)?;
        // The device's DMA engine must reach the staging pages (SMMU grants).
        let granted = sys.spm().share_pages(share)?.to_vec();
        let dma_stream = sys.spm().mos(dev.asid)?.hal().dma_stream();
        for ppn in granted {
            sys.spm_mut()
                .machine_mut()
                .smmu_mut()
                .grant(dma_stream, ppn, PagePerms::RW);
        }
        for (call, dir) in [(names.h2d_call, Dma::H2d), (names.d2h_call, Dma::D2h)] {
            sys.register_handler(
                dev,
                call,
                Box::new(move |ctx, payload| serve_copy(ctx, payload, dctx, callee_va, dir)),
            );
        }
        Ok(Staging {
            cpu,
            stream,
            names,
            caller_va,
            bytes: pages as u64 * PAGE_SIZE,
            cursor: 0,
            obs: None,
        })
    }

    /// Everything staged so far was consumed (the stream was synchronized):
    /// staging is free from offset 0 again.
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
    }

    fn reserve(&mut self, sys: &mut CronusSystem, len: u64) -> Result<u64, SrpcError> {
        debug_assert!(len <= self.bytes);
        if self.cursor + len > self.bytes {
            // Staging exhausted: wait for the consumer, then reuse from 0.
            sys.sync(self.stream)?;
            self.cursor = 0;
        }
        let off = self.cursor;
        self.cursor += len;
        Ok(off)
    }

    /// Copies host bytes into device buffer `dst`. The caller pays the
    /// staging write; the device copy streams asynchronously.
    ///
    /// # Errors
    ///
    /// RPC or staging-access errors.
    pub(crate) fn h2d(
        &mut self,
        sys: &mut CronusSystem,
        dst: u64,
        data: &[u8],
    ) -> Result<(), SrpcError> {
        let mut done = 0u64;
        for chunk in data.chunks(self.bytes.max(1) as usize) {
            let n = chunk.len() as u64;
            let off = self.reserve(sys, n)?;
            // One request per chunk: the staging write, any trap it takes,
            // and the device-side copy all trace back to the same id.
            let req = sys.alloc_req();
            sys.set_current_req(Some(req));
            // Caller writes the chunk into staging (charged as a memcpy).
            sys.shared_write(self.cpu, self.caller_va.add(off), chunk)?;
            self.copied(sys, Dma::H2d, n);
            let mut w = Writer::new();
            w.u64(dst).u64(done).u64(off).u64(n);
            sys.call(self.stream, self.names.h2d_call)
                .payload(&w.finish())
                .req(req)
                .start()?;
            done += n;
        }
        Ok(())
    }

    /// Copies `len` bytes of device buffer `src` back to the host,
    /// synchronously.
    ///
    /// # Errors
    ///
    /// RPC or staging-access errors.
    pub(crate) fn d2h(
        &mut self,
        sys: &mut CronusSystem,
        src: u64,
        len: u64,
    ) -> Result<Vec<u8>, SrpcError> {
        let mut out = vec![0u8; len as usize];
        let mut done = 0u64;
        for tail in out.chunks_mut(self.bytes.max(1) as usize) {
            let n = tail.len() as u64;
            let off = self.reserve(sys, n)?;
            let req = sys.alloc_req();
            let mut w = Writer::new();
            w.u64(src).u64(done).u64(off).u64(n);
            sys.call(self.stream, self.names.d2h_call)
                .payload(&w.finish())
                .req(req)
                .sync()?;
            // Caller reads the chunk out of staging, still under the same
            // request so the read-back traces to the device copy.
            sys.set_current_req(Some(req));
            let read = sys.shared_read(self.cpu, self.caller_va.add(off), tail);
            self.copied(sys, Dma::D2h, n);
            sys.set_current_req(None);
            read?;
            done += n;
        }
        Ok(out)
    }

    /// The caller moved one chunk of `n` bytes between its memory and
    /// staging: spends the memcpy on its clock and reports it, as one
    /// locked recorder step.
    fn copied(&mut self, sys: &mut CronusSystem, dir: Dma, n: u64) {
        let ledger = sys.spm().ledger();
        let ledger = (ledger.records_total(), ledger.evicted_total());
        let (cm, clock, rec) = sys.spending(self.cpu);
        let Some(rec) = rec else {
            spend(cm, Some(clock), None, staging_cost(dir), n);
            return;
        };
        let r = &mut *rec.lock();
        let obs = self
            .obs
            .get_or_insert_with(|| StagingObs::resolve(r, self.cpu, self.stream, self.names));
        obs.chunk(r, cm, clock, dir, n, ledger);
    }
}

impl StagingObs {
    fn resolve(
        r: &mut RecorderInner,
        cpu: EnclaveRef,
        stream: StreamId,
        names: &SessionNames,
    ) -> StagingObs {
        let dir = |r: &mut RecorderInner, label: &str, what: &str| {
            (
                r.metrics.counter_id(names.bytes_metric, &[("dir", label)]),
                r.spans.intern(what),
            )
        };
        StagingObs {
            scope: MeterScope::principal(Principal(cpu.asid.as_u32())).with_stream(stream.as_u64()),
            ledger_records: r.metrics.gauge_id("ledger.records", &[]),
            ledger_evicted: r.metrics.gauge_id("ledger.evicted", &[]),
            track: r.spans.track(&format!("enclave:{}", cpu.eid)),
            dirs: [
                dir(r, "h2d", "staging_write"),
                dir(r, "d2h", "staging_read"),
            ],
        }
    }

    /// One staged chunk of `n` bytes: the ledger gauges every recorder
    /// hand-out refreshes, the memcpy spent on the caller's `clock` and the
    /// DMA bytes, both on the caller's account, the runtime's byte counter
    /// and the span on the caller's track.
    fn chunk(
        &self,
        r: &mut RecorderInner,
        cm: &CostModel,
        clock: &mut SimClock,
        dir: Dma,
        n: u64,
        (ledger_records, ledger_evicted): (u64, u64),
    ) {
        let (bytes, span) = self.dirs[dir as usize];
        r.metrics
            .gauge_store(self.ledger_records, ledger_records as i64);
        r.metrics
            .gauge_store(self.ledger_evicted, ledger_evicted as i64);
        let prev = r.meter.set_scope(self.scope);
        let d = spend(cm, Some(clock), Some(r), staging_cost(dir), n);
        r.meter.add_count(CountResource::DmaBytes, n);
        r.meter.set_scope(prev);
        r.metrics.counter_bump(bytes, n);
        let now = clock.now();
        r.complete_span(self.track, span, "memcpy", now - d, now);
    }
}

/// The caller's copy into (`H2d`) or out of (`D2h`) staging.
fn staging_cost(dir: Dma) -> Cost {
    match dir {
        Dma::H2d => Cost::StagingWrite,
        Dma::D2h => Cost::StagingRead,
    }
}

/// The device side of a staged copy `(buffer, buffer offset, staging offset,
/// length)`: each staging page is translated through the enclave's stage-1
/// table and DMA'd — under the SMMU and TZASC checks — to or from device
/// memory by the partition's HAL.
fn serve_copy(
    ctx: &mut ServerCtx<'_>,
    payload: &[u8],
    dctx: DeviceCtx,
    staging_va: VirtAddr,
    dir: Dma,
) -> Result<(Vec<u8>, SimNs), CronusError> {
    let mut r = Reader::new(payload);
    let buf = r.u64()?;
    let buf_off = r.u64()?;
    let staging_off = r.u64()?;
    let len = r.u64()?;
    let eid = ctx.eid;
    let (mos, machine, bus) = ctx.spm.mos_machine_bus(ctx.asid)?;
    let mut total = SimNs::ZERO;
    let mut done = 0u64;
    while done < len {
        let va = staging_va.add(staging_off + done);
        let n = (len - done).min(PAGE_SIZE - va.page_offset());
        let access = match dir {
            Dma::H2d => Access::Read,
            Dma::D2h => Access::Write,
        };
        let pa = mos.translate(eid, va, access)?;
        total +=
            mos.hal_mut()
                .copy(machine, bus, dir, dctx, buf, buf_off + done, pa, n as usize)?;
        done += n;
    }
    Ok((Vec::new(), total))
}
