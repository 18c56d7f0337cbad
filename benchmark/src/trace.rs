//! In-workload spans on the host clock.
//!
//! The driver wraps every call it makes into a layer of the system with a
//! span: name, start, end, the span that caused it and the op it belongs to.
//! Spans stay in memory for the length of a rep; self time is duration minus
//! the part its children cover. Spans *inside* the program are a later
//! change — these are recorded from the benchmark's own files only.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use cronus_obs::json::Json;

/// Span names, one per call the driver makes into a layer (`<crate>.<call>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// The rep itself: its self time is the driver's own (input replay,
    /// result checks, span bookkeeping).
    Driver,
    CoreBoot,
    CoreCreateEnclave,
    CoreStreamOpen,
    CoreStreamReopen,
    CoreCallStart,
    CoreCallSync,
    CoreSync,
    CoreAppEcall,
    CoreInjectFailure,
    CoreTrapCall,
    CoreRecoverPartition,
    CudaNew,
    CudaMalloc,
    CudaH2d,
    CudaD2h,
    CudaLaunch,
    CudaSync,
    Rodinia,
    Train,
    VtaGemm,
    NativeRef,
}

impl Name {
    /// Every name, in metric order.
    pub const ALL: [Name; 22] = [
        Name::Driver,
        Name::CoreBoot,
        Name::CoreCreateEnclave,
        Name::CoreStreamOpen,
        Name::CoreStreamReopen,
        Name::CoreCallStart,
        Name::CoreCallSync,
        Name::CoreSync,
        Name::CoreAppEcall,
        Name::CoreInjectFailure,
        Name::CoreTrapCall,
        Name::CoreRecoverPartition,
        Name::CudaNew,
        Name::CudaMalloc,
        Name::CudaH2d,
        Name::CudaD2h,
        Name::CudaLaunch,
        Name::CudaSync,
        Name::Rodinia,
        Name::Train,
        Name::VtaGemm,
        Name::NativeRef,
    ];

    /// The metric prefix (`layer.call`).
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Driver => "host.driver",
            Name::CoreBoot => "core.boot",
            Name::CoreCreateEnclave => "core.create_enclave",
            Name::CoreStreamOpen => "core.stream_open",
            Name::CoreStreamReopen => "core.stream_reopen",
            Name::CoreCallStart => "core.call_start",
            Name::CoreCallSync => "core.call_sync",
            Name::CoreSync => "core.sync",
            Name::CoreAppEcall => "core.app_ecall",
            Name::CoreInjectFailure => "core.inject_failure",
            Name::CoreTrapCall => "core.trap_call",
            Name::CoreRecoverPartition => "core.recover_partition",
            Name::CudaNew => "runtime.cuda.new",
            Name::CudaMalloc => "runtime.cuda.malloc",
            Name::CudaH2d => "runtime.cuda.h2d",
            Name::CudaD2h => "runtime.cuda.d2h",
            Name::CudaLaunch => "runtime.cuda.launch",
            Name::CudaSync => "runtime.cuda.sync",
            Name::Rodinia => "workloads.rodinia",
            Name::Train => "workloads.train",
            Name::VtaGemm => "workloads.vta_gemm",
            Name::NativeRef => "baselines.native_ref",
        }
    }
}

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Index of the causing span in the same rep, or [`ROOT`].
    pub parent: u32,
    /// The op (call, round, pass or cycle number) the span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Shared by `&Tracer` between the driver loop and the
/// [`crate::timed_backend::TimedBackend`] it hands to workload code, hence
/// the interior mutability; the benchmark is single-threaded.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: Cell<u32>,
    open: Cell<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or one whose `span` only runs the body.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: Cell::new(0),
            open: Cell::new(ROOT),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: usize) {
        self.op.set(op as u32);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span called `name`, child of the span open now.
    pub fn span<R>(&self, name: Name, body: impl FnOnce() -> R) -> R {
        if !self.on {
            return body();
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                op: self.op.get(),
                start_ns: 0,
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        self.open.set(idx);
        let start = self.now_ns();
        let out = body();
        let end = self.now_ns();
        self.open.set(parent);
        let mut spans = self.spans.borrow_mut();
        spans[idx as usize].start_ns = start;
        spans[idx as usize].end_ns = end;
        out
    }

    /// Takes the spans recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        assert_eq!(self.open.get(), ROOT, "take() inside an open span");
        self.op.set(0);
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (each child subtracts once, from its own parent only).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Per-name totals over one or more reps.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under each name, indexed by `Name as usize`.
    pub count: [u64; Name::ALL.len()],
    /// Summed self time under each name.
    pub self_ns: [u64; Name::ALL.len()],
}

impl SpanTotals {
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            self.count[s.name as usize] += 1;
            self.self_ns[s.name as usize] += own;
        }
    }

    /// Sum of all self times: equals the summed root-span durations.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Durations of every span called `name`.
pub fn durations_of(spans: &[Span], name: Name) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Spans kept in a trace file; a rep of `srpc_stream` records 200 000.
pub const TRACE_FILE_SPANS: usize = 20_000;

/// The trace document written to `out/trace-<workload>.json`: the first
/// [`TRACE_FILE_SPANS`] spans of one traced rep as
/// `[name index, start_ns, end_ns, parent index or -1, op]` rows.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::U64(seed)),
        (
            "clock",
            Json::from("host, ns since the rep's tracer was created"),
        ),
        ("spans_recorded", Json::from(spans.len())),
        ("truncated", Json::Bool(kept.len() < spans.len())),
        (
            "names",
            Json::Arr(Name::ALL.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        ("row", Json::from("[name, start_ns, end_ns, parent, op]")),
        (
            "spans",
            Json::Arr(
                kept.iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::U64(s.name as u64),
                            Json::U64(s.start_ns),
                            Json::U64(s.end_ns),
                            if s.parent == ROOT {
                                Json::I64(-1)
                            } else {
                                Json::U64(u64::from(s.parent))
                            },
                            Json::U64(u64::from(s.op)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_subtract_once_and_only_from_their_parent() {
        // driver 0..100 { rodinia 10..70 { launch 20..30, launch 40..60 }, sync 80..90 }
        let spans = [
            span(Name::Driver, ROOT, 0, 100),
            span(Name::Rodinia, 0, 10, 70),
            span(Name::CudaLaunch, 1, 20, 30),
            span(Name::CudaLaunch, 1, 40, 60),
            span(Name::CoreSync, 0, 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 20, 10]);
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        assert_eq!(totals.count[Name::CudaLaunch as usize], 2);
        assert_eq!(totals.self_ns[Name::CudaLaunch as usize], 30);
        // Grandchildren did not subtract from the root a second time, so the
        // self times sum to the root's duration.
        assert_eq!(totals.total_self_ns(), 100);
    }

    #[test]
    fn tracer_preserves_nesting_and_op_ids() {
        let t = Tracer::new(true);
        t.set_op(7);
        let got = t.span(Name::Driver, || {
            t.span(Name::Rodinia, || t.span(Name::CudaLaunch, || 3)) + t.span(Name::CoreSync, || 4)
        });
        assert_eq!(got, 7);
        let spans = t.take();
        let shape: Vec<(Name, u32)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                (Name::Driver, ROOT),
                (Name::Rodinia, 0),
                (Name::CudaLaunch, 1),
                (Name::CoreSync, 0)
            ]
        );
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.take().is_empty());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(Name::CoreBoot, || 5), 5);
        assert!(t.take().is_empty());
    }

    #[test]
    fn names_index_their_own_table() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
