//! Property-based tests for the queue observatory's Little's-law self-test
//! and for the recorder's two ways in (by string, by resolved handle).
//!
//! The full generated suite lives in the gated `full` module (enable with the
//! non-default `proptest` feature, e.g. `cargo test --all-features`); the
//! `smoke` module keeps a deterministic subset always on.
//!
//! The property under test: for an *honestly* instrumented FIFO single-server
//! queue — enqueue/dequeue timestamps and caller-reported wait/service splits
//! that describe the same physical history — the timestamp-derived mean depth
//! `(Σ deq_at − Σ enq_at) / window` and the sojourn-derived `λW` agree within
//! tolerance, for any arrival/service pattern. Corrupting the reported waits
//! (while leaving the timestamps honest) must be flagged.
//!
//! The recorder property: any sequence of recording operations leaves the
//! same metrics snapshot, trace, folded stacks, queue samples and overflow
//! count whether each operation names its series, span, frame and station by
//! string or goes through handles resolved before the first operation.

/// One recording operation. Every field is an index into a small fixed
/// vocabulary or a small amount, so sequences collide on series, tracks and
/// stations and run past the label cap.
pub type Op = (u8, u8, u8, u16);

mod two_ways {
    use std::collections::HashMap;

    use cronus_obs::{
        CountResource, FlightRecorder, MeterScope, Principal, QueueKind, ReqId, SpanId,
        TimeCategory, TrackId, WorkerId,
    };
    use cronus_sim::SimNs;

    use super::Op;

    const METRICS: [&str; 2] = ["m.alpha", "m.beta"];
    /// Eight label values against a cap of four: half of them overflow.
    const LABELS: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "7"];
    const TRACKS: [&str; 3] = ["enclave:e1", "stream:1", "gpu:2"];
    const NAMES: [&str; 4] = ["enqueue:echo", "echo", "exec", "await-executor"];
    const STATIONS: [&str; 3] = ["srpc.ring:1.0", "srpc.ring:1.1", "dma"];
    const DETAILS: [Option<&str>; 3] = [None, Some("enqueue"), Some("echo")];
    const CATEGORIES: [TimeCategory; 3] = [
        TimeCategory::Ring,
        TimeCategory::Kernel,
        TimeCategory::Memcpy,
    ];
    pub const LABEL_CAP: usize = 4;

    fn pick<T: Copy>(from: &[T], i: u8) -> T {
        from[i as usize % from.len()]
    }

    fn worker(i: u8) -> WorkerId {
        WorkerId::lane(1, u32::from(i % 2))
    }

    fn fresh() -> FlightRecorder {
        let rec = FlightRecorder::new();
        rec.with(|r| r.metrics.set_max_label_sets(LABEL_CAP));
        for name in STATIONS {
            rec.queue_declare(name, QueueKind::Ring, 8);
        }
        rec
    }

    /// What both drivers keep between operations: the clock and the spans
    /// open on each track.
    #[derive(Default)]
    struct Cursor {
        now: u64,
        open: HashMap<usize, Vec<(TrackId, SpanId)>>,
    }

    impl Cursor {
        fn tick(&mut self, by: u16) -> SimNs {
            self.now += u64::from(by);
            SimNs::from_nanos(self.now)
        }
    }

    /// Applies `ops` through the string-keyed `FlightRecorder` methods.
    pub fn by_string(ops: &[Op]) -> FlightRecorder {
        let rec = fresh();
        let mut cur = Cursor::default();
        for &(kind, a, b, amount) in ops {
            let at = cur.tick(amount % 97);
            let d = SimNs::from_nanos(u64::from(amount));
            let labels = [("k", pick(&LABELS, b))];
            match kind % 13 {
                0 => rec.counter_add(pick(&METRICS, a), &labels, u64::from(amount)),
                1 => rec.gauge_set(pick(&METRICS, a), &labels, i64::from(amount) - 300),
                2 => rec.observe(pick(&METRICS, a), &labels, d),
                3 => {
                    let track = rec.track(pick(&TRACKS, a));
                    let id = rec.begin_span(track, pick(&NAMES, b), "srpc", at);
                    cur.open.entry(track.0).or_default().push((track, id));
                }
                4 => {
                    let track = rec.track(pick(&TRACKS, a));
                    if let Some((track, id)) = cur.open.entry(track.0).or_default().pop() {
                        rec.end_span(track, id, at);
                    }
                }
                5 => {
                    let track = rec.track(pick(&TRACKS, a));
                    rec.complete_span(track, pick(&NAMES, b), "ring", at, at + d);
                }
                6 => rec.queue_enqueue(pick(&STATIONS, a), at),
                7 => rec.queue_dequeue(pick(&STATIONS, a), at, d, d + d),
                8 => match pick(&DETAILS, b) {
                    Some(detail) => rec.charge_detail(pick(&CATEGORIES, a), detail, d),
                    None => rec.charge(pick(&CATEGORIES, a), d),
                },
                9 => {
                    let scope = MeterScope::principal(Principal(u32::from(a % 3)))
                        .with_stream(u64::from(b % 2));
                    rec.set_meter_scope(scope);
                    rec.set_current_req((b % 4 != 0).then_some(ReqId(u64::from(b))));
                }
                10 => rec.meter_count(pick(&CountResource::ALL, a), u64::from(amount)),
                11 => rec.meter_occupy(worker(a), at, at + d),
                _ => rec.meter_wait(worker(a), at, at + d),
            }
        }
        rec
    }

    /// Applies `ops` through handles: every series, span name, frame and
    /// station is resolved before the first operation (tracks on first use,
    /// since track creation order numbers the trace rows), and each
    /// operation is one locked step on the inner store.
    pub fn by_handle(ops: &[Op]) -> FlightRecorder {
        let rec = fresh();
        let (counters, gauges, histograms, names, frames, stations) = rec.with(|r| {
            let mut counters = Vec::new();
            let mut gauges = Vec::new();
            let mut histograms = Vec::new();
            for metric in METRICS {
                for label in LABELS {
                    let labels = [("k", label)];
                    counters.push(r.metrics.counter_id(metric, &labels));
                    gauges.push(r.metrics.gauge_id(metric, &labels));
                    histograms.push(r.metrics.histogram_id(metric, &labels));
                }
            }
            let names: Vec<_> = NAMES.iter().map(|n| r.spans.intern(n)).collect();
            let mut frames = Vec::new();
            for cat in CATEGORIES {
                for detail in DETAILS {
                    frames.push(r.profiler.frame(cat, detail));
                }
            }
            let stations: Vec<_> = STATIONS
                .iter()
                .map(|s| r.queues.station_id(s).expect("declared by fresh()"))
                .collect();
            (counters, gauges, histograms, names, frames, stations)
        });
        let series =
            |a: u8, b: u8| (a as usize % METRICS.len()) * LABELS.len() + b as usize % LABELS.len();
        let mut tracks: [Option<TrackId>; TRACKS.len()] = [None; TRACKS.len()];
        let mut cur = Cursor::default();
        for &(kind, a, b, amount) in ops {
            let at = cur.tick(amount % 97);
            let d = SimNs::from_nanos(u64::from(amount));
            rec.with(|r| {
                let mut track = |r: &mut cronus_obs::RecorderInner| {
                    let i = a as usize % TRACKS.len();
                    *tracks[i].get_or_insert_with(|| r.spans.track(TRACKS[i]))
                };
                match kind % 13 {
                    0 => r
                        .metrics
                        .counter_bump(counters[series(a, b)], u64::from(amount)),
                    1 => r
                        .metrics
                        .gauge_store(gauges[series(a, b)], i64::from(amount) - 300),
                    2 => r.metrics.histogram_record(histograms[series(a, b)], d),
                    3 => {
                        let track = track(r);
                        let id = r.begin_span(track, pick(&names, b), "srpc", at);
                        cur.open.entry(track.0).or_default().push((track, id));
                    }
                    4 => {
                        let track = track(r);
                        if let Some((track, id)) = cur.open.entry(track.0).or_default().pop() {
                            r.end_span(track, id, at);
                        }
                    }
                    5 => {
                        let track = track(r);
                        r.complete_span(track, pick(&names, b), "ring", at, at + d);
                    }
                    6 => r.queues.at(pick(&stations, a)).enqueue(at),
                    7 => r.queue_dequeue(pick(&stations, a), at, d, d + d),
                    8 => {
                        let frame = (a as usize % CATEGORIES.len()) * DETAILS.len()
                            + b as usize % DETAILS.len();
                        r.charge_frame(frames[frame], d);
                    }
                    9 => {
                        let scope = MeterScope::principal(Principal(u32::from(a % 3)))
                            .with_stream(u64::from(b % 2));
                        r.meter.set_scope(scope);
                        r.spans
                            .set_current_req((b % 4 != 0).then_some(ReqId(u64::from(b))));
                    }
                    10 => r
                        .meter
                        .add_count(pick(&CountResource::ALL, a), u64::from(amount)),
                    11 => r.meter_occupy(worker(a), at, at + d),
                    _ => r.meter_wait(worker(a), at, at + d),
                }
            });
        }
        rec
    }

    /// Every rendering the two ways in must agree on, byte for byte.
    pub fn renderings(rec: &FlightRecorder) -> [String; 6] {
        [
            rec.metrics_snapshot_json("two-ways"),
            rec.chrome_trace_json(),
            rec.folded_stacks(),
            rec.queue_samples_text(),
            rec.with(|r| r.metrics.label_overflow()).to_string(),
            rec.fairness_report().to_json().render(),
        ]
    }
}

/// Drives a FIFO single-server queue through a station honestly: item `i`
/// arrives at the cumulative sum of `gaps[..i]`, starts service when both it
/// and the server are ready, and reports its true wait/service split at its
/// true completion instant. Returns the final virtual time.
fn drive_honest(
    st: &mut cronus_obs::queue::QueueStation,
    gaps: &[u64],
    svcs: &[u64],
    wait_scale: u64,
) -> u64 {
    let ns = cronus_sim::SimNs::from_nanos;
    let mut arrive = 0u64;
    let mut server_free = 0u64;
    let mut pending: Vec<(u64, u64)> = Vec::new(); // (arrive, svc)
    let n = gaps.len().min(svcs.len());
    for i in 0..n {
        arrive += gaps[i];
        st.enqueue(ns(arrive));
        pending.push((arrive, svcs[i]));
        // Complete everything the server finishes before the next arrival.
        let horizon = if i + 1 < n {
            arrive + gaps[i + 1]
        } else {
            u64::MAX
        };
        while let Some(&(a, s)) = pending.first() {
            let start = server_free.max(a);
            if start >= horizon {
                break;
            }
            pending.remove(0);
            let done = start + s;
            server_free = done;
            st.dequeue(ns(done), ns((start - a) * wait_scale), ns(s));
        }
    }
    while let Some((a, s)) = pending.first().copied() {
        pending.remove(0);
        let start = server_free.max(a);
        let done = start + s;
        server_free = done;
        st.dequeue(ns(done), ns((start - a) * wait_scale), ns(s));
    }
    server_free
}

#[cfg(feature = "proptest")]
mod full {
    use proptest::prelude::*;

    use cronus_obs::queue::{
        QueueKind, QueueStation, DEFAULT_LITTLE_TOLERANCE, MIN_LITTLE_DEQUEUES,
    };
    use cronus_sim::SimNs;

    use super::drive_honest;

    proptest! {
        /// Recording by string and recording through handles resolved up
        /// front are the same recording, whatever is recorded.
        #[test]
        fn handles_and_strings_record_identically(
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), 0u16..600),
                0..400,
            ),
        ) {
            let a = super::two_ways::renderings(&super::two_ways::by_string(&ops));
            let b = super::two_ways::renderings(&super::two_ways::by_handle(&ops));
            prop_assert_eq!(a, b);
        }

        /// Any honest FIFO trace passes the cross-check: arrivals with
        /// arbitrary gaps, arbitrary per-item service times (sub-critical,
        /// critical, or saturated — the property does not depend on load).
        #[test]
        fn honest_traces_always_pass(
            gaps in proptest::collection::vec(1u64..5_000, 8..80),
            svcs in proptest::collection::vec(1u64..8_000, 8..80),
        ) {
            let mut st = QueueStation::new("q", QueueKind::Ring, 64);
            drive_honest(&mut st, &gaps, &svcs, 1);
            let n = gaps.len().min(svcs.len()) as u64;
            prop_assume!(n >= MIN_LITTLE_DEQUEUES);
            let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
            prop_assert!(u.little.checked, "drained queue must be checkable");
            prop_assert!(
                u.little.within,
                "honest trace flagged: rel_err {} L_obs {} L_pred {}",
                u.little.rel_err, u.little.l_observed, u.little.l_predicted
            );
        }

        /// Over-reporting waits by 4x on a *saturated* queue (service always
        /// exceeds the arrival gap, so real waiting accumulates) must push the
        /// predicted λW far enough from the observed L to be flagged.
        #[test]
        fn corrupted_waits_are_flagged(
            gaps in proptest::collection::vec(50u64..500, 16..64),
            extra in proptest::collection::vec(1u64..2_000, 16..64),
        ) {
            let n = gaps.len().min(extra.len());
            // svc = 2*gap + extra guarantees a growing backlog, hence
            // substantial genuine waits for the corruption to inflate.
            let svcs: Vec<u64> = (0..n).map(|i| gaps[i] * 2 + extra[i]).collect();
            let mut st = QueueStation::new("q", QueueKind::Ring, 64);
            drive_honest(&mut st, &gaps[..n], &svcs, 4);
            let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
            prop_assert!(u.little.checked);
            prop_assert!(
                !u.little.within,
                "4x wait inflation slipped through: rel_err {} L_obs {} L_pred {}",
                u.little.rel_err, u.little.l_observed, u.little.l_predicted
            );
        }

        /// The observed-L sum form is invariant under the order completions
        /// are *reported* in: replaying the same physical history with the
        /// dequeue calls arbitrarily permuted (as a lazily-drained ring does
        /// at `sync`) yields the identical l_observed.
        #[test]
        fn observed_l_is_reporting_order_invariant(
            gaps in proptest::collection::vec(1u64..1_000, 8..40),
            svcs in proptest::collection::vec(1u64..2_000, 8..40),
            rot in 1usize..16,
        ) {
            let n = gaps.len().min(svcs.len());
            prop_assume!(n as u64 >= MIN_LITTLE_DEQUEUES);
            // Compute the true completion schedule once.
            let mut arrive = 0u64;
            let mut server_free = 0u64;
            let mut events: Vec<(u64, u64, u64)> = Vec::new(); // (enq, deq, wait)
            for i in 0..n {
                arrive += gaps[i];
                let start = server_free.max(arrive);
                let done = start + svcs[i];
                server_free = done;
                events.push((arrive, done, start - arrive));
            }
            let run = |order: &[usize]| {
                let mut st = QueueStation::new("q", QueueKind::Ring, 64);
                for &(enq, _, _) in &events {
                    st.enqueue(SimNs::from_nanos(enq));
                }
                for &i in order {
                    let (_, deq, wait) = events[i];
                    st.dequeue(
                        SimNs::from_nanos(deq),
                        SimNs::from_nanos(wait),
                        SimNs::from_nanos(svcs[i]),
                    );
                }
                st.use_metrics(DEFAULT_LITTLE_TOLERANCE)
            };
            let fifo: Vec<usize> = (0..n).collect();
            let mut rotated = fifo.clone();
            rotated.rotate_left(rot % n);
            let a = run(&fifo);
            let b = run(&rotated);
            prop_assert_eq!(a.little.l_observed.to_bits(), b.little.l_observed.to_bits());
            prop_assert!(a.little.checked && b.little.checked);
            prop_assert!(a.little.within && b.little.within);
        }
    }
}

mod smoke {
    use cronus_obs::queue::{QueueKind, QueueStation, DEFAULT_LITTLE_TOLERANCE};

    use super::{drive_honest, two_ways, Op};

    #[test]
    fn handles_and_strings_record_identically_fixed() {
        // A fixed pseudo-random sequence, long enough to pass the label cap
        // on every metric kind and to open, nest and close spans on every
        // track.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let ops: Vec<Op> = (0..1_500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let [k, a, b, lo, hi, ..] = x.to_le_bytes();
                (k, a, b, u16::from_le_bytes([lo, hi]) % 600)
            })
            .collect();
        let by_string = two_ways::by_string(&ops);
        let by_handle = two_ways::by_handle(&ops);
        assert_eq!(
            two_ways::renderings(&by_string),
            two_ways::renderings(&by_handle)
        );
        let overflowed = by_string.with(|r| r.metrics.label_overflow());
        assert!(overflowed > 0, "the sequence must run past the label cap");
        assert!(by_string.lock().spans.spans().len() > 100);
    }

    #[test]
    fn honest_trace_passes_fixed() {
        // Deterministic mixed-load trace: bursty gaps, varied service.
        let gaps: Vec<u64> = (0..40u64).map(|i| 100 + (i * 37) % 900).collect();
        let svcs: Vec<u64> = (0..40u64).map(|i| 50 + (i * 113) % 1_500).collect();
        let mut st = QueueStation::new("q", QueueKind::Ring, 64);
        drive_honest(&mut st, &gaps, &svcs, 1);
        let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
        assert!(u.little.checked);
        assert!(
            u.little.within,
            "rel_err {} L_obs {} L_pred {}",
            u.little.rel_err, u.little.l_observed, u.little.l_predicted
        );
    }

    #[test]
    fn corrupted_trace_flagged_fixed() {
        let gaps = vec![100u64; 32];
        let svcs = vec![250u64; 32]; // saturated: real waits accumulate
        let mut st = QueueStation::new("q", QueueKind::Ring, 64);
        drive_honest(&mut st, &gaps, &svcs, 4);
        let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
        assert!(u.little.checked);
        assert!(!u.little.within, "rel_err {}", u.little.rel_err);
    }
}
