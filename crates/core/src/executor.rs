//! The executor model: who runs a stream's requests, and when.
//!
//! An [`Executor`] is a set of workers, each a virtual clock that runs one
//! request at a time. [`Executor::dispatch`] hands the stream head to the
//! earliest-free worker, which starts it once both the worker and the
//! request are ready — the only timing rule on the callee side of sRPC.
//!
//! A stream opened by default owns an executor with one worker per ring
//! lane, so up to `lanes` of its requests overlap and no other stream can
//! delay them. A stream opened with `.shared()` owns none: it drains on its
//! callee partition's executor, together with every other `.shared()`
//! stream into that partition, so one tenant's burst is another's backlog
//! wait — the contention the interference matrix attributes.
//! [`executor_of`] is the one place that knows which of the two a stream
//! uses.

use std::collections::BTreeMap;

use cronus_obs::WorkerId;
use cronus_sim::machine::AsId;
use cronus_sim::{SimClock, SimNs};

use crate::srpc::StreamState;

/// Worker clocks draining requests in dispatch order.
#[derive(Debug)]
pub(crate) struct Executor {
    /// Names the workers in telemetry (`index` is filled in per worker):
    /// [`WorkerId::lane`] of the owning stream, or [`WorkerId::pool`] of
    /// the partition.
    namespace: WorkerId,
    workers: Vec<SimClock>,
}

impl Executor {
    /// `workers` workers, all idle since `at`.
    pub(crate) fn new(namespace: WorkerId, workers: usize, at: SimNs) -> Self {
        Executor {
            namespace,
            workers: vec![SimClock::at(at); workers],
        }
    }

    /// Grows the executor to at least `workers` workers; the new ones are
    /// idle since `at`.
    pub(crate) fn widen(&mut self, workers: usize, at: SimNs) {
        if workers > self.workers.len() {
            self.workers.resize(workers, SimClock::at(at));
        }
    }

    /// Runs a request that became ready at `ready_at` on the earliest-free
    /// worker (the lowest index on ties): `serve` advances the worker's clock
    /// by what the request takes. Returns the worker and the instants it
    /// started and finished the request.
    pub(crate) fn dispatch(
        &mut self,
        ready_at: SimNs,
        serve: impl FnOnce(&mut SimClock),
    ) -> (WorkerId, SimNs, SimNs) {
        let free = self.workers.iter_mut().enumerate();
        let Some((index, worker)) = free.min_by_key(|(_, w)| w.now()) else {
            // Nobody to wait for: the request runs as soon as it is ready.
            let mut clock = SimClock::at(ready_at);
            serve(&mut clock);
            return (self.namespace, ready_at, clock.now());
        };
        worker.advance_to(ready_at);
        let started = worker.now();
        serve(worker);
        let id = WorkerId {
            index: index as u32,
            ..self.namespace
        };
        (id, started, worker.now())
    }

    /// Stalls every worker for `d`: nothing the executor has not yet
    /// started can start before the stall is over.
    pub(crate) fn stall(&mut self, d: SimNs) {
        for w in &mut self.workers {
            w.advance(d);
        }
    }
}

/// The executor `s` drains on: its own, or — for a `.shared()` stream,
/// which has none — its callee partition's.
pub(crate) fn executor_of<'a>(
    s: &'a mut StreamState,
    partitions: &'a mut BTreeMap<AsId, Executor>,
) -> Option<&'a mut Executor> {
    match &mut s.executor {
        Some(own) => Some(own),
        None => partitions.get_mut(&s.callee.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimNs {
        SimNs::from_nanos(n)
    }

    /// A request that takes `n` nanoseconds.
    fn takes(n: u64) -> impl FnOnce(&mut SimClock) {
        move |w| w.advance(ns(n))
    }

    #[test]
    fn earliest_free_worker_wins_and_ties_go_to_the_lowest_index() {
        let pool = |i| WorkerId::pool(2, i);
        let mut e = Executor::new(pool(0), 3, ns(100));
        // All idle: worker 0; then 1 and 2 tie: worker 1; then 2.
        for (worker, cost) in [(0, 50), (1, 10), (2, 30)] {
            assert_eq!(e.dispatch(ns(100), takes(cost)).0, pool(worker));
        }
        // Worker 1 frees first (110), then worker 2 (130).
        assert_eq!(e.dispatch(ns(100), takes(100)), (pool(1), ns(110), ns(210)));
        assert_eq!(e.dispatch(ns(100), takes(1)).0, pool(2));
    }

    #[test]
    fn a_worker_never_starts_before_the_request_is_ready() {
        let mut e = Executor::new(WorkerId::pool(2, 0), 2, ns(100));
        assert_eq!(e.dispatch(ns(500), takes(20)).1, ns(500));
        // Worker 1 has been idle since 100, the request is ready at 300.
        assert_eq!(
            e.dispatch(ns(300), takes(20)),
            (WorkerId::pool(2, 1), ns(300), ns(320))
        );
    }

    #[test]
    fn an_executor_of_one_is_serial_and_a_stall_delays_its_next_start() {
        let lane = WorkerId::lane(7, 0);
        let mut e = Executor::new(lane, 1, ns(0));
        assert_eq!(e.dispatch(ns(0), takes(25)), (lane, ns(0), ns(25)));
        assert_eq!(e.dispatch(ns(0), takes(25)), (lane, ns(25), ns(50)));
        e.stall(ns(1000));
        assert_eq!(e.dispatch(ns(0), takes(25)), (lane, ns(1050), ns(1075)));
        // Widening adds a worker idle since then; it never shrinks.
        e.widen(2, ns(60));
        e.widen(1, ns(0));
        assert_eq!(e.dispatch(ns(0), takes(5)).1, ns(60));
    }
}
