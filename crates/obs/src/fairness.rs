//! Fairness metrics and the noisy-neighbor interference matrix.
//!
//! Built entirely on the [`crate::meter`] ledgers: Jain's fairness index
//! and dominant-resource shares summarize *who* is consuming the machine,
//! while the interference matrix explains *who is hurting whom* — each
//! request's executor-backlog wait is attributed to the principals whose
//! requests actually occupied the contended worker during that wait, with
//! exemplar [`ReqId`]s so a report can say "partition A's p99 is worse
//! because of partition B's SM hogging, e.g. req 812 waited behind req
//! 805". All inputs are virtual-clock intervals, so the matrix is
//! deterministic: byte-identical per seed.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::meter::{Principal, ResourceMeter};
use crate::span::ReqId;

/// Jain's fairness index over per-principal allocations: `(Σx)² / (n·Σx²)`.
/// 1.0 = perfectly fair, 1/n = one principal holds everything. An empty or
/// all-zero allocation is vacuously fair (1.0).
pub fn jain_index(allocations: &[u64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().map(|&x| x as f64).sum();
    let sq_sum: f64 = allocations.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq_sum)
}

/// One principal's dominant resource: the resource where its share of the
/// machine-wide total is largest (the DRF notion of "dominant share").
#[derive(Clone, Debug, PartialEq)]
pub struct DominantShare {
    /// The principal.
    pub principal: Principal,
    /// Resource key the principal dominates in (e.g. `sm_ns`).
    pub resource: String,
    /// Its fraction of the machine-wide total for that resource, in [0, 1].
    pub share: f64,
}

/// Per-resource fairness summary across all principals.
#[derive(Clone, Debug, PartialEq)]
pub struct FairnessReport {
    /// `(resource key, Jain index over per-principal allocations)`.
    pub jain: Vec<(String, f64)>,
    /// Each principal's dominant-resource share, sorted by principal.
    pub dominant: Vec<DominantShare>,
}

impl FairnessReport {
    /// Computes fairness over every resource the meter has charges for.
    /// The `system` principal is excluded: platform overhead is nobody's
    /// allocation.
    pub fn compute(meter: &ResourceMeter) -> FairnessReport {
        let principals: Vec<Principal> = meter
            .principals()
            .into_iter()
            .filter(|p| *p != Principal::SYSTEM)
            .collect();
        let usages: Vec<BTreeMap<String, u64>> =
            principals.iter().map(|p| meter.usage_of(*p)).collect();
        let keys = meter.resource_keys();

        let mut jain = Vec::new();
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for key in &keys {
            let xs: Vec<u64> = usages
                .iter()
                .map(|u| u.get(key).copied().unwrap_or(0))
                .collect();
            totals.insert(key, xs.iter().sum());
            jain.push((key.clone(), jain_index(&xs)));
        }

        let mut dominant = Vec::new();
        for (p, usage) in principals.iter().zip(&usages) {
            let mut best: Option<(&str, f64)> = None;
            for key in &keys {
                let total = totals.get(key.as_str()).copied().unwrap_or(0);
                if total == 0 {
                    continue;
                }
                let share = usage.get(key).copied().unwrap_or(0) as f64 / total as f64;
                // Ties break toward the first key in sorted order, so the
                // report is deterministic.
                if best.is_none_or(|(_, s)| share > s) {
                    best = Some((key, share));
                }
            }
            if let Some((resource, share)) = best {
                dominant.push(DominantShare {
                    principal: *p,
                    resource: resource.to_string(),
                    share,
                });
            }
        }
        FairnessReport { jain, dominant }
    }

    /// Jain index for one resource key, if present.
    pub fn jain_of(&self, resource: &str) -> Option<f64> {
        self.jain
            .iter()
            .find(|(k, _)| k == resource)
            .map(|(_, j)| *j)
    }

    /// JSON form: `{"jain": {key: idx}, "dominant": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "jain",
                Json::Obj(
                    self.jain
                        .iter()
                        .map(|(k, j)| (k.clone(), Json::F64(*j)))
                        .collect(),
                ),
            ),
            (
                "dominant",
                Json::Arr(
                    self.dominant
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("principal", Json::Str(d.principal.to_string())),
                                ("resource", Json::Str(d.resource.clone())),
                                ("share", Json::F64(d.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// An exemplar interference: one concrete wait that the interferer's
/// occupancy prolonged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterferenceExemplar {
    /// The request that waited.
    pub victim_req: ReqId,
    /// The occupying request it waited behind.
    pub interferer_req: ReqId,
    /// Overlap between the wait window and the occupancy slice, ns.
    pub overlap_ns: u64,
}

/// One cell of the interference matrix: how much of `victim`'s backlog
/// wait overlapped `interferer`'s executor occupancy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterferenceCell {
    /// Total attributed wait, ns.
    pub ns: u64,
    /// Number of (wait, occupancy) overlapping pairs.
    pub overlaps: u64,
    /// The largest-overlap exemplar pair seen.
    pub exemplar: Option<InterferenceExemplar>,
}

/// The deterministic interference matrix: `(victim, interferer) -> cell`.
///
/// Diagonal cells (victim == interferer) are *self-queueing* — a partition
/// waiting behind its own earlier requests. They are kept in the matrix
/// (self-inflicted backlog is a real diagnosis) but excluded from
/// [`InterferenceMatrix::top_interferer_of`]: a partition cannot be its own
/// noisy neighbor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterferenceMatrix {
    /// Cells, keyed `(victim, interferer)`, deterministic order.
    pub cells: BTreeMap<(Principal, Principal), InterferenceCell>,
    /// Total backlog wait per victim, ns (attributed or not).
    pub waited: BTreeMap<Principal, u64>,
}

impl InterferenceMatrix {
    /// Builds the matrix from the meter's wait windows and occupancy
    /// slices. For each wait `[enqueued, started)` on a worker, every
    /// occupancy slice on the *same* worker contributes its overlap to the
    /// `(victim, occupier)` cell.
    pub fn build(meter: &ResourceMeter) -> InterferenceMatrix {
        let mut m = InterferenceMatrix::default();
        for w in meter.waits() {
            let (enqueued, started) = (w.enqueued().as_nanos(), w.started().as_nanos());
            *m.waited.entry(w.principal()).or_insert(0) += started - enqueued;
            for slice in meter.occupancy_of(w.worker()) {
                let lo = enqueued.max(slice.start().as_nanos());
                let hi = started.min(slice.end().as_nanos());
                if hi <= lo {
                    continue;
                }
                // The victim's own execution slice for this very request is
                // not interference (it starts when the wait ends, so it
                // never overlaps; this guards zero-width edge cases).
                if slice.req().is_some() && slice.req() == w.req() {
                    continue;
                }
                let overlap = hi - lo;
                let cell = m
                    .cells
                    .entry((w.principal(), slice.principal()))
                    .or_default();
                cell.ns += overlap;
                cell.overlaps += 1;
                if let (Some(victim_req), Some(interferer_req)) = (w.req(), slice.req()) {
                    let better = cell.exemplar.is_none_or(|e| overlap > e.overlap_ns);
                    if better {
                        cell.exemplar = Some(InterferenceExemplar {
                            victim_req,
                            interferer_req,
                            overlap_ns: overlap,
                        });
                    }
                }
            }
        }
        m
    }

    /// Victims present in the matrix, sorted.
    pub fn victims(&self) -> Vec<Principal> {
        let mut out: Vec<Principal> = self.cells.keys().map(|(v, _)| *v).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The principal that cost `victim` the most attributed wait, with the
    /// amount — excluding `victim` itself (self-queueing is not
    /// interference). Ties break toward the lower principal id.
    pub fn top_interferer_of(&self, victim: Principal) -> Option<(Principal, u64)> {
        self.cells
            .iter()
            .filter(|((v, i), _)| *v == victim && *i != victim)
            .map(|((_, i), cell)| (*i, cell.ns))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Machine-wide top interferer: the principal with the largest total
    /// attributed interference on *other* principals.
    pub fn top_interferer(&self) -> Option<(Principal, u64)> {
        let mut totals: BTreeMap<Principal, u64> = BTreeMap::new();
        for ((victim, interferer), cell) in &self.cells {
            if victim != interferer {
                *totals.entry(*interferer).or_insert(0) += cell.ns;
            }
        }
        totals
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// JSON form: `{"cells": [...], "waited": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|((v, i), cell)| {
                            let mut fields = vec![
                                ("victim".to_string(), Json::Str(v.to_string())),
                                ("interferer".to_string(), Json::Str(i.to_string())),
                                ("ns".to_string(), Json::U64(cell.ns)),
                                ("overlaps".to_string(), Json::U64(cell.overlaps)),
                            ];
                            if let Some(e) = cell.exemplar {
                                fields.push((
                                    "exemplar".to_string(),
                                    Json::obj([
                                        ("victim_req", Json::U64(e.victim_req.0)),
                                        ("interferer_req", Json::U64(e.interferer_req.0)),
                                        ("overlap_ns", Json::U64(e.overlap_ns)),
                                    ]),
                                ));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "waited",
                Json::Obj(
                    self.waited
                        .iter()
                        .map(|(p, ns)| (p.to_string(), Json::U64(*ns)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountResource, ExecClass, MeterScope, WorkerId};
    use crate::profile::TimeCategory;
    use cronus_sim::SimNs;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        assert_eq!(jain_index(&[5, 5, 5]), 1.0);
        let skewed = jain_index(&[100, 0, 0, 0]);
        assert!((skewed - 0.25).abs() < 1e-12, "{skewed}");
        let mild = jain_index(&[3, 1]);
        assert!(mild > 0.25 && mild < 1.0);
    }

    #[test]
    fn fairness_report_finds_dominant_resource() {
        let mut m = ResourceMeter::new();
        m.set_scope(MeterScope::principal(Principal(1)).with_class(ExecClass::Gpu));
        m.charge_time(TimeCategory::Kernel, ns(900));
        m.add_count(CountResource::DmaBytes, 100);
        m.set_scope(MeterScope::principal(Principal(2)));
        m.charge_time(TimeCategory::Kernel, ns(100));
        m.add_count(CountResource::DmaBytes, 900);

        let f = FairnessReport::compute(&m);
        // sm_ns: [900, 0], cpu_ns: [0, 100], dma: [100, 900] — all skewed.
        let j = f.jain_of("dma_bytes").expect("dma metered");
        assert!((j - jain_index(&[100, 900])).abs() < 1e-12);
        let d1 = f.dominant.iter().find(|d| d.principal == Principal(1));
        assert_eq!(d1.map(|d| d.resource.as_str()), Some("sm_ns"));
        assert_eq!(d1.map(|d| d.share), Some(1.0));
        let d2 = f.dominant.iter().find(|d| d.principal == Principal(2));
        assert_eq!(d2.map(|d| d.resource.as_str()), Some("cpu_ns"));
        assert!(f.to_json().render().contains("dominant"));
    }

    #[test]
    fn interference_attributes_overlap_to_occupier() {
        let mut m = ResourceMeter::new();
        let w = WorkerId::pool(3, 0);
        // Noisy principal 2 occupies [0, 1000).
        m.set_scope(MeterScope::principal(Principal(2)).with_stream(9));
        m.record_occupancy(w, Some(ReqId(5)), ns(0), ns(1000));
        // Victim principal 1 waits [200, 1000) on the same worker.
        m.set_scope(MeterScope::principal(Principal(1)).with_stream(4));
        m.record_wait(w, Some(ReqId(6)), ns(200), ns(1000));
        // A wait on a different worker attributes nothing.
        m.record_wait(WorkerId::pool(3, 1), Some(ReqId(7)), ns(0), ns(50));

        let x = InterferenceMatrix::build(&m);
        let cell = x
            .cells
            .get(&(Principal(1), Principal(2)))
            .expect("attributed");
        assert_eq!(cell.ns, 800);
        assert_eq!(cell.overlaps, 1);
        assert_eq!(
            cell.exemplar,
            Some(InterferenceExemplar {
                victim_req: ReqId(6),
                interferer_req: ReqId(5),
                overlap_ns: 800,
            })
        );
        assert_eq!(x.top_interferer_of(Principal(1)), Some((Principal(2), 800)));
        assert_eq!(x.top_interferer(), Some((Principal(2), 800)));
        assert_eq!(x.waited.get(&Principal(1)), Some(&850));
    }

    #[test]
    fn self_queueing_stays_on_the_diagonal() {
        let mut m = ResourceMeter::new();
        let w = WorkerId::lane(7, 0);
        m.set_scope(MeterScope::principal(Principal(1)).with_stream(7));
        m.record_occupancy(w, Some(ReqId(1)), ns(0), ns(500));
        m.record_wait(w, Some(ReqId(2)), ns(100), ns(500));

        let x = InterferenceMatrix::build(&m);
        let diag = x
            .cells
            .get(&(Principal(1), Principal(1)))
            .expect("self-queueing recorded");
        assert_eq!(diag.ns, 400);
        // But a partition is never its own top interferer.
        assert_eq!(x.top_interferer_of(Principal(1)), None);
        assert_eq!(x.top_interferer(), None);
    }

    #[test]
    fn own_request_slice_is_not_interference() {
        let mut m = ResourceMeter::new();
        let w = WorkerId::pool(2, 0);
        m.set_scope(MeterScope::principal(Principal(1)));
        // Same req on both sides: guard kicks in even if windows touch.
        m.record_occupancy(w, Some(ReqId(3)), ns(100), ns(300));
        m.record_wait(w, Some(ReqId(3)), ns(0), ns(300));
        let x = InterferenceMatrix::build(&m);
        assert!(x.cells.is_empty());
    }
}
