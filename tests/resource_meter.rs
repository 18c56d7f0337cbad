//! Integration tests for the per-partition resource meter: conservation of
//! every metered resource against the profiler's authoritative totals, and
//! byte-identical determinism of the interference observatory.
//!
//! `full` is the generated random-mix suite (the in-repo `proptest` shim,
//! seeded by the test's name); `smoke` holds the fixed-seed checks:
//! determinism, divergence across seeds and the conviction at figure scale.

use cronus::bench::experiments::{interference, saturation};

mod full {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Conservation is workload-independent: for any seeded saturation
        /// mix (bursty echo + DMA + kernel launches), the per-principal
        /// charges sum exactly to the profiler category totals.
        #[test]
        fn conservation_holds_for_random_saturation_mixes(
            seed in 1u64..u32::MAX as u64,
            calls in 50u64..250,
        ) {
            let rec = saturation::run_recorded(seed, calls);
            let rows = rec.meter_conservation();
            prop_assert!(rows.is_ok(), "imbalance: {:?}", rows.err());
        }

        /// Same invariant under deliberate cross-partition contention: the
        /// noisy-neighbor mix keeps every ledger balanced no matter how the
        /// bursts interleave.
        #[test]
        fn conservation_holds_for_random_interference_mixes(
            seed in 1u64..u32::MAX as u64,
            rounds in 4u64..20,
        ) {
            let run = interference::run_recorded(seed, rounds);
            let rows = run.recorder.meter_conservation();
            prop_assert!(rows.is_ok(), "imbalance: {:?}", rows.err());
        }
    }
}

mod smoke {
    use super::*;

    /// A deterministic slice of the random-mix property: conservation on
    /// several seeds of both workload shapes, always on in tier-1.
    #[test]
    fn conservation_holds_across_workload_mixes() {
        for seed in [1, 7, 42] {
            let rec = saturation::run_recorded(seed, 150);
            rec.meter_conservation()
                .unwrap_or_else(|e| panic!("saturation seed {seed}: {e}"));
            let run = interference::run_recorded(seed, 8);
            run.recorder
                .meter_conservation()
                .unwrap_or_else(|e| panic!("interference seed {seed}: {e}"));
        }
    }

    /// The interference observatory is a pure function of the seed: two
    /// runs render byte-identical matrices, ledgers and fairness reports.
    #[test]
    fn interference_matrix_is_byte_identical_per_seed() {
        let a = interference::run_recorded(11, 10);
        let b = interference::run_recorded(11, 10);
        assert_eq!(
            a.recorder.interference_matrix().to_json().render(),
            b.recorder.interference_matrix().to_json().render()
        );
        assert_eq!(
            a.recorder.fairness_report().to_json().render(),
            b.recorder.fairness_report().to_json().render()
        );
        let usage = |run: &interference::InterferenceRun| {
            run.recorder.with(|r| {
                r.meter
                    .principals()
                    .into_iter()
                    .map(|p| cronus::obs::meter::usage_json(&r.meter.usage_of(p)).render())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(usage(&a), usage(&b));
    }

    /// Different seeds genuinely change the workload (the determinism test
    /// above is not vacuous).
    #[test]
    fn different_seeds_diverge() {
        let a = interference::run_recorded(1, 10);
        let b = interference::run_recorded(2, 10);
        assert_ne!(
            a.recorder.interference_matrix().to_json().render(),
            b.recorder.interference_matrix().to_json().render()
        );
    }

    /// The committed fig_interference scale names the injected noisy GEMM
    /// partition as the victim's top interferer, with an exemplar pair.
    #[test]
    fn noisy_neighbor_is_convicted_with_exemplars() {
        let run = interference::run_recorded(42, 24);
        let matrix = run.recorder.interference_matrix();
        let (top, ns) = matrix
            .top_interferer_of(run.victim)
            .expect("victim waits recorded");
        assert_eq!(top, run.noisy);
        assert!(ns > 0);
        let cell = matrix
            .cells
            .get(&(run.victim, run.noisy))
            .expect("victim<-noisy cell");
        assert!(cell.exemplar.is_some(), "exemplar ReqIds must be attached");
    }
}
