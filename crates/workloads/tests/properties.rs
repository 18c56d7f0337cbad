//! Property-based tests for workload reference implementations and model
//! accounting.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus_workloads::dnn::layers::Layer;
    use cronus_workloads::dnn::models;
    use cronus_workloads::rodinia::{bfs, gaussian, lud, nw, pathfinder};

    proptest! {
        /// Gaussian elimination's solution satisfies the original system for
        /// arbitrary (diagonally dominant) sizes.
        #[test]
        fn gaussian_solution_is_valid(n in 2usize..24) {
            let (a, b) = gaussian::build_system(n);
            let x = gaussian::reference_solve(n);
            for i in 0..n {
                let lhs: f32 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
                prop_assert!((lhs - b[i]).abs() < 1e-2, "row {}: {} vs {}", i, lhs, b[i]);
            }
        }

        /// LU reconstruction recovers the original matrix for arbitrary sizes.
        #[test]
        fn lud_reconstructs(n in 2usize..20) {
            let a = lud::build_matrix(n);
            let back = lud::reconstruct(&lud::reference_lu(n), n);
            for i in 0..n * n {
                prop_assert!((a[i] - back[i]).abs() < 1e-2);
            }
        }

        /// BFS levels are consistent: every reached node at depth d+1 has a
        /// predecessor at depth d.
        #[test]
        fn bfs_levels_consistent(n in 8usize..128) {
            let (offsets, targets) = bfs::build_graph(n, 4);
            let levels = bfs::reference_levels(&offsets, &targets);
            prop_assert_eq!(levels[0], 0);
            for v in 0..n {
                let lv = levels[v];
                if lv != u32::MAX && lv > 0 {
                    // Some u with level lv-1 has an edge to v.
                    let has_pred = (0..n).any(|u| {
                        levels[u] == lv - 1
                            && targets[offsets[u] as usize..offsets[u + 1] as usize]
                                .contains(&(v as u32))
                    });
                    prop_assert!(has_pred, "node {} at level {} lacks a predecessor", v, lv);
                }
            }
        }

        /// Needleman–Wunsch scores are bounded by ±n for n-length sequences.
        #[test]
        fn nw_score_bounds(n in 2usize..64) {
            let score = nw::reference_score(n);
            prop_assert!(score <= n as f32);
            prop_assert!(score >= -(2.0 * n as f32));
        }

        /// Pathfinder costs are bounded by the per-cell cost range: with cell
        /// costs in [0, 10), every best path over `rows` rows lies in
        /// [0, 10 * rows).
        #[test]
        fn pathfinder_costs_bounded(rows in 2usize..16, cols in 4usize..64) {
            let result = pathfinder::reference_result(rows, cols);
            prop_assert_eq!(result.len(), cols);
            for v in result {
                prop_assert!(v >= 0.0);
                prop_assert!(v < 10.0 * rows as f32);
            }
        }

        /// Conv layer accounting: FLOPs scale exactly with channel products and
        /// output area for arbitrary shapes.
        #[test]
        fn conv_flops_scale(in_ch in 1usize..32, out_ch in 1usize..32, hw in 4usize..64) {
            let base = Layer::Conv2d { in_ch, out_ch, kernel: 3, stride: 1, in_hw: hw };
            let double = Layer::Conv2d { in_ch, out_ch: out_ch * 2, kernel: 3, stride: 1, in_hw: hw };
            prop_assert!((double.forward_flops() / base.forward_flops() - 2.0).abs() < 1e-9);
            prop_assert_eq!(base.out_hw(), Some(hw));
            prop_assert!(base.params() > 0);
        }

        /// Every model constructor yields positive FLOPs, params and at least
        /// one parameterized layer; training FLOPs are exactly 3x forward.
        #[test]
        fn model_accounting_invariants(which in 0usize..7) {
            let model = match which {
                0 => models::lenet5(),
                1 => models::vgg16_cifar(),
                2 => models::resnet50_cifar(),
                3 => models::resnet18(),
                4 => models::resnet50(),
                5 => models::densenet121(),
                _ => models::yolov3(),
            };
            prop_assert!(model.forward_flops() > 0.0);
            prop_assert!(model.params() > 0);
            prop_assert!(model.param_layers() >= 1);
            prop_assert!((model.training_flops() - 3.0 * model.forward_flops()).abs() < 1.0);
        }
    }
}
