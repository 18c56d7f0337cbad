//! Cross-system correctness: every workload must compute bit-identical
//! results on native Linux, monolithic TrustZone, HIX-TrustZone and CRONUS
//! — the systems differ only in protection costs, never in results.

use cronus::baselines::direct::{hix_backend, native_backend, trustzone_backend};
use cronus::core::CronusSystem;
use cronus::mos::manifest::Manifest;
use cronus::runtime::{CudaContext, CudaOptions};
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
use cronus::workloads::backend::{CronusGpuBackend, GpuBackend};
use cronus::workloads::dnn::train::train_real_mlp;
use cronus::workloads::kernels::register_standard_kernels;
use cronus::workloads::rodinia;
use std::collections::BTreeMap;

fn with_cronus_backend<T>(f: impl FnOnce(&mut dyn GpuBackend) -> T) -> T {
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 28,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    });
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            cronus::core::Actor::App(app),
            Manifest::new(cronus::devices::DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu enclave");
    let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda ctx");
    let mut backend = CronusGpuBackend::new(&mut sys, cuda);
    f(&mut backend)
}

#[test]
fn rodinia_checksums_identical_across_systems() {
    // Gather checksums per system for the full suite.
    let mut all: Vec<(String, Vec<f64>)> = Vec::new();

    for mut backend in [native_backend(), trustzone_backend(), hix_backend()] {
        register_standard_kernels(&mut backend).expect("kernels");
        let sums: Vec<f64> = rodinia::suite()
            .into_iter()
            .map(|(_, f)| f(&mut backend, 1).expect("workload").checksum)
            .collect();
        all.push((backend.system_name().to_string(), sums));
    }
    let cronus_sums = with_cronus_backend(|backend| {
        register_standard_kernels(backend).expect("kernels");
        rodinia::suite()
            .into_iter()
            .map(|(_, f)| f(backend, 1).expect("workload").checksum)
            .collect::<Vec<f64>>()
    });
    all.push(("cronus".to_string(), cronus_sums));

    let reference = &all[0].1;
    for (system, sums) in &all[1..] {
        for (i, (name, _)) in rodinia::suite().iter().enumerate() {
            assert_eq!(
                sums[i], reference[i],
                "{system}/{name} diverged from {}",
                all[0].0
            );
        }
    }
}

#[test]
fn mlp_learns_identically_everywhere() {
    let mut curves: Vec<(String, Vec<f32>)> = Vec::new();
    for mut backend in [native_backend(), trustzone_backend(), hix_backend()] {
        register_standard_kernels(&mut backend).expect("kernels");
        let losses = train_real_mlp(&mut backend, 80).expect("training");
        curves.push((backend.system_name().to_string(), losses));
    }
    let cronus_losses = with_cronus_backend(|backend| {
        register_standard_kernels(backend).expect("kernels");
        train_real_mlp(backend, 80).expect("training")
    });
    curves.push(("cronus".to_string(), cronus_losses));

    let reference = curves[0].1.clone();
    for (system, losses) in &curves {
        assert_eq!(losses, &reference, "{system} training curve diverged");
    }
    assert!(reference.last().expect("losses") < &(reference[0] * 0.6));
}

/// The benchmark's `accel_apps` check, where tier-1 can see it: the
/// ten-program suite at the benchmark's scale computes the same bits behind
/// sRPC as on the native backend, and what each program's CPU reference
/// computes (exactly where the program is integer- or max-plus-valued,
/// within its own unit test's tolerance where the host sums in another
/// order).
#[test]
fn rodinia_at_benchmark_scale_matches_native_and_cpu_references() {
    const SCALE: usize = 4;
    use rodinia::{backprop, bfs, gaussian, hotspot, kmeans, lud, nn, nw, pathfinder, srad};
    // (reference checksum, absolute tolerance, relative tolerance)
    let references: [(&str, f64, f64, f64); 10] = [
        ("backprop", backprop::reference_checksum(SCALE), 0.5, 0.5),
        ("bfs", bfs::reference_checksum(SCALE), 0.0, 0.0),
        ("gaussian", gaussian::reference_checksum(SCALE), 1e-3, 0.0),
        ("hotspot", hotspot::reference_checksum(SCALE), 0.0, 1e-5),
        ("kmeans", kmeans::reference_checksum(SCALE), 0.0, 0.0),
        ("lud", lud::reference_checksum(SCALE), 1e-2, 0.0),
        ("nn", nn::reference_checksum(SCALE), 1e-3, 0.0),
        ("nw", nw::reference_checksum(SCALE), 0.0, 0.0),
        (
            "pathfinder",
            pathfinder::reference_checksum(SCALE),
            0.0,
            0.0,
        ),
        ("srad", srad::reference_checksum(SCALE), 0.0, 1e-5),
    ];
    let run_suite = |backend: &mut dyn GpuBackend| -> Vec<f64> {
        register_standard_kernels(backend).expect("kernels");
        rodinia::suite()
            .into_iter()
            .map(|(name, f)| {
                f(backend, SCALE)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .checksum
            })
            .collect()
    };
    let native = run_suite(&mut native_backend());
    let cronus = with_cronus_backend(run_suite);
    for (i, (name, _)) in rodinia::suite().iter().enumerate() {
        let (ref_name, reference, abs, rel) = references[i];
        assert_eq!(*name, ref_name, "suite order");
        assert_eq!(
            cronus[i].to_bits(),
            native[i].to_bits(),
            "{name}: cronus {} vs native {}",
            cronus[i],
            native[i]
        );
        let off = (cronus[i] - reference).abs();
        assert!(
            off <= abs + rel * reference.abs(),
            "{name}: {} vs its CPU reference {reference}",
            cronus[i]
        );
    }
}
