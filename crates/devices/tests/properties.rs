//! Property-based tests for the device simulators.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus_devices::gpu::GpuDevice;
    use cronus_devices::npu::{NpuDevice, VtaInsn, VtaProgram};
    use cronus_sim::tzpc::DeviceId;
    use cronus_sim::{CostModel, StreamId};

    proptest! {
        /// GPU context quotas are conserved under arbitrary alloc/free
        /// interleavings, and frees always return quota.
        #[test]
        fn gpu_quota_conservation(sizes in proptest::collection::vec(1u64..4096, 1..32)) {
            let mut dev = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 22, 46);
            let quota = 1 << 20;
            let ctx = dev.create_context(quota).expect("context");
            let mut live = Vec::new();
            let mut used = 0u64;
            for (i, len) in sizes.iter().enumerate() {
                match dev.alloc(ctx, *len) {
                    Ok(buf) => {
                        used += len;
                        prop_assert!(used <= quota);
                        live.push((buf, *len));
                    }
                    Err(_) => prop_assert!(used + len > quota, "only quota exhaustion may fail"),
                }
                // Free every other allocation as we go.
                if i % 2 == 1 {
                    if let Some((buf, len)) = live.pop() {
                        dev.free(ctx, buf).expect("free");
                        used -= len;
                    }
                }
            }
            for (buf, _) in live {
                dev.free(ctx, buf).expect("free");
            }
            // Full quota is available again.
            let big = dev.alloc(ctx, quota).expect("quota restored");
            dev.free(ctx, big).expect("free");
        }

        /// GPU buffer contents round-trip at arbitrary offsets.
        #[test]
        fn gpu_buffer_roundtrip(len in 1usize..4096, offset in 0usize..4096, data in proptest::collection::vec(any::<u8>(), 1..256)) {
            prop_assume!(offset + data.len() <= len);
            let mut dev = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 22, 46);
            let ctx = dev.create_context(1 << 20).expect("context");
            let buf = dev.alloc(ctx, len as u64).expect("alloc");
            dev.write_buffer(ctx, buf, offset as u64, &data).expect("write");
            let mut out = vec![0u8; data.len()];
            dev.read_buffer(ctx, buf, offset as u64, &mut out).expect("read");
            prop_assert_eq!(out, data);
        }

        /// NPU GEMM matches a CPU reference for arbitrary small shapes.
        #[test]
        fn npu_gemm_matches_reference(
            m in 1usize..8, n in 1usize..8, k in 1usize..8,
            inp in proptest::collection::vec(-4i8..=4, 64),
            wgt in proptest::collection::vec(-4i8..=4, 64),
        ) {
            let cm = CostModel::default();
            let mut dev = NpuDevice::new(DeviceId::new(2), StreamId::new(2), 1 << 20);
            let ctx = dev.create_context(1 << 16).expect("context");
            let a = dev.alloc(ctx, (m * k) as u64).expect("alloc");
            let b = dev.alloc(ctx, (n * k) as u64).expect("alloc");
            let out = dev.alloc(ctx, (m * n) as u64).expect("alloc");
            let inp = &inp[..m * k];
            let wgt = &wgt[..n * k];
            let to_u8 = |s: &[i8]| s.iter().map(|v| *v as u8).collect::<Vec<u8>>();
            dev.write_buffer(ctx, a, 0, &to_u8(inp)).expect("h2d");
            dev.write_buffer(ctx, b, 0, &to_u8(wgt)).expect("h2d");
            let mut prog = VtaProgram::new();
            prog.push(VtaInsn::LoadInp { src: a, offset: 0, rows: m, cols: k, stride: k })
                .push(VtaInsn::LoadWgt { src: b, offset: 0, rows: n, cols: k, stride: k })
                .push(VtaInsn::ResetAcc { rows: m, cols: n })
                .push(VtaInsn::Gemm)
                .push(VtaInsn::StoreAcc { dst: out, offset: 0, stride: n });
            dev.run(&cm, ctx, &prog).expect("run");
            let mut got = vec![0u8; m * n];
            dev.read_buffer(ctx, out, 0, &mut got).expect("d2h");
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for kk in 0..k {
                        acc += inp[i * k + kk] as i32 * wgt[j * k + kk] as i32;
                    }
                    let expect = acc.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                    prop_assert_eq!(got[i * n + j] as i8, expect, "element ({}, {})", i, j);
                }
            }
        }

        /// Device reset leaves no residue: after reset every context id is dead
        /// and capacity is fully available.
        #[test]
        fn gpu_reset_clears_everything(quotas in proptest::collection::vec(1u64..1 << 16, 1..8)) {
            let mut dev = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 20, 46);
            let mut ctxs = Vec::new();
            for q in &quotas {
                if let Ok(c) = dev.create_context(*q) {
                    ctxs.push(c);
                }
            }
            use cronus_devices::SimDevice;
            dev.reset();
            prop_assert_eq!(dev.context_count(), 0);
            prop_assert_eq!(dev.memory_used(), 0);
            for c in ctxs {
                prop_assert!(dev.alloc(c, 1).is_err(), "stale context rejected");
            }
            // Full capacity available to a new tenant.
            prop_assert!(dev.create_context(1 << 20).is_ok());
        }
    }
}
