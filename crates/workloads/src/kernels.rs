//! The shared GPU kernel library.
//!
//! Real implementations (they compute on device memory) for the kernels the
//! Rodinia suite and the DNN trainer launch. Each kernel's cost descriptor
//! is built by the caller from its problem size; the implementations here
//! define *what* the kernel does so the workloads can assert correctness
//! against CPU references.
//!
//! A kernel body asks the device to lend it its buffers
//! ([`GpuMemAccess::lend`]) and updates them in place. Shapes, indices and
//! offsets arrive in the launch payload or sit in device memory, so a body
//! sizes its views against them first and reaches elements only through
//! checked accessors: a launch that does not fit its buffers fails with a
//! [`GpuError`], it does not panic.

use std::sync::Arc;

use cronus_devices::gpu::{
    BufView, GpuBuffer, GpuError, GpuKernelDesc, GpuMemAccess, KernelArg, KernelFn,
};

use crate::backend::{BackendError, GpuBackend};

fn want_buffer(args: &[KernelArg], i: usize) -> Result<GpuBuffer, GpuError> {
    match args.get(i) {
        Some(KernelArg::Buffer(b)) => Ok(*b),
        other => Err(GpuError::BadArg(format!(
            "arg {i}: expected buffer, got {other:?}"
        ))),
    }
}

fn want_len(args: &[KernelArg], i: usize) -> Result<usize, GpuError> {
    match args.get(i) {
        Some(KernelArg::Int(v)) => len_of(*v),
        other => Err(GpuError::BadArg(format!(
            "arg {i}: expected int, got {other:?}"
        ))),
    }
}

fn want_float(args: &[KernelArg], i: usize) -> Result<f32, GpuError> {
    match args.get(i) {
        Some(KernelArg::Float(v)) => Ok(*v),
        other => Err(GpuError::BadArg(format!(
            "arg {i}: expected float, got {other:?}"
        ))),
    }
}

/// A launch-supplied count, dimension or index.
pub(crate) fn len_of(v: i64) -> Result<usize, GpuError> {
    usize::try_from(v).map_err(|_| GpuError::BadArg(format!("{v} is not a size")))
}

/// `a * b` elements.
pub(crate) fn area(a: usize, b: usize) -> Result<usize, GpuError> {
    a.checked_mul(b)
        .ok_or_else(|| GpuError::BadArg(format!("a {a} x {b} shape overflows")))
}

/// `saxpy(a, x, y)`: `y += a * x`.
pub fn saxpy() -> KernelFn {
    Arc::new(|mem, args| {
        let a = want_float(args, 0)?;
        let x = want_buffer(args, 1)?;
        let y = want_buffer(args, 2)?;
        mem.lend(&[y], &[x], &mut |outs, ins| {
            for (mut yi, xi) in outs[0].f32s_mut().zip(ins[0].f32s()) {
                yi.set(yi.get() + a * xi);
            }
            Ok(())
        })
    })
}

/// `c[m x n] (+)= a[m x k] * b[k x n]` for launch arguments
/// `(a, b, c, m, n, k)`: each row of `c` gathers the rows of `b` scaled by
/// its row of `a`. `overwrite` starts `c` from zero and skips the zeros of
/// `a`; otherwise the product accumulates onto what `c` holds.
fn gemm(mem: &mut dyn GpuMemAccess, args: &[KernelArg], overwrite: bool) -> Result<(), GpuError> {
    let a = want_buffer(args, 0)?;
    let b = want_buffer(args, 1)?;
    let c = want_buffer(args, 2)?;
    let m = want_len(args, 3)?;
    let n = want_len(args, 4)?;
    let k = want_len(args, 5)?;
    let (mk, kn, mn) = (area(m, k)?, area(k, n)?, area(m, n)?);
    mem.lend(&[c], &[a, b], &mut |outs, ins| {
        let (av, bv) = (ins[0], ins[1]);
        if av.elems() < mk || bv.elems() < kn {
            return Err(GpuError::BadArg("matmul operand too small".into()));
        }
        let mut cv = outs[0].slice_mut(0, mn)?;
        if mn == 0 {
            // No cell of `c` to compute; and `m` alone bounds nothing.
            return Ok(());
        }
        if overwrite {
            cv.bytes_mut().fill(0);
        }
        for i in 0..m {
            let mut crow = cv.slice_mut(i * n, n)?;
            for kk in 0..k {
                let aik = av.f32(i * k + kk)?;
                if overwrite && aik == 0.0 {
                    continue;
                }
                let brow = bv.slice(kk * n, n)?;
                for (mut cj, bj) in crow.f32s_mut().zip(brow.f32s()) {
                    cj.set(cj.get() + aik * bj);
                }
            }
        }
        Ok(())
    })
}

/// `matmul(a, b, c, m, n, k)`: `c[m x n] = a[m x k] * b[k x n]`.
pub fn matmul() -> KernelFn {
    Arc::new(|mem, args| gemm(mem, args, true))
}

/// `matmul_acc(a, b, c, m, n, k)`: `c += a * b` (for gradient accumulation).
pub fn matmul_acc() -> KernelFn {
    Arc::new(|mem, args| gemm(mem, args, false))
}

/// `relu(x)`: elementwise `max(0, x)` in place.
pub fn relu() -> KernelFn {
    Arc::new(|mem, args| {
        let x = want_buffer(args, 0)?;
        mem.lend(&[x], &[], &mut |outs, _| {
            for mut v in outs[0].f32s_mut() {
                v.set(v.get().max(0.0));
            }
            Ok(())
        })
    })
}

/// `scale(x, a)`: `x *= a` in place.
pub fn scale() -> KernelFn {
    Arc::new(|mem, args| {
        let x = want_buffer(args, 0)?;
        let a = want_float(args, 1)?;
        mem.lend(&[x], &[], &mut |outs, _| {
            for mut v in outs[0].f32s_mut() {
                v.set(v.get() * a);
            }
            Ok(())
        })
    })
}

/// `axpy_update(w, g, lr)`: `w -= lr * g` (SGD step).
pub fn sgd_update() -> KernelFn {
    Arc::new(|mem, args| {
        let w = want_buffer(args, 0)?;
        let g = want_buffer(args, 1)?;
        let lr = want_float(args, 2)?;
        mem.lend(&[w], &[g], &mut |outs, ins| {
            for (mut wi, gi) in outs[0].f32s_mut().zip(ins[0].f32s()) {
                wi.set(wi.get() - lr * gi);
            }
            Ok(())
        })
    })
}

/// `reduce_sum(x, out)`: `out[0] = sum(x)`.
pub fn reduce_sum() -> KernelFn {
    Arc::new(|mem, args| {
        let x = want_buffer(args, 0)?;
        let out = want_buffer(args, 1)?;
        mem.lend(&[out], &[x], &mut |outs, ins| {
            outs[0].set_f32(0, ins[0].f32s().sum())
        })
    })
}

/// The 5-point neighbourhood `[centre, up, down, left, right]` of cell
/// `(r, c)` of a `rows x cols` grid; past an edge the centre stands in.
pub(crate) fn neighbours(
    grid: BufView<'_>,
    (rows, cols): (usize, usize),
    (r, c): (usize, usize),
) -> Result<[f32; 5], GpuError> {
    let idx = r * cols + c;
    let center = grid.f32(idx)?;
    let up = if r > 0 { grid.f32(idx - cols)? } else { center };
    let down = if r + 1 < rows {
        grid.f32(idx + cols)?
    } else {
        center
    };
    let left = if c > 0 { grid.f32(idx - 1)? } else { center };
    let right = if c + 1 < cols {
        grid.f32(idx + 1)?
    } else {
        center
    };
    Ok([center, up, down, left, right])
}

/// `stencil5(src, dst, rows, cols, alpha)`: 5-point stencil
/// `dst = src + alpha * laplacian(src)` (hotspot/srad building block).
pub fn stencil5() -> KernelFn {
    Arc::new(|mem, args| {
        let src = want_buffer(args, 0)?;
        let dst = want_buffer(args, 1)?;
        let rows = want_len(args, 2)?;
        let cols = want_len(args, 3)?;
        let alpha = want_float(args, 4)?;
        let cells = area(rows, cols)?;
        mem.lend(&[dst], &[src], &mut |outs, ins| {
            if ins[0].elems() < cells {
                return Err(GpuError::BadArg("stencil grid too small".into()));
            }
            let mut d = outs[0].slice_mut(0, cells)?;
            // An empty grid has nothing to update, however many rows.
            for r in 0..rows.min(cells) {
                for c in 0..cols {
                    let [center, up, down, left, right] = neighbours(ins[0], (rows, cols), (r, c))?;
                    let v = center + alpha * (up + down + left + right - 4.0 * center);
                    d.set_f32(r * cols + c, v)?;
                }
            }
            Ok(())
        })
    })
}

/// `vec_sub_sq(a, b, out)`: `out[i] = (a[i] - b[i])^2` (kmeans / nn distances).
pub fn vec_sub_sq() -> KernelFn {
    Arc::new(|mem, args| {
        let a = want_buffer(args, 0)?;
        let b = want_buffer(args, 1)?;
        let out = want_buffer(args, 2)?;
        mem.lend(&[out], &[a, b], &mut |outs, ins| {
            let (av, bv) = (ins[0], ins[1]);
            let mut o = outs[0].slice_mut(0, av.elems().min(bv.elems()))?;
            for (mut oi, (x, y)) in o.f32s_mut().zip(av.f32s().zip(bv.f32s())) {
                oi.set((x - y) * (x - y));
            }
            Ok(())
        })
    })
}

/// `noop()` — cost-only kernel used by synthetic large-model runs.
pub fn noop() -> KernelFn {
    Arc::new(|_, _| Ok(()))
}

/// Registers every kernel in this library on a backend.
///
/// # Errors
///
/// Propagates backend registration failures.
pub fn register_standard_kernels(backend: &mut dyn GpuBackend) -> Result<(), BackendError> {
    backend.register_kernel("saxpy", saxpy())?;
    backend.register_kernel("matmul", matmul())?;
    backend.register_kernel("matmul_acc", matmul_acc())?;
    backend.register_kernel("relu", relu())?;
    backend.register_kernel("scale", scale())?;
    backend.register_kernel("sgd_update", sgd_update())?;
    backend.register_kernel("reduce_sum", reduce_sum())?;
    backend.register_kernel("stencil5", stencil5())?;
    backend.register_kernel("vec_sub_sq", vec_sub_sq())?;
    backend.register_kernel("noop", noop())?;
    Ok(())
}

/// Cost descriptor for an `m x n x k` GEMM.
pub fn gemm_desc(m: usize, n: usize, k: usize) -> GpuKernelDesc {
    GpuKernelDesc {
        flops: 2.0 * m as f64 * n as f64 * k as f64,
        mem_bytes: 4.0 * (m * k + k * n + m * n) as f64,
        sm_demand: ((m * n / 1024) as u32).clamp(1, 46),
    }
}

/// Cost descriptor for an elementwise op over `n` f32 elements.
pub fn elementwise_desc(n: usize) -> GpuKernelDesc {
    GpuKernelDesc {
        flops: n as f64,
        mem_bytes: 8.0 * n as f64,
        sm_demand: ((n / 4096) as u32).clamp(1, 46),
    }
}

/// Cost descriptor for a stencil over `rows x cols`.
pub fn stencil_desc(rows: usize, cols: usize) -> GpuKernelDesc {
    let n = rows * cols;
    GpuKernelDesc {
        flops: 6.0 * n as f64,
        mem_bytes: 8.0 * n as f64,
        sm_demand: ((n / 2048) as u32).clamp(1, 46),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_devices::gpu::GpuDevice;
    use cronus_devices::DeviceKind;
    use cronus_sim::tzpc::DeviceId;
    use cronus_sim::{CostModel, StreamId};

    /// Runs a kernel directly on a raw device (no TEE plumbing) to verify
    /// its math.
    struct Raw {
        dev: GpuDevice,
        ctx: cronus_devices::gpu::GpuContextId,
        cm: CostModel,
    }

    impl Raw {
        fn new() -> Self {
            let mut dev = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 24, 46);
            let ctx = dev.create_context(1 << 20).unwrap();
            Raw {
                dev,
                ctx,
                cm: CostModel::default(),
            }
        }

        fn buf(&mut self, data: &[f32]) -> cronus_devices::gpu::GpuBuffer {
            let b = self.dev.alloc(self.ctx, (data.len() * 4) as u64).unwrap();
            let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.dev.write_buffer(self.ctx, b, 0, &bytes).unwrap();
            b
        }

        fn read(&mut self, b: cronus_devices::gpu::GpuBuffer, n: usize) -> Vec<f32> {
            let mut bytes = vec![0u8; n * 4];
            self.dev.read_buffer(self.ctx, b, 0, &mut bytes).unwrap();
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        }

        fn run(&mut self, name: &str, f: KernelFn, args: &[KernelArg]) {
            self.dev.register_kernel(self.ctx, name, f).unwrap();
            self.dev
                .launch(&self.cm, self.ctx, name, args, elementwise_desc(16))
                .unwrap();
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let mut raw = Raw::new();
        // a = [[1,2],[3,4]], b = [[5,6],[7,8]] => c = [[19,22],[43,50]]
        let a = raw.buf(&[1.0, 2.0, 3.0, 4.0]);
        let b = raw.buf(&[5.0, 6.0, 7.0, 8.0]);
        let c = raw.buf(&[0.0; 4]);
        raw.run(
            "matmul",
            matmul(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::Buffer(c),
                KernelArg::Int(2),
                KernelArg::Int(2),
                KernelArg::Int(2),
            ],
        );
        assert_eq!(raw.read(c, 4), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn relu_and_scale() {
        let mut raw = Raw::new();
        let x = raw.buf(&[-1.0, 2.0, -3.0, 4.0]);
        raw.run("relu", relu(), &[KernelArg::Buffer(x)]);
        assert_eq!(raw.read(x, 4), vec![0.0, 2.0, 0.0, 4.0]);
        raw.run(
            "scale",
            scale(),
            &[KernelArg::Buffer(x), KernelArg::Float(0.5)],
        );
        assert_eq!(raw.read(x, 4), vec![0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn sgd_update_math() {
        let mut raw = Raw::new();
        let w = raw.buf(&[1.0, 1.0]);
        let g = raw.buf(&[0.5, -0.5]);
        raw.run(
            "sgd_update",
            sgd_update(),
            &[
                KernelArg::Buffer(w),
                KernelArg::Buffer(g),
                KernelArg::Float(0.1),
            ],
        );
        let out = raw.read(w, 2);
        assert!((out[0] - 0.95).abs() < 1e-6);
        assert!((out[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn stencil_interior_point() {
        let mut raw = Raw::new();
        // 3x3 grid with hot center.
        let src = raw.buf(&[0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0]);
        let dst = raw.buf(&[0.0; 9]);
        raw.run(
            "stencil5",
            stencil5(),
            &[
                KernelArg::Buffer(src),
                KernelArg::Buffer(dst),
                KernelArg::Int(3),
                KernelArg::Int(3),
                KernelArg::Float(0.1),
            ],
        );
        let out = raw.read(dst, 9);
        // Center loses heat: 10 + 0.1 * (0*4 - 40) = 6; neighbors gain 1.
        assert!((out[4] - 6.0).abs() < 1e-5);
        assert!((out[1] - 1.0).abs() < 1e-5);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn reduce_and_distance() {
        let mut raw = Raw::new();
        let x = raw.buf(&[1.0, 2.0, 3.0]);
        let out = raw.buf(&[0.0]);
        raw.run(
            "reduce_sum",
            reduce_sum(),
            &[KernelArg::Buffer(x), KernelArg::Buffer(out)],
        );
        assert_eq!(raw.read(out, 1), vec![6.0]);

        let a = raw.buf(&[1.0, 5.0]);
        let b = raw.buf(&[4.0, 1.0]);
        let d = raw.buf(&[0.0, 0.0]);
        raw.run(
            "vec_sub_sq",
            vec_sub_sq(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::Buffer(d),
            ],
        );
        assert_eq!(raw.read(d, 2), vec![9.0, 16.0]);
    }

    #[test]
    fn descriptors_scale_with_problem_size() {
        assert!(gemm_desc(64, 64, 64).flops < gemm_desc(128, 128, 128).flops);
        assert!(elementwise_desc(10).sm_demand >= 1);
        assert!(stencil_desc(1024, 1024).sm_demand > stencil_desc(8, 8).sm_demand);
        let _ = DeviceKind::Gpu; // silence unused import in some cfgs
    }
}
