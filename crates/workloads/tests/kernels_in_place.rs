//! Kernel bodies compute in place on device memory the device lends them.
//! Before that they copied every buffer out, computed on the copies and
//! copied the results back. This suite keeps the copy-in/copy-out bodies —
//! only here, as the reference — and checks, kernel by kernel on random
//! shapes and data, that device memory after a launch is bit-identical
//! either way, aliased argument lists included; and that a launch which does
//! not fit its buffers (short buffers, absurd sizes, another context's
//! handle) fails with a typed error instead of panicking.
//!
//! `full` runs the checks on generated seeds (the in-repo `proptest` shim);
//! `smoke` on seeds 0..24, plus the bad-graph and every-kernel-covered checks.

use cronus_devices::gpu::{
    GpuBuffer, GpuContextId, GpuDevice, GpuError, GpuKernelDesc, KernelArg, KernelFn,
};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, StreamId};
use cronus_workloads::dnn::train::{mlp_backward_kernel, mse_loss_kernel};
use cronus_workloads::kernels;
use cronus_workloads::rodinia::{bfs, gaussian, kmeans, lud, nn, nw, pathfinder, srad};

/// The copy-in/copy-out kernel bodies, as they were.
mod reference {
    use super::*;

    /// Device memory as those bodies saw it: whole-buffer reads and writes.
    pub struct Mem<'a> {
        pub dev: &'a mut GpuDevice,
        pub ctx: GpuContextId,
    }

    impl Mem<'_> {
        pub fn read_bytes(&mut self, buf: GpuBuffer, out: &mut [u8]) -> Result<(), GpuError> {
            self.dev.read_buffer(self.ctx, buf, 0, out)
        }

        pub fn write_bytes(&mut self, buf: GpuBuffer, data: &[u8]) -> Result<(), GpuError> {
            self.dev.write_buffer(self.ctx, buf, 0, data)
        }

        pub fn read_f32s(&mut self, buf: GpuBuffer) -> Result<Vec<f32>, GpuError> {
            let len = self.dev.buffer_len(self.ctx, buf)? as usize / 4 * 4;
            let mut bytes = vec![0u8; len];
            self.read_bytes(buf, &mut bytes)?;
            Ok(bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }

        pub fn write_f32s(&mut self, buf: GpuBuffer, values: &[f32]) -> Result<(), GpuError> {
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.write_bytes(buf, &bytes)
        }

        pub fn read_u32s(&mut self, buf: GpuBuffer) -> Result<Vec<u32>, GpuError> {
            let len = self.dev.buffer_len(self.ctx, buf)? as usize;
            let mut bytes = vec![0u8; len];
            self.read_bytes(buf, &mut bytes)?;
            Ok(bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }

        pub fn write_u32s(&mut self, buf: GpuBuffer, values: &[u32]) -> Result<(), GpuError> {
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.write_bytes(buf, &bytes)
        }
    }

    pub type Body = fn(&mut Mem<'_>, &[KernelArg]) -> Result<(), GpuError>;

    fn buf(args: &[KernelArg], i: usize) -> GpuBuffer {
        match args[i] {
            KernelArg::Buffer(b) => b,
            other => panic!("arg {i}: {other:?} is not a buffer"),
        }
    }

    fn int(args: &[KernelArg], i: usize) -> usize {
        match args[i] {
            KernelArg::Int(v) => v as usize,
            other => panic!("arg {i}: {other:?} is not an int"),
        }
    }

    fn float(args: &[KernelArg], i: usize) -> f32 {
        match args[i] {
            KernelArg::Float(v) => v,
            other => panic!("arg {i}: {other:?} is not a float"),
        }
    }

    pub fn saxpy(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a, x, y) = (float(args, 0), buf(args, 1), buf(args, 2));
        let xs = mem.read_f32s(x)?;
        let mut ys = mem.read_f32s(y)?;
        for (yi, xi) in ys.iter_mut().zip(&xs) {
            *yi += a * xi;
        }
        mem.write_f32s(y, &ys)
    }

    pub fn matmul(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a, b, c) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (m, n, k) = (int(args, 3), int(args, 4), int(args, 5));
        let av = mem.read_f32s(a)?;
        let bv = mem.read_f32s(b)?;
        let mut cv = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = av[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    cv[i * n + j] += aik * bv[kk * n + j];
                }
            }
        }
        mem.write_f32s(c, &cv)
    }

    pub fn matmul_acc(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a, b, c) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (m, n, k) = (int(args, 3), int(args, 4), int(args, 5));
        let av = mem.read_f32s(a)?;
        let bv = mem.read_f32s(b)?;
        let mut cv = mem.read_f32s(c)?;
        for i in 0..m {
            for kk in 0..k {
                let aik = av[i * k + kk];
                for j in 0..n {
                    cv[i * n + j] += aik * bv[kk * n + j];
                }
            }
        }
        mem.write_f32s(c, &cv)
    }

    pub fn relu(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let x = buf(args, 0);
        let mut xs = mem.read_f32s(x)?;
        for v in &mut xs {
            *v = v.max(0.0);
        }
        mem.write_f32s(x, &xs)
    }

    pub fn scale(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (x, a) = (buf(args, 0), float(args, 1));
        let mut xs = mem.read_f32s(x)?;
        for v in &mut xs {
            *v *= a;
        }
        mem.write_f32s(x, &xs)
    }

    pub fn sgd_update(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (w, g, lr) = (buf(args, 0), buf(args, 1), float(args, 2));
        let mut ws = mem.read_f32s(w)?;
        let gs = mem.read_f32s(g)?;
        for (wi, gi) in ws.iter_mut().zip(&gs) {
            *wi -= lr * gi;
        }
        mem.write_f32s(w, &ws)
    }

    pub fn reduce_sum(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (x, out) = (buf(args, 0), buf(args, 1));
        let xs = mem.read_f32s(x)?;
        let sum: f32 = xs.iter().sum();
        mem.write_f32s(out, &[sum])
    }

    pub fn stencil5(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (src, dst) = (buf(args, 0), buf(args, 1));
        let (rows, cols, alpha) = (int(args, 2), int(args, 3), float(args, 4));
        let s = mem.read_f32s(src)?;
        let mut d = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let center = s[idx];
                let up = if r > 0 { s[idx - cols] } else { center };
                let down = if r + 1 < rows { s[idx + cols] } else { center };
                let left = if c > 0 { s[idx - 1] } else { center };
                let right = if c + 1 < cols { s[idx + 1] } else { center };
                d[idx] = center + alpha * (up + down + left + right - 4.0 * center);
            }
        }
        mem.write_f32s(dst, &d)
    }

    pub fn vec_sub_sq(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a, b, out) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let av = mem.read_f32s(a)?;
        let bv = mem.read_f32s(b)?;
        let o: Vec<f32> = av.iter().zip(&bv).map(|(x, y)| (x - y) * (x - y)).collect();
        mem.write_f32s(out, &o)
    }

    pub fn fan1(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a_b, m_b, n, k) = (buf(args, 0), buf(args, 1), int(args, 2), int(args, 3));
        let a = mem.read_f32s(a_b)?;
        let mut mul = mem.read_f32s(m_b)?;
        for i in k + 1..n {
            mul[i] = a[i * n + k] / a[k * n + k];
        }
        mem.write_f32s(m_b, &mul)
    }

    pub fn fan2(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a_b, b_b, m_b) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (n, k) = (int(args, 3), int(args, 4));
        let mut a = mem.read_f32s(a_b)?;
        let mut b = mem.read_f32s(b_b)?;
        let mul = mem.read_f32s(m_b)?;
        for i in k + 1..n {
            for j in k..n {
                a[i * n + j] -= mul[i] * a[k * n + j];
            }
            b[i] -= mul[i] * b[k];
        }
        mem.write_f32s(a_b, &a)?;
        mem.write_f32s(b_b, &b)
    }

    pub fn lud_step(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (a_b, n, k) = (buf(args, 0), int(args, 1), int(args, 2));
        let mut a = mem.read_f32s(a_b)?;
        for i in k + 1..n {
            a[i * n + k] /= a[k * n + k];
            for j in k + 1..n {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
        mem.write_f32s(a_b, &a)
    }

    const DIMS: usize = 4;
    const K: usize = 5;

    pub fn kmeans_assign(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (p_b, c_b, m_b, n) = (buf(args, 0), buf(args, 1), buf(args, 2), int(args, 3));
        let points = mem.read_f32s(p_b)?;
        let centroids = mem.read_f32s(c_b)?;
        let membership: Vec<u32> = (0..n)
            .map(|i| {
                let mut best = 0u32;
                let mut best_d = f32::INFINITY;
                for c in 0..K {
                    let mut d = 0.0f32;
                    for j in 0..DIMS {
                        let diff = points[i * DIMS + j] - centroids[c * DIMS + j];
                        d += diff * diff;
                    }
                    if d < best_d {
                        best_d = d;
                        best = c as u32;
                    }
                }
                best
            })
            .collect();
        mem.write_u32s(m_b, &membership)
    }

    pub fn nn_distance(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (r_b, o_b, n) = (buf(args, 0), buf(args, 1), int(args, 2));
        let (qx, qy) = (float(args, 3), float(args, 4));
        let records = mem.read_f32s(r_b)?;
        let mut out = vec![0.0f32; n];
        for i in 0..n {
            let dx = records[i * 2] - qx;
            let dy = records[i * 2 + 1] - qy;
            out[i] = (dx * dx + dy * dy).sqrt();
        }
        mem.write_f32s(o_b, &out)
    }

    const GAP: f32 = -1.0;

    fn score(a: u32, b: u32) -> f32 {
        if a == b {
            1.0
        } else {
            -1.0
        }
    }

    pub fn nw_wave(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (dp_b, s1_b, s2_b) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (n, wave) = (int(args, 3), int(args, 4));
        let w = n + 1;
        let mut dp = mem.read_f32s(dp_b)?;
        let mut s1_bytes = vec![0u8; n * 4];
        mem.read_bytes(s1_b, &mut s1_bytes)?;
        let mut s2_bytes = vec![0u8; n * 4];
        mem.read_bytes(s2_b, &mut s2_bytes)?;
        let words = |bytes: &[u8]| -> Vec<u32> {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let (s1, s2) = (words(&s1_bytes), words(&s2_bytes));
        for i in 1..=n {
            let j = (wave + 2).checked_sub(i);
            let Some(j) = j else { continue };
            if j < 1 || j > n {
                continue;
            }
            let diag = dp[(i - 1) * w + (j - 1)] + score(s1[i - 1], s2[j - 1]);
            let up = dp[(i - 1) * w + j] + GAP;
            let left = dp[i * w + (j - 1)] + GAP;
            dp[i * w + j] = diag.max(up).max(left);
        }
        mem.write_f32s(dp_b, &dp)
    }

    pub fn pathfinder_row(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (g_b, cur_b, next_b) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (cols, row) = (int(args, 3), int(args, 4));
        let grid = mem.read_f32s(g_b)?;
        let cur = mem.read_f32s(cur_b)?;
        let mut next = vec![0.0f32; cols];
        for c in 0..cols {
            let mut best = cur[c];
            if c > 0 {
                best = best.min(cur[c - 1]);
            }
            if c + 1 < cols {
                best = best.min(cur[c + 1]);
            }
            next[c] = grid[row * cols + c] + best;
        }
        mem.write_f32s(next_b, &next)
    }

    const UNVISITED: u32 = u32::MAX;

    pub fn bfs_level(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (offsets_b, targets_b, levels_b) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (depth, flag_b) = (int(args, 3) as u32, buf(args, 4));
        let offsets = mem.read_u32s(offsets_b)?;
        let targets = mem.read_u32s(targets_b)?;
        let mut levels = mem.read_u32s(levels_b)?;
        let mut changed = 0u32;
        let n = offsets.len() - 1;
        for u in 0..n {
            if levels[u] != depth {
                continue;
            }
            for &t in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let v = t as usize;
                if levels[v] == UNVISITED {
                    levels[v] = depth + 1;
                    changed = 1;
                }
            }
        }
        mem.write_u32s(levels_b, &levels)?;
        mem.write_u32s(flag_b, &[changed])
    }

    const LAMBDA: f32 = 0.25;

    fn coefficients(img: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut coef = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let center = img[idx];
                let up = if r > 0 { img[idx - cols] } else { center };
                let down = if r + 1 < rows {
                    img[idx + cols]
                } else {
                    center
                };
                let left = if c > 0 { img[idx - 1] } else { center };
                let right = if c + 1 < cols { img[idx + 1] } else { center };
                let grad = (up - center).abs()
                    + (down - center).abs()
                    + (left - center).abs()
                    + (right - center).abs();
                let q = grad / center.max(1e-6);
                coef[idx] = 1.0 / (1.0 + q * q);
            }
        }
        coef
    }

    fn update(img: &[f32], coef: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let center = img[idx];
                let up = if r > 0 { img[idx - cols] } else { center };
                let down = if r + 1 < rows {
                    img[idx + cols]
                } else {
                    center
                };
                let left = if c > 0 { img[idx - 1] } else { center };
                let right = if c + 1 < cols { img[idx + 1] } else { center };
                let div = up + down + left + right - 4.0 * center;
                out[idx] = center + LAMBDA * coef[idx] * div;
            }
        }
        out
    }

    pub fn srad_coef(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (i_b, c_b, rows, cols) = (buf(args, 0), buf(args, 1), int(args, 2), int(args, 3));
        let img = mem.read_f32s(i_b)?;
        mem.write_f32s(c_b, &coefficients(&img, rows, cols))
    }

    pub fn srad_update(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (i_b, c_b, o_b) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let (rows, cols) = (int(args, 3), int(args, 4));
        let img = mem.read_f32s(i_b)?;
        let coef = mem.read_f32s(c_b)?;
        mem.write_f32s(o_b, &update(&img, &coef, rows, cols))
    }

    const IN: usize = 4;
    const HIDDEN: usize = 8;
    const BATCH: usize = 16;

    pub fn mlp_backward(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let b: Vec<GpuBuffer> = (0..8).map(|i| buf(args, i)).collect();
        let [x, y, w2, h, pred, err, gw1, gw2] = b[..] else {
            unreachable!()
        };
        let xs = mem.read_f32s(x)?;
        let ys = mem.read_f32s(y)?;
        let w2v = mem.read_f32s(w2)?;
        let hv = mem.read_f32s(h)?;
        let predv = mem.read_f32s(pred)?;
        let mut errv = vec![0.0f32; BATCH];
        let mut gw1v = vec![0.0f32; IN * HIDDEN];
        let mut gw2v = vec![0.0f32; HIDDEN];
        for b in 0..BATCH {
            errv[b] = 2.0 * (predv[b] - ys[b]) / BATCH as f32;
            for j in 0..HIDDEN {
                gw2v[j] += errv[b] * hv[b * HIDDEN + j];
                if hv[b * HIDDEN + j] > 0.0 {
                    let dh = errv[b] * w2v[j];
                    for i in 0..IN {
                        gw1v[i * HIDDEN + j] += dh * xs[b * IN + i];
                    }
                }
            }
        }
        mem.write_f32s(err, &errv)?;
        mem.write_f32s(gw1, &gw1v)?;
        mem.write_f32s(gw2, &gw2v)
    }

    pub fn mse_loss(mem: &mut Mem<'_>, args: &[KernelArg]) -> Result<(), GpuError> {
        let (pred, y, loss) = (buf(args, 0), buf(args, 1), buf(args, 2));
        let p = mem.read_f32s(pred)?;
        let yv = mem.read_f32s(y)?;
        let loss_val: f32 = p
            .iter()
            .zip(&yv)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / BATCH as f32;
        mem.write_f32s(loss, &[loss_val])
    }
}

/// xorshift64*: the suite's only source of shapes and data. The state sits
/// in a `Cell` so draws can nest (`r.f32s(r.range(0, 9))`).
struct Rng(std::cell::Cell<u64>);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(std::cell::Cell::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        ))
    }

    fn next(&self) -> u64 {
        let mut x = self.0.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// A finite float in `[-4, 4)`, now and then exactly zero (so `matmul`'s
    /// zero skip and `relu`'s kink are exercised).
    fn f32(&self) -> f32 {
        match self.next() % 8 {
            0 => 0.0,
            _ => ((self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0,
        }
    }

    fn f32s(&self, n: usize) -> Vec<u8> {
        (0..n).flat_map(|_| self.f32().to_le_bytes()).collect()
    }

    /// `bytes` plus a few extra elements and a ragged byte tail: kernels must
    /// leave what lies past their shape alone.
    fn slack(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        let extra = self.range(0, 9);
        bytes.extend((0..extra).map(|i| 0xA0 + i as u8));
        bytes
    }

    fn f32s_slack(&self, n: usize) -> Vec<u8> {
        let bytes = self.f32s(n);
        self.slack(bytes)
    }

    fn u32s_slack(&self, n: usize, modulo: u32) -> Vec<u8> {
        let bytes = self.u32s(n, modulo);
        self.slack(bytes)
    }

    fn u32s(&self, n: usize, modulo: u32) -> Vec<u8> {
        (0..n)
            .flat_map(|_| ((self.next() >> 33) as u32 % modulo).to_le_bytes())
            .collect()
    }
}

/// One launch to check: the kernel, its copy-in/copy-out twin, the initial
/// device buffers and the argument list, whose `Buffer(i)` arguments name
/// `buffers[i]` until [`Case::bind`] swaps in the allocated handles.
struct Case {
    name: &'static str,
    kernel: KernelFn,
    reference: reference::Body,
    buffers: Vec<Vec<u8>>,
    args: Vec<KernelArg>,
    /// For a launch that sizes its buffers against its integer arguments:
    /// the elements each buffer must hold. One byte less, or absurd
    /// integers, must fail it. Empty for kernels that take buffers as they
    /// come.
    needs: Vec<usize>,
}

fn b(i: u64) -> KernelArg {
    KernelArg::Buffer(GpuBuffer::from_raw(i))
}

fn int(v: usize) -> KernelArg {
    KernelArg::Int(v as i64)
}

/// Every kernel of `kernels.rs`, every Rodinia kernel and the two MLP
/// kernels, on shapes and data drawn from `seed`; then the aliased lists.
fn cases(seed: u64) -> Vec<Case> {
    let r = &Rng::new(seed);
    let mut out = Vec::new();
    let mut case = |name, kernel, reference, buffers, args, needs: &[usize]| {
        out.push(Case {
            name,
            kernel,
            reference,
            buffers,
            args,
            needs: needs.to_vec(),
        })
    };

    let n = r.range(0, 300);
    case(
        "saxpy",
        kernels::saxpy(),
        reference::saxpy,
        vec![r.f32s(n), r.f32s(r.range(0, 300))],
        vec![KernelArg::Float(r.f32()), b(0), b(1)],
        &[],
    );
    for (name, kernel, reference) in [
        (
            "matmul",
            kernels::matmul(),
            reference::matmul as reference::Body,
        ),
        ("matmul_acc", kernels::matmul_acc(), reference::matmul_acc),
    ] {
        let (m, n, k) = (r.range(0, 12), r.range(0, 12), r.range(0, 12));
        let bufs = vec![
            r.f32s_slack(m * k),
            r.f32s_slack(k * n),
            r.f32s_slack(m * n),
        ];
        let args = vec![b(0), b(1), b(2), int(m), int(n), int(k)];
        case(name, kernel, reference, bufs, args, &[m * k, k * n, m * n]);
    }
    let bufs = vec![r.f32s_slack(r.range(0, 200))];
    case(
        "relu",
        kernels::relu(),
        reference::relu,
        bufs,
        vec![b(0)],
        &[],
    );
    let bufs = vec![r.f32s_slack(r.range(0, 200))];
    let args = vec![b(0), KernelArg::Float(r.f32())];
    case("scale", kernels::scale(), reference::scale, bufs, args, &[]);
    let bufs = vec![r.f32s(r.range(0, 200)), r.f32s(r.range(0, 200))];
    let args = vec![b(0), b(1), KernelArg::Float(r.f32())];
    case(
        "sgd_update",
        kernels::sgd_update(),
        reference::sgd_update,
        bufs,
        args,
        &[],
    );
    let bufs = vec![r.f32s(r.range(0, 200)), r.f32s_slack(1)];
    case(
        "reduce_sum",
        kernels::reduce_sum(),
        reference::reduce_sum,
        bufs,
        vec![b(0), b(1)],
        &[],
    );
    let (rows, cols) = (r.range(0, 14), r.range(0, 14));
    let bufs = vec![r.f32s_slack(rows * cols), r.f32s_slack(rows * cols)];
    let args = vec![b(0), b(1), int(rows), int(cols), KernelArg::Float(r.f32())];
    case(
        "stencil5",
        kernels::stencil5(),
        reference::stencil5,
        bufs,
        args,
        &[rows * cols, rows * cols],
    );
    let n = r.range(0, 200);
    let bufs = vec![
        r.f32s(n + r.range(0, 5)),
        r.f32s(n + r.range(0, 5)),
        r.f32s_slack(n + 5),
    ];
    case(
        "vec_sub_sq",
        kernels::vec_sub_sq(),
        reference::vec_sub_sq,
        bufs,
        vec![b(0), b(1), b(2)],
        &[],
    );

    let n = r.range(1, 12);
    let k = r.range(0, n - 1);
    let bufs = vec![r.f32s_slack(n * n), r.f32s_slack(n)];
    let args = vec![b(0), b(1), int(n), int(k)];
    case(
        "fan1",
        gaussian::fan1_kernel(),
        reference::fan1,
        bufs,
        args,
        &[n * n, n],
    );
    let bufs = vec![r.f32s_slack(n * n), r.f32s_slack(n), r.f32s_slack(n)];
    let args = vec![b(0), b(1), b(2), int(n), int(k)];
    case(
        "fan2",
        gaussian::fan2_kernel(),
        reference::fan2,
        bufs,
        args,
        &[n * n, n, n],
    );
    let bufs = vec![r.f32s_slack(n * n)];
    case(
        "lud_step",
        lud::lud_step_kernel(),
        reference::lud_step,
        bufs,
        vec![b(0), int(n), int(k)],
        &[n * n],
    );

    let n = r.range(0, 40);
    let bufs = vec![r.f32s_slack(n * 4), r.f32s_slack(5 * 4), r.u32s_slack(n, 9)];
    case(
        "kmeans_assign",
        kmeans::assign_kernel(),
        reference::kmeans_assign,
        bufs,
        vec![b(0), b(1), b(2), int(n)],
        &[n * 4, 5 * 4, n],
    );
    let bufs = vec![r.f32s_slack(n * 2), r.f32s_slack(n)];
    let args = vec![
        b(0),
        b(1),
        int(n),
        KernelArg::Float(r.f32()),
        KernelArg::Float(r.f32()),
    ];
    case(
        "nn_distance",
        nn::distance_kernel(),
        reference::nn_distance,
        bufs,
        args,
        &[n * 2, n],
    );

    let n = r.range(1, 24);
    let wave = r.range(0, 2 * n);
    let bufs = vec![
        r.f32s_slack((n + 1) * (n + 1)),
        r.u32s_slack(n, 4),
        r.u32s_slack(n, 4),
    ];
    case(
        "nw_wave",
        nw::wave_kernel(),
        reference::nw_wave,
        bufs,
        vec![b(0), b(1), b(2), int(n), int(wave)],
        &[(n + 1) * (n + 1), n, n],
    );

    let (rows, cols) = (r.range(1, 8), r.range(1, 40));
    let bufs = vec![
        r.f32s_slack(rows * cols),
        r.f32s_slack(cols),
        r.f32s_slack(cols),
    ];
    let row = r.range(0, rows - 1);
    let args = vec![b(0), b(1), b(2), int(cols), int(row)];
    case(
        "pathfinder_row",
        pathfinder::row_kernel(),
        reference::pathfinder_row,
        bufs,
        args,
        &[(row + 1) * cols, cols, cols],
    );

    // A well-formed CSR graph, part of it already visited.
    let nodes = r.range(1, 40);
    let mut offsets = vec![0u32];
    let mut targets = Vec::new();
    for _ in 0..nodes {
        for _ in 0..r.range(0, 4) {
            targets.push(r.range(0, nodes - 1) as u32);
        }
        offsets.push(targets.len() as u32);
    }
    let levels: Vec<u32> = (0..nodes)
        .map(|_| [0, 1, u32::MAX, u32::MAX][r.range(0, 3)])
        .collect();
    let words = |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let bufs = vec![
        words(&offsets),
        r.slack(words(&targets)),
        r.slack(words(&levels)),
        r.slack(words(&[7])),
    ];
    case(
        "bfs_level",
        bfs::bfs_level_kernel(),
        reference::bfs_level,
        bufs,
        vec![b(0), b(1), b(2), int(r.range(0, 1)), b(3)],
        &[],
    );

    let (rows, cols) = (r.range(0, 12), r.range(0, 12));
    let image = |r: &Rng| -> Vec<u8> {
        (0..rows * cols)
            .flat_map(|_| (1.0 + r.f32().abs()).to_le_bytes())
            .collect()
    };
    let bufs = vec![r.slack(image(r)), r.f32s_slack(rows * cols)];
    case(
        "srad_coef",
        srad::coef_kernel(),
        reference::srad_coef,
        bufs,
        vec![b(0), b(1), int(rows), int(cols)],
        &[rows * cols, rows * cols],
    );
    let bufs = vec![
        r.slack(image(r)),
        r.f32s_slack(rows * cols),
        r.f32s_slack(rows * cols),
    ];
    case(
        "srad_update",
        srad::update_kernel(),
        reference::srad_update,
        bufs,
        vec![b(0), b(1), b(2), int(rows), int(cols)],
        &[rows * cols, rows * cols, rows * cols],
    );

    let (inp, hidden, batch) = (4, 8, 16);
    let sizes = [
        batch * inp,
        batch,
        hidden,
        batch * hidden,
        batch,
        batch,
        inp * hidden,
        hidden,
    ];
    let bufs = sizes.iter().map(|&n| r.f32s_slack(n)).collect();
    case(
        "mlp_backward",
        mlp_backward_kernel(),
        reference::mlp_backward,
        bufs,
        (0..8).map(b).collect(),
        &[],
    );
    let bufs = vec![r.f32s(batch), r.f32s(batch), r.f32s_slack(1)];
    case(
        "mse_loss",
        mse_loss_kernel(),
        reference::mse_loss,
        bufs,
        vec![b(0), b(1), b(2)],
        &[],
    );

    // Aliased argument lists: an output that is also an input reads as it
    // was before the launch, exactly as when everything was copied out.
    let n = r.range(1, 100);
    case(
        "saxpy(a, x, x)",
        kernels::saxpy(),
        reference::saxpy,
        vec![r.f32s(n)],
        vec![KernelArg::Float(r.f32()), b(0), b(0)],
        &[],
    );
    case(
        "vec_sub_sq(a, a, a)",
        kernels::vec_sub_sq(),
        reference::vec_sub_sq,
        vec![r.f32s(n)],
        vec![b(0), b(0), b(0)],
        &[],
    );
    case(
        "sgd_update(w, w)",
        kernels::sgd_update(),
        reference::sgd_update,
        vec![r.f32s(n)],
        vec![b(0), b(0), KernelArg::Float(r.f32())],
        &[],
    );
    case(
        "reduce_sum(x, x)",
        kernels::reduce_sum(),
        reference::reduce_sum,
        vec![r.f32s(n)],
        vec![b(0), b(0)],
        &[],
    );
    let (rows, cols) = (r.range(1, 12), r.range(1, 12));
    case(
        "stencil5(src = dst)",
        kernels::stencil5(),
        reference::stencil5,
        vec![r.f32s_slack(rows * cols)],
        vec![b(0), b(0), int(rows), int(cols), KernelArg::Float(r.f32())],
        &[rows * cols],
    );
    let m = r.range(1, 10);
    for (name, args) in [
        (
            "matmul(c = a)",
            vec![b(0), b(1), b(0), int(m), int(m), int(m)],
        ),
        (
            "matmul(c = b)",
            vec![b(0), b(1), b(1), int(m), int(m), int(m)],
        ),
    ] {
        let bufs = vec![r.f32s(m * m), r.f32s(m * m)];
        case(
            name,
            kernels::matmul(),
            reference::matmul,
            bufs,
            args,
            &[m * m, m * m],
        );
    }
    let bufs = vec![r.f32s(m * m), r.f32s(m * m)];
    let args = vec![b(0), b(1), b(0), int(m), int(m), int(m)];
    case(
        "matmul_acc(c = a)",
        kernels::matmul_acc(),
        reference::matmul_acc,
        bufs,
        args,
        &[m * m, m * m],
    );
    let bufs = vec![r.f32s_slack(m * m), r.f32s_slack(m)];
    let args = vec![b(0), b(0), int(m), int(0)];
    case(
        "fan1(a, a)",
        gaussian::fan1_kernel(),
        reference::fan1,
        bufs,
        args,
        &[m * m, 0],
    );
    out
}

const DESC: GpuKernelDesc = GpuKernelDesc {
    flops: 1.0,
    mem_bytes: 1.0,
    sm_demand: 1,
};

/// A raw device with one context holding a case's buffers.
struct Raw {
    dev: GpuDevice,
    ctx: GpuContextId,
    handles: Vec<GpuBuffer>,
}

impl Raw {
    fn new(buffers: &[Vec<u8>]) -> Raw {
        let mut dev = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 26, 46);
        let ctx = dev.create_context(1 << 24).unwrap();
        let handles = buffers
            .iter()
            .map(|bytes| {
                let h = dev.alloc(ctx, bytes.len() as u64).unwrap();
                dev.write_buffer(ctx, h, 0, bytes).unwrap();
                h
            })
            .collect();
        Raw { dev, ctx, handles }
    }

    /// `args` with every `Buffer(i)` replaced by the handle of buffer `i`.
    fn bind(&self, args: &[KernelArg]) -> Vec<KernelArg> {
        args.iter()
            .map(|a| match a {
                KernelArg::Buffer(i) => KernelArg::Buffer(self.handles[i.as_raw() as usize]),
                other => *other,
            })
            .collect()
    }

    fn launch(&mut self, kernel: &KernelFn, args: &[KernelArg]) -> Result<(), GpuError> {
        self.dev
            .register_kernel(self.ctx, "k", kernel.clone())
            .unwrap();
        self.dev
            .launch(&CostModel::default(), self.ctx, "k", args, DESC)
            .map(|_| ())
    }

    fn memory(&mut self) -> Vec<Vec<u8>> {
        let handles = self.handles.clone();
        handles
            .iter()
            .map(|&h| {
                let mut out = vec![0u8; self.dev.buffer_len(self.ctx, h).unwrap() as usize];
                self.dev.read_buffer(self.ctx, h, 0, &mut out).unwrap();
                out
            })
            .collect()
    }
}

fn typed(e: &GpuError) -> bool {
    matches!(
        e,
        GpuError::BadArg(_) | GpuError::OutOfBounds { .. } | GpuError::UnknownBuffer(_)
    )
}

/// The in-place kernel leaves device memory exactly as the copy-in/copy-out
/// body does.
fn check_identical(case: &Case) {
    let mut lent = Raw::new(&case.buffers);
    let args = lent.bind(&case.args);
    lent.launch(&case.kernel, &args)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let mut copied = Raw::new(&case.buffers);
    let args = copied.bind(&case.args);
    let ctx = copied.ctx;
    (case.reference)(
        &mut reference::Mem {
            dev: &mut copied.dev,
            ctx,
        },
        &args,
    )
    .unwrap_or_else(|e| panic!("{} (reference): {e}", case.name));
    let (got, want) = (lent.memory(), copied.memory());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g == w,
            "{}: buffer {i} differs\n got {g:?}\nwant {w:?}",
            case.name
        );
    }
}

/// Launches that do not fit their buffers fail with a typed error; none
/// panics.
fn check_misfits(case: &Case) {
    let launch = |buffers: &[Vec<u8>], args: &[KernelArg]| {
        let mut raw = Raw::new(buffers);
        let args = raw.bind(args);
        raw.launch(&case.kernel, &args)
    };
    let expect_failure = |what: &str, result: Result<(), GpuError>| match result {
        Err(e) if typed(&e) => {}
        other => panic!(
            "{}: {what}: expected a typed error, got {other:?}",
            case.name
        ),
    };
    let ints: Vec<usize> = (0..case.args.len())
        .filter(|&i| matches!(case.args[i], KernelArg::Int(_)))
        .collect();

    // Each buffer in turn cut to half its elements, then to one byte less
    // than the launch needs of it.
    for i in 0..case.buffers.len() {
        let mut buffers = case.buffers.clone();
        buffers[i].truncate(case.buffers[i].len() / 8 * 4);
        if let Err(e) = launch(&buffers, &case.args) {
            assert!(typed(&e), "{}: buffer {i} halved: {e:?}", case.name);
        }
        if let Some(&need) = case.needs.get(i).filter(|n| **n > 0) {
            buffers[i] = case.buffers[i][..need * 4 - 1].to_vec();
            expect_failure("a buffer one byte short", launch(&buffers, &case.args));
        }
    }
    // Each integer in turn absurd; then all of them at once.
    for absurd in [i64::MAX, i64::MAX / 3, 1 << 33, -1, i64::MIN] {
        for &i in &ints {
            let mut args = case.args.clone();
            args[i] = KernelArg::Int(absurd);
            if let Err(e) = launch(&case.buffers, &args) {
                assert!(typed(&e), "{}: arg {i} = {absurd}: {e:?}", case.name);
            }
        }
        if !case.needs.is_empty() {
            let mut args = case.args.clone();
            for &i in &ints {
                args[i] = KernelArg::Int(absurd);
            }
            expect_failure("every size absurd", launch(&case.buffers, &args));
        }
    }
    // A handle of another context, in each buffer position.
    for i in 0..case.args.len() {
        if !matches!(case.args[i], KernelArg::Buffer(_)) {
            continue;
        }
        let mut raw = Raw::new(&case.buffers);
        let mut args = raw.bind(&case.args);
        let other = raw.dev.create_context(1 << 20).unwrap();
        let foreign = raw.dev.alloc(other, 1 << 16).unwrap();
        args[i] = KernelArg::Buffer(foreign);
        assert_eq!(
            raw.launch(&case.kernel, &args),
            Err(GpuError::UnknownBuffer(foreign)),
            "{}: arg {i} from another context",
            case.name
        );
    }
    // The wrong number of arguments.
    expect_failure("no arguments", launch(&case.buffers, &[]));
}

/// Device data a kernel indexes with must not be trusted either: CSR
/// offsets and targets that point outside their arrays fail the launch.
fn check_bad_graph() {
    let words = |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let args = [b(0), b(1), b(2), int(0), b(3)];
    let graphs: [(&[u32], &[u32]); 4] = [
        (&[0, 9], &[0, 0]),     // edge range past the targets
        (&[2, 1], &[0, 0]),     // edge range runs backwards
        (&[0, 1], &[u32::MAX]), // target past the levels
        (&[], &[0]),            // no offsets at all
    ];
    for (offsets, targets) in graphs {
        let buffers = vec![words(offsets), words(targets), words(&[0]), words(&[0])];
        let mut raw = Raw::new(&buffers);
        let bound = raw.bind(&args);
        let err = raw.launch(&bfs::bfs_level_kernel(), &bound).unwrap_err();
        assert!(typed(&err), "offsets {offsets:?}: {err:?}");
    }
}

fn check_seed(seed: u64) {
    for case in cases(seed) {
        check_identical(&case);
        check_misfits(&case);
    }
}

mod full {
    use proptest::prelude::*;

    proptest! {
        /// Every kernel, on arbitrary seeds: bit-identical to copy-in/copy-out,
        /// typed errors for launches that do not fit.
        #[test]
        fn kernels_in_place_match_copy_in_copy_out(seed in any::<u64>()) {
            super::check_seed(seed);
        }
    }
}

mod smoke {
    #[test]
    fn kernels_in_place_match_copy_in_copy_out_fixed_seeds() {
        for seed in 0..24 {
            super::check_seed(seed);
        }
    }

    #[test]
    fn device_data_used_as_an_index_is_checked() {
        super::check_bad_graph();
    }

    #[test]
    fn every_kernel_is_covered() {
        let names: Vec<&str> = super::cases(1).iter().map(|c| c.name).collect();
        for kernel in [
            "saxpy",
            "matmul",
            "matmul_acc",
            "relu",
            "scale",
            "sgd_update",
            "reduce_sum",
            "stencil5",
            "vec_sub_sq",
            "fan1",
            "fan2",
            "lud_step",
            "kmeans_assign",
            "nn_distance",
            "nw_wave",
            "pathfinder_row",
            "bfs_level",
            "srad_coef",
            "srad_update",
            "mlp_backward",
            "mse_loss",
        ] {
            assert!(names.contains(&kernel), "{kernel} has no case");
        }
    }
}
