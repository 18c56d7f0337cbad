//! Rodinia `bfs`: level-synchronous breadth-first search.
//!
//! The graph lives in device memory in CSR form; each level launches one
//! frontier-expansion kernel (matching the original's one-kernel-per-level
//! structure). Node and edge arrays are u32s stored in untyped buffers; the
//! kernel decodes them with raw byte access.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{Arg, BackendError, GpuBackend};
use crate::rodinia::{bytes_to_u32s, det_u32s, u32s_to_bytes, RodiniaRun};

const UNVISITED: u32 = u32::MAX;

/// Builds a deterministic graph with `n` nodes and ~`n * degree` edges.
pub fn build_graph(n: usize, degree: usize) -> (Vec<u32>, Vec<u32>) {
    // CSR: offsets (n + 1) and targets.
    let targets_per_node = det_u32s(77, n * degree, n as u32);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(n * degree);
    offsets.push(0u32);
    for node in 0..n {
        for d in 0..degree {
            let t = targets_per_node[node * degree + d];
            // Bias edges forward so the BFS has multiple levels.
            targets.push((node as u32 + 1 + t % 7) % n as u32);
        }
        offsets.push(targets.len() as u32);
    }
    (offsets, targets)
}

/// CPU reference BFS returning the level of each node from node 0.
pub fn reference_levels(offsets: &[u32], targets: &[u32]) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut level = vec![UNVISITED; n];
    level[0] = 0;
    let mut frontier = vec![0usize];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &t in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let v = t as usize;
                if level[v] == UNVISITED {
                    level[v] = depth + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    level
}

/// The per-level frontier expansion kernel:
/// `bfs_level(offsets, targets, levels, depth, changed_flag)`.
pub fn bfs_level_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (offsets_b, targets_b, levels_b, depth, flag_b) = match args {
            [KernelArg::Buffer(o), KernelArg::Buffer(t), KernelArg::Buffer(l), KernelArg::Int(d), KernelArg::Buffer(f)] => {
                (*o, *t, *l, *d, *f)
            }
            _ => return Err(GpuError::BadArg("bfs_level(o, t, l, depth, flag)".into())),
        };
        // `depth + 1` must stay a level, i.e. below the UNVISITED mark.
        let depth = u32::try_from(depth)
            .ok()
            .filter(|d| *d < UNVISITED - 1)
            .ok_or_else(|| GpuError::BadArg(format!("bfs depth {depth}")))?;
        mem.lend(
            &[levels_b, flag_b],
            &[offsets_b, targets_b],
            &mut |outs, ins| {
                let [levels, flag] = outs else {
                    return Err(GpuError::BadArg("bfs_level writes levels and flag".into()));
                };
                let (offsets, targets) = (ins[0], ins[1]);
                // The CSR arrays are device data: an edge range or a target that
                // does not fit is an error of the launch, found where it is used.
                let n = offsets
                    .elems()
                    .checked_sub(1)
                    .ok_or_else(|| GpuError::BadArg("bfs offsets are empty".into()))?;
                let mut changed = 0u32;
                for u in 0..n {
                    if levels.u32(u)? != depth {
                        continue;
                    }
                    let (from, to) = (offsets.u32(u)? as usize, offsets.u32(u + 1)? as usize);
                    let edges = to
                        .checked_sub(from)
                        .ok_or_else(|| GpuError::BadArg(format!("bfs edge range {from}..{to}")))?;
                    for t in targets.slice(from, edges)?.u32s() {
                        let v = t as usize;
                        if levels.u32(v)? == UNVISITED {
                            levels.set_u32(v, depth + 1)?;
                            changed = 1;
                        }
                    }
                }
                flag.set_u32(0, changed)
            },
        )
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    let (offsets, targets) = build_graph(256 * scale.max(1), 4);
    reference_levels(&offsets, &targets)
        .iter()
        .map(|l| if *l == UNVISITED { 0.0 } else { *l as f64 })
        .sum()
}

/// Runs BFS at `scale` (nodes = 256 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 256 * scale.max(1);
    let degree = 4;
    let (offsets, targets) = build_graph(n, degree);

    backend.register_kernel("bfs_level", bfs_level_kernel())?;
    let start = backend.elapsed();

    let d_off = backend.alloc((offsets.len() * 4) as u64)?;
    let d_tgt = backend.alloc((targets.len() * 4) as u64)?;
    let d_lvl = backend.alloc((n * 4) as u64)?;
    let d_flag = backend.alloc(4)?;
    backend.h2d(d_off, &u32s_to_bytes(&offsets))?;
    backend.h2d(d_tgt, &u32s_to_bytes(&targets))?;
    let mut init = vec![UNVISITED; n];
    init[0] = 0;
    backend.h2d(d_lvl, &u32s_to_bytes(&init))?;

    let edge_work = targets.len();
    let mut depth: i64 = 0;
    loop {
        backend.h2d(d_flag, &[0u8; 4])?;
        backend.launch(
            "bfs_level",
            &[
                Arg::Ptr(d_off),
                Arg::Ptr(d_tgt),
                Arg::Ptr(d_lvl),
                Arg::Int(depth),
                Arg::Ptr(d_flag),
            ],
            GpuKernelDesc {
                flops: edge_work as f64,
                mem_bytes: 8.0 * edge_work as f64,
                sm_demand: ((n / 512) as u32).clamp(1, 46),
            },
        )?;
        // The original copies the "continue" flag back every level.
        let flag = bytes_to_u32s(&backend.d2h(d_flag, 4)?)[0];
        if flag == 0 {
            break;
        }
        depth += 1;
        if depth as usize > n {
            return Err(BackendError::msg("bfs failed to converge"));
        }
    }

    let levels = bytes_to_u32s(&backend.d2h(d_lvl, (n * 4) as u64)?);
    for ptr in [d_off, d_tgt, d_lvl, d_flag] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    let checksum = levels
        .iter()
        .map(|l| if *l == UNVISITED { 0.0 } else { *l as f64 })
        .sum::<f64>();
    Ok(RodiniaRun {
        name: "bfs",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn levels_match_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            assert_eq!(result.checksum, reference_checksum(1));
        });
    }

    #[test]
    fn reference_bfs_visits_from_source() {
        let (offsets, targets) = build_graph(64, 4);
        let levels = reference_levels(&offsets, &targets);
        assert_eq!(levels[0], 0);
        assert!(levels.iter().filter(|l| **l != UNVISITED).count() > 1);
    }
}
