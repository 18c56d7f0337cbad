//! # cronus-bench — the figure/table harness
//!
//! One module per experiment in the paper's evaluation (§VI), each with a
//! pure `run()` returning structured data and a `print()` rendering the
//! same rows/series the paper reports. [`experiments::FIGURES`] is the one
//! table of gated figures — a row per committed `BUNDLE_<name>.json`, with
//! the parameters it was generated with — and the `fig` binary drives it
//! (`cargo run -p cronus-bench --bin fig -- fig7`, or `-- all`). Every
//! figure run also drops a metrics snapshot and a Chrome trace next to its
//! table output via [`artifacts`]. The crate reads the simulated clock only;
//! host-clock measurements live in `benchmark/`.
//!
//! | `fig` name         | paper artifact | experiment |
//! |--------------------|----------------|-----------|
//! | `fig7`             | Figure 7       | Rodinia computation time across systems |
//! | `fig8`             | Figure 8       | DNN training time across systems |
//! | `fig9`             | Figure 9       | failover throughput timeline |
//! | `fig10a`           | Figure 10a     | vta-bench throughput |
//! | `fig10b`           | Figure 10b     | NPU inference latency |
//! | `fig11a`           | Figure 11a     | spatial sharing of one GPU |
//! | `fig11b`           | Figure 11b     | multi-GPU gradient exchange paths |
//! | `rpc_micro`        | §VI-B          | sRPC vs sync vs encrypted RPC |
//! | `saturation`       | —              | every queue class under a bursty mix |
//! | `fig_interference` | —              | noisy-neighbor conviction |
//! | `chaos`            | —              | the full fault-injection sweep |
//! | `all`              | everything     | the lot, plus Tables I–III |
//!
//! `fig all` also prints the paper's Tables I–III, which have no baseline.

pub mod artifacts;
pub mod baseline;
pub mod experiments;
pub mod report;
