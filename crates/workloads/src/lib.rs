//! # cm5-workloads — the paper's evaluation workloads
//!
//! * [`fft`]: sequential FFT reference + the distributed 2-D FFT whose
//!   transpose runs each complete-exchange algorithm (§3.5, Table 5);
//! * [`cg`]: a real distributed conjugate-gradient solver on a 16K-vertex
//!   mesh Laplacian — the "Conj. Grad. 16K" pattern of Table 12;
//! * [`euler`]: the Euler-solver surrogate on unstructured meshes of
//!   545/2K/3K/9K vertices — Table 12's other columns;
//! * [`synthetic`]: the seeded random patterns of Table 11;
//! * [`named`]: the table of named Table 12 patterns the CLI and the
//!   service accept.
//!
//! Each Table 12 pattern is built in two stages: an n-independent
//! [`WorkloadMesh`] (the mesh's points and sorted edges, the costly part),
//! then a per-`n` step over the borrowed mesh (assignment, halo,
//! pattern). The one-shot builders ([`cg_pattern`], [`euler_pattern`],
//! [`named_pattern`], the `*_problem`s) run both; the service keeps the
//! mesh and reruns only the second stage for each node count.
//!
//! The distributed workloads are *numerically real*: payload bytes travel
//! through the simulated network and results are verified against the
//! sequential references in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod euler;
pub mod fft;
pub mod inspector;
pub mod named;
pub mod synthetic;

pub use cg::{cg_pattern, cg_problem, cg_seq, distributed_cg, CgProblem};
pub use euler::{
    distributed_euler, euler_pattern, euler_problem, euler_seq, EulerProblem, EULER_VARS,
};
pub use fft::{dft_naive, distributed_fft2d, fft2d_programs, fft2d_seq, fft_inplace, C64};
pub use inspector::{execute_gather, CommPlan, Distribution, Inspector};
pub use named::{named_pattern, named_workload, workload_names, NamedWorkload, WorkloadMesh};
pub use synthetic::{synthetic_pattern, synthetic_pattern_exact};
