//! # cm5-bench — the harness that regenerates the paper's evaluation
//!
//! One runner per experiment family, shared between the Criterion benches
//! (which measure the *simulator*'s wall-clock cost) and the `report`
//! binary (which prints the *simulated* times — the actual reproduction of
//! every figure and table, side by side with the paper's published numbers
//! where the paper gives them).

#![forbid(unsafe_code)]

pub mod args;
pub mod model_validation;
pub mod paper;
pub mod perf;
pub mod querygen;
pub mod runners;
pub mod sweep;
pub mod watch;
