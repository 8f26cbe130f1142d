//! # skinner-baselines
//!
//! The adaptive-processing baselines the paper compares against in its
//! appendix experiments (Figures 9–12):
//!
//! * [`eddy`] — Eddies [Avnur & Hellerstein, SIGMOD'00] with
//!   reinforcement-learning tuple routing [Tzoumas et al.], sharing the
//!   same storage/predicate substrate as Skinner-C,
//! * [`reopt`] — sampling-based re-optimization [Wu et al., SIGMOD'16]:
//!   validate the optimizer's cardinality estimates on a sample, correct
//!   them, and re-optimize before full execution.
//!
//! All baselines count predicate evaluations so Figure 11 can compare
//! optimizers by an engine-independent effort metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eddy;
pub mod reopt;

pub use eddy::{Eddy, EddyOutcome};
pub use reopt::Reoptimizer;
