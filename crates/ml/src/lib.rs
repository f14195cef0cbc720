//! # chopim-ml
//!
//! The paper's case-study workloads (§IV, §VII):
//!
//! * [`dataset`] — a synthetic 10-class dataset standing in for cifar10
//!   (see `DESIGN.md` substitutions): same objective class, configurable
//!   scale;
//! * [`logreg`] — multinomial logistic regression with ℓ2 regularization,
//!   full/sample gradients and loss;
//! * [`svrg`] — stochastic variance-reduced gradient descent in the
//!   paper's three modes: host-only, NDA-accelerated (serialized), and
//!   *delayed-update* (host inner loop and NDA summarization overlap, at
//!   the cost of one epoch of staleness);
//! * [`timemodel`] — per-step wall-clock costs *measured on the Chopim
//!   simulator* (NDA summarization bandwidth, host streaming bandwidth,
//!   concurrent-slowdown factors) and composed into convergence-vs-time
//!   trajectories (Fig. 15).
//!
//! The CG and streamcluster "app" points of Figs. 13/14 are the
//! `chopim_exp::Workload::{CgStream, ScStream}` op streams.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod logreg;
pub mod svrg;
pub mod timemodel;

pub use dataset::Dataset;
pub use logreg::LogReg;
pub use svrg::{SvrgConfig, SvrgMode, SvrgTrace};
pub use timemodel::SvrgTimeModel;
