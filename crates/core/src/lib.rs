//! # chopim-core
//!
//! The integrated Chopim system — the paper's primary contribution — built
//! on the workspace substrates:
//!
//! * [`sched`] — per-channel FR-FCFS host memory controller with write
//!   drain and refresh;
//! * [`policy`] — NDA write-issue policies: issue-if-idle, stochastic
//!   issue, next-rank prediction (paper §III-B);
//! * [`system`] — the cycle-accurate machine: multi-core host, host MCs,
//!   per-rank NDA controllers, and host-side *shadow FSMs* kept
//!   bit-identical to demonstrate the replicated-FSM coordination of
//!   §III-D. The machine is **channel-sharded**: a front-end plus one
//!   shard per channel exchanging cycle-stamped messages, executed in
//!   conservative-lookahead windows;
//! * [`runtime`] — the §V runtime/API: colored system-row allocation,
//!   per-tenant [`Session`]s with builder-style op
//!   submission (with the Fig.-10 granularity knob), dependency-aware
//!   op-graph staging, macro ops, host-mediated reduction, QoS-class
//!   arbitration over an O(active) ready index, and a batched-submission
//!   executor with admission control ([`runtime::JobGraph`]);
//! * [`energy`] — the Table-II energy model;
//! * [`report`] — the metrics the figures plot.
//!
//! ## Quick example
//!
//! ```
//! use chopim_core::prelude::*;
//!
//! let mut sys = ChopimSystem::new(ChopimConfig::default());
//! let sess = sys.runtime.default_session();
//! let x = sys.runtime.vector(1 << 12, Sharing::Shared);
//! let y = sys.runtime.vector(1 << 12, Sharing::Shared);
//! sys.runtime.write_vector(x, &vec![2.0; 1 << 12]);
//! // y = x on the NDAs, then c = y . y gated on it by a DAG edge.
//! let cp = sess
//!     .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
//!     .submit();
//! let dot = sess
//!     .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![y, y], None)
//!     .after(cp)
//!     .submit();
//! sys.drive(dot, 4_000_000);
//! assert!(sys.runtime.op_done(dot));
//! assert_eq!(sys.runtime.read_vector(y)[0], 2.0);
//! assert_eq!(sys.runtime.op_result(dot), Some(4.0 * (1 << 12) as f32));
//! ```
//!
//! ## Snapshots and traces
//!
//! [`ChopimSystem::snapshot`](system::ChopimSystem::snapshot) captures
//! the full deterministic machine state as a versioned binary image and
//! [`ChopimSystem::resume`](system::ChopimSystem::resume) continues from
//! it bit-identically (see `docs/SNAPSHOT_FORMAT.md`);
//! `CHOPIM_TRACE=<path>` or
//! [`ChopimConfig::trace_path`](system::ChopimConfig::trace_path)
//! records a compact replayable event trace (`docs/TRACE_FORMAT.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
#[doc(hidden)]
pub mod exchange;
pub mod policy;
pub mod report;
pub mod runtime;
pub mod sched;
mod shard;
pub mod system;

/// Everything needed to build and run experiments.
pub mod prelude {
    pub use crate::energy::{EnergyParams, EnergyReport, PeActivity};
    pub use crate::policy::WriteIssuePolicy;
    pub use crate::report::{FaultReport, SimReport, TenantReport};
    pub use crate::runtime::{
        JobGraph, LaunchOpts, MatId, OpBuilder, OpHandle, OpStatus, QosClass, Runtime, Session,
        Sharing, SubmitError, TenantLimits, Ticket, VecId,
    };
    pub use crate::sched::{PagePolicy, SchedulerKind};
    pub use crate::system::{ChopimConfig, ChopimSystem, SnapshotError, StreamId, Waitable};
    pub use chopim_dram::{DramConfig, FaultPlan, IdleBucket, TimingParams};
    pub use chopim_host::{CoreConfig, MixId, WorkloadProfile};
    pub use chopim_mapping::color::Color;
    pub use chopim_nda::isa::Opcode;
}

pub use prelude::*;
