//! The Chopim runtime and API (paper §V, Fig. 8).
//!
//! The runtime owns array allocation (colored, system-row-granular, via
//! the OS model), splits API calls into per-rank coarse-grain NDA
//! instructions, tracks completion, and executes the numerics functionally
//! on the `f32` backing store when an operation completes (the
//! function/timing split documented in `DESIGN.md`).
//!
//! ## Sessions, handles, and the op graph
//!
//! Submission is organized around [`Session`]s — per-tenant submission
//! contexts with their own in-order op streams — and typed [`OpHandle`]s
//! returned by builder-style launch calls:
//!
//! ```ignore
//! let sess = sys.runtime.create_session();
//! let a = sess.elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
//!     .submit();
//! let b = sess.elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![y, y], None)
//!     .after(a)          // explicit DAG edge (redundant here: same session)
//!     .submit();
//! sys.drive(b, 10_000_000);
//! ```
//!
//! Within a session, ops execute in submission order by default — the
//! paper's blocking semantics (§V): instruction *issue* is FIFO per rank
//! but completion is not, so overlapping dependent ops would break
//! read-after-write across launches. [`OpBuilder::unordered`] opts an op
//! out of program order so it is gated only by its explicit
//! [`OpBuilder::after`] edges, which may reference handles from *any*
//! session. Dependent ops stage only when every parent has retired.
//!
//! Across sessions, [`Runtime::next_launches`] arbitrates by QoS class
//! ([`QosClass`]): latency-sensitive sessions take strict priority, and
//! batch sessions share the remainder by weighted virtual time — integer
//! arithmetic only, so schedules stay bit-identical across engines and
//! snapshot/resume. Arbitration cost is O(active), not O(sessions):
//! sessions live in a ready index (per-band heaps plus per-NDA credit
//! waitlists and a retry wake heap) and are touched only when an event —
//! submit, dependency retirement, credit return, retry expiry, fault
//! quarantine, job admission — can actually change what they may stage.
//!
//! On top of direct submission sits a batched executor:
//! [`Runtime::submit_job`] accepts a declarative [`JobGraph`] under
//! per-tenant admission control ([`TenantLimits`]) and returns a
//! [`Ticket`]; per-tenant metering surfaces in `SimReport::tenants`.
//!
//! ## Module map
//!
//! Each submodule owns one decision; this file holds the public types,
//! the [`Runtime`] struct, its constructor, and the queries.
//!
//! * `arrays` — allocation, the layout walk, functional execution;
//! * `ops` — op requests, splitting, completion, retirement;
//! * `arbiter` — the ready index and QoS arbitration; the only writer
//!   of arbitration state, and fenced off from op payloads;
//! * `recovery` — conclusion, retries, deadlines, quarantine;
//! * `executor` — [`JobGraph`] admission and [`Ticket`]s;
//! * `codec` — the runtime's section of a CHSS snapshot.

mod arbiter;
mod arrays;
mod codec;
mod executor;
mod ops;
mod recovery;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use chopim_dram::DramConfig;
use chopim_mapping::color::{Color, ColoredAllocator, Region};
use chopim_mapping::PartitionedMapping;
use chopim_nda::isa::{NdaInstr, Opcode};
use chopim_nda::operand::OperandLayout;

use crate::energy::PeActivity;
use crate::report::TenantReport;

use arbiter::SchedState;
pub(crate) use codec::{decode_handle, encode_handle};
pub use executor::JobGraph;
use executor::JobRecord;
pub use ops::OpBuilder;

/// Handle to a runtime-managed vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecId(pub(crate) usize);

/// Handle to a runtime-managed row-major matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatId(pub(crate) usize);

/// A per-tenant submission context.
///
/// Each session owns an ordered stream of operations; independent
/// sessions share the machine under fair-share arbitration (see the
/// module docs). Sessions are cheap `Copy` handles — create them with
/// [`Runtime::create_session`], or use [`Runtime::default_session`] for
/// single-tenant code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Session {
    id: u32,
}

/// Typed handle to a launched (possibly multi-instruction, multi-rank)
/// operation: the `(session, op)` pair completion routing carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpHandle {
    pub(crate) sess: u32,
    pub(crate) idx: u32,
}

impl OpHandle {
    /// The session this op was submitted to.
    pub fn session(self) -> Session {
        Session { id: self.sess }
    }
}

/// Terminal status of an operation. Every submitted op reaches exactly
/// one of these (the recovery property suite's no-lost-ops contract);
/// [`Runtime::op_status`] returns `None` while the op is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpStatus {
    /// The op finished and its results are visible (includes ops
    /// re-executed on the host via [`OpBuilder::fallback_host`]).
    Completed,
    /// The op exhausted its retry budget on a faulted machine and has
    /// no host fallback; results are undefined.
    Failed,
    /// The op's [`OpBuilder::deadline`] expired before it finished.
    TimedOut,
    /// A dependency (explicit [`OpBuilder::after`] edge) concluded
    /// unsuccessfully, so this op was aborted instead of waiting
    /// forever.
    DepFailed,
}

impl OpStatus {
    /// True for every terminal state except [`OpStatus::Completed`].
    pub fn is_failure(self) -> bool {
        self != OpStatus::Completed
    }
}

/// Runtime-side recovery accounting (folded into the report's
/// `FaultReport`).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveryCounters {
    pub instr_retries: u64,
    pub instr_timeouts: u64,
    pub ops_failed: u64,
    pub ops_timed_out: u64,
    pub ops_dep_failed: u64,
    pub host_fallbacks: u64,
    pub ranks_quarantined: u64,
    pub max_retry_backoff: u64,
}

/// How an array is distributed (paper Fig. 8: `nda::SHARED` vs
/// `nda::PRIVATE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Striped across all NDAs, colored for rank alignment.
    Shared,
    /// One full copy per NDA (e.g. the `a_pvt` accumulators of Fig. 8).
    Private,
}

/// Options controlling how an API call splits into NDA instructions.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOpts {
    /// Cache blocks per NDA instruction per rank (`None` = one
    /// instruction covering the whole per-rank share). This is the
    /// coarse-grain knob of Fig. 10.
    pub granularity_lines: Option<u64>,
    /// Blocking semantics: wait for every rank to finish a chunk before
    /// launching the next (paper's default). `false` = asynchronous macro
    /// op launch.
    pub barrier_per_chunk: bool,
}

impl Default for LaunchOpts {
    fn default() -> Self {
        Self {
            granularity_lines: None,
            barrier_per_chunk: true,
        }
    }
}

/// QoS scheduling class of a session — the arbitration key of
/// [`Runtime::next_launches`] (see [`Runtime::set_qos`]).
///
/// Classes form two strict bands: every stageable `LatencySensitive`
/// session is served before any `Batch` session. Within a band sessions
/// are ordered by an integer virtual-time deficit scheduler — each
/// released launch charges the session `QUANTUM / weight`, so a weight-2
/// tenant is served twice as often as a weight-1 tenant under
/// contention. No floats, no wall-clock: schedules are bit-identical
/// across engine modes and snapshot/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Strict-priority band, round-robin among latency-sensitive peers.
    /// A saturating latency-sensitive tenant can starve batch traffic by
    /// design — cap its submission rate if that matters.
    LatencySensitive,
    /// Weighted fair share of whatever the latency-sensitive band
    /// leaves. The default class (weight 1) is plain fair round-robin.
    Batch {
        /// Relative share, clamped to `1..=1024`.
        weight: u32,
    },
}

impl Default for QosClass {
    fn default() -> Self {
        QosClass::Batch { weight: 1 }
    }
}

/// Admission-control limits of one session (executor API; see
/// [`Runtime::set_tenant_limits`]). The defaults admit everything — the
/// pre-executor behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Maximum live (submitted, not yet terminal) ops, realignment
    /// copies included. A job graph's cost is its node count plus the
    /// realignment copies its elementwise nodes insert. A graph whose
    /// cost would take the session past this cap is queued instead of
    /// admitted; one whose cost alone exceeds it is refused with
    /// [`SubmitError::ExceedsCap`].
    pub max_inflight_ops: u32,
    /// Queued (accepted, not yet admitted) job graphs the session may
    /// hold; submitting past it fails with [`SubmitError::QueueFull`].
    pub queue_depth: u32,
}

impl Default for TenantLimits {
    fn default() -> Self {
        Self {
            max_inflight_ops: u32::MAX,
            queue_depth: 0,
        }
    }
}

/// Handle to a job graph accepted by [`Runtime::submit_job`]. Resolves
/// through [`Runtime::ticket_done`] once every op the graph produced
/// (realignment copies included) reached a terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    sess: u32,
    job: u32,
}

impl Ticket {
    /// The session the job was submitted to.
    pub fn session(self) -> Session {
        Session { id: self.sess }
    }
}

/// Why [`Runtime::submit_job`] refused a job graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session is at its in-flight cap and its job queue (bounded by
    /// [`TenantLimits::queue_depth`]) is full. Deterministic
    /// backpressure — resubmit after the queue drains.
    QueueFull,
    /// The graph's cost (nodes plus the realignment copies they insert)
    /// exceeds [`TenantLimits::max_inflight_ops`], so it could never be
    /// admitted. Split the graph or raise the cap.
    ExceedsCap,
}

#[derive(Debug)]
struct ArrayData {
    backing: Vec<f32>,
    /// Per-NDA copies for `Sharing::Private`.
    private: Option<Vec<Vec<f32>>>,
    /// Rank-local traversal per NDA index.
    layouts: Vec<Arc<OperandLayout>>,
    /// Lines of payload per NDA rank.
    lines_per_rank: u64,
    /// Region backing the array (kept for ownership queries).
    region: Option<Region>,
    len: usize,
    shape: Option<(usize, usize)>,
    color: Color,
}

/// A queued instruction launch (becomes control-register writes on the
/// channel).
#[derive(Debug, Clone)]
pub struct PendingLaunch {
    /// Index into the system's NDA-rank list.
    pub nda_idx: usize,
    /// The instruction to deliver.
    pub instr: NdaInstr,
    /// Owning operation (the `(session, op)` tag completion routing
    /// carries back).
    pub op: OpHandle,
    /// Chunk index within the operation (for barriers).
    pub chunk: usize,
}

#[derive(Debug)]
enum OpKind {
    Elementwise {
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
    },
    Gemv {
        y: VecId,
        a: MatId,
        x: VecId,
    },
    /// `parallel_for` macro op: per-sample `a_pvt += alpha_i * X[i]`.
    MacroAxpyRows {
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
    },
}

#[derive(Debug)]
struct OpState {
    kind: OpKind,
    pending: VecDeque<PendingLaunch>,
    total_instrs: u64,
    completed_instrs: u64,
    chunk_sizes: Vec<u32>,
    chunk_completed: Vec<u32>,
    released_chunks: usize,
    barrier: bool,
    result: Option<f32>,
    done: bool,
    /// Explicit DAG edges: launches are held until every parent op has
    /// retired (runtime-inserted realignment copies, paper §V, and
    /// user-declared [`OpBuilder::after`] edges — possibly cross-session).
    deps: Vec<OpHandle>,
    /// Default program-order semantics: also wait for every earlier op in
    /// the same session. `false` = gated by `deps` alone.
    ordered: bool,
    /// First instruction id of this op; instruction ids are contiguous
    /// per op, `n_ndas` per chunk, so `chunk = (id - base) / n_ndas`.
    instr_base: u64,
    /// Cycle at which the op's first launch was staged (DAG observability
    /// for the scheduling property tests).
    first_staged_at: Option<u64>,
    /// Cycle at which the op finished (set on the completing instruction).
    finished_at: Option<u64>,
    /// Terminal status (`None` while live; always `Some` once `done`
    /// under fault recovery).
    status: Option<OpStatus>,
    /// Instruction retries charged against this op's retry budget.
    retries: u32,
    /// Backoff hold: no launch of this op stages before this cycle
    /// (`0` = no hold). The system folds the earliest hold into its
    /// front-end horizon so expiry is cycle-exact on every engine.
    retry_after: u64,
    /// Absolute deadline armed by [`OpBuilder::deadline`].
    deadline_at: Option<u64>,
    /// Re-execute on the host instead of concluding `Failed` when the
    /// retry budget runs out ([`OpBuilder::fallback_host`]).
    fallback_host: bool,
    /// Cycle at which the op was submitted (tenant metering).
    submitted_at: u64,
    /// Reverse DAG edges: ops that listed this op in their `deps` while
    /// it was live. Drives targeted dep-retirement notification of the
    /// ready index and the failure cascade. Derived state — rebuilt on
    /// snapshot resume, never serialized.
    dependents: Vec<OpHandle>,
}

/// One session's submission state.
#[derive(Debug, Default)]
struct SessionState {
    ops: Vec<OpState>,
    /// Index of the first op that is not yet done. Launch gating and
    /// quiescence checks start here instead of rescanning the
    /// ever-growing op list every cycle.
    first_live: usize,
    /// Live (submitted, not finished) unordered ops. When zero, the
    /// staging scan can stop at the first blocked ordered op — the
    /// classic strict-order fast path.
    unordered_live: usize,
    /// QoS class (arbitration band and weight).
    qos: QosClass,
    /// Virtual-time tag of the deficit scheduler (monotone per band).
    /// This field and the two below are arbitration state, written only
    /// by `arbiter` (and restored by `codec`).
    vtime: u64,
    /// Ready-index membership.
    sched: SchedState,
    /// Validates this session's live band-heap entry; entries carrying
    /// an older stamp are stale and dropped on pop.
    heap_stamp: u32,
    /// Live (submitted, not terminal) ops — the admission-control gauge.
    live_ops: u32,
    /// Admission-control limits (executor API).
    limits: TenantLimits,
    /// Every job the executor accepted (the ticket table).
    jobs: Vec<JobRecord>,
    /// Indices into `jobs` still awaiting admission, FIFO.
    job_queue: VecDeque<u32>,
    /// Per-tenant metering, surfaced as `SimReport::tenants`.
    meter: TenantReport,
}

/// The Chopim runtime: arrays, colored allocation, sessions, op-graph
/// splitting/staging, and functional execution.
#[derive(Debug)]
pub struct Runtime {
    arrays: Vec<ArrayData>,
    sessions: Vec<SessionState>,
    /// Ready-session index: one min-heap per QoS band over
    /// `(vtime, session, stamp)`, lazily validated. This field and the
    /// three below are arbitration state, written only by `arbiter`
    /// (and restored by `codec`).
    // chopim-lint: allow(snapshot) -- derived scheduling index; decode_state rebuilds it from the restored op states
    ready: [BinaryHeap<Reverse<(u64, u32, u32)>>; 2],
    /// Per-band virtual clock: the floor for sessions (re)entering the
    /// band, so a long-idle tenant cannot monopolize on ancient credit.
    vnow: [u64; 2],
    /// Per-NDA waitlists of sessions parked on a credit return.
    // chopim-lint: allow(snapshot) -- derived wait index; decode_state rebuilds it from the restored dependency edges
    waitlists: Vec<Vec<u32>>,
    /// Retry-hold wake-ups: `(cycle, session)` min-heap (stale entries
    /// tolerated — only still-parked sessions get woken).
    // chopim-lint: allow(snapshot) -- derived wake index; decode_state rebuilds it from the restored deadlines
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// Sessions whose queued jobs may now fit, drained FIFO by
    /// `pre_stage` at the next executed cycle.
    admit_pending: VecDeque<u32>,
    /// Ops that reached a terminal state since the last drain — the
    /// completion-event feed stream resubmission pops instead of polling
    /// every stream every cycle.
    finished_ops: VecDeque<OpHandle>,
    next_instr: u64,
    /// Number of NDA ranks (one NDA per rank).
    // chopim-lint: allow(snapshot) -- construction-time constant from config; decode_state only validates counts against it
    n_ndas: usize,
    allocator: ColoredAllocator,
    // chopim-lint: allow(snapshot) -- configuration: resume rebuilds the Runtime from the same ChopimConfig before decoding state
    mapper: Arc<PartitionedMapping>,
    // chopim-lint: allow(snapshot) -- configuration: resume rebuilds the Runtime from the same ChopimConfig before decoding state
    cfg: DramConfig,
    /// NDA-rank list as `(channel, rank)` — all ranks in Chopim mode, the
    /// upper half in rank-partitioning mode.
    // chopim-lint: allow(snapshot) -- rank placement derived deterministically from config at construction
    nda_ranks: Vec<(usize, usize)>,
    /// Inverse of `nda_ranks`: NDA index of global rank
    /// `channel * ranks_per_channel + rank`, `None` for host-only ranks.
    // chopim-lint: allow(snapshot) -- derived from nda_ranks at construction
    nda_of_rank: Vec<Option<usize>>,
    /// Rank-partition mode: layouts synthesized on dedicated ranks.
    // chopim-lint: allow(snapshot) -- partitioning mode derived from config at construction
    rank_partition: bool,
    /// Ablation: walk operands in physical-address order (lines rotating
    /// across banks) instead of Chopim's contiguous-column layout walk.
    /// Collapses row locality exactly as Fig. 3's naive layout argument
    /// predicts.
    pub pa_order_walk: bool,
    rp_next_row: Vec<u32>,
    /// Accumulated PE activity (energy accounting).
    pub pe_activity: PeActivity,
    /// Analytic cycle cost of host-mediated steps (reduce/broadcast).
    pub host_comm_cycles: u64,
    /// Realignment copies the runtime inserted for color mismatches.
    pub realignment_copies: u64,
    default_color: Color,
    /// Retry budget per op before concluding `Failed` / falling back.
    // chopim-lint: allow(snapshot) -- recovery policy set by configure_recovery from config at construction
    retry_limit: u32,
    /// Base retry backoff in cycles (doubles per retry).
    // chopim-lint: allow(snapshot) -- recovery policy set by configure_recovery from config at construction
    retry_backoff: u64,
    /// Upper bound on the exponential backoff.
    // chopim-lint: allow(snapshot) -- recovery policy set by configure_recovery from config at construction
    retry_backoff_cap: u64,
    /// Per-NDA liveness; quarantined NDAs receive no further launches.
    alive: Vec<bool>,
    /// Count of live ops with an armed deadline (gates the per-cycle
    /// deadline scan; zero keeps it free).
    // chopim-lint: allow(snapshot) -- derived timeout index; decode_state re-arms it from the restored in-flight ops
    armed_deadlines: u32,
    /// Front-end clock mirror (stamped by the system each cycle) so
    /// submission-time deadline arming sees the current cycle.
    pub(crate) clock: u64,
    pub(crate) counters: RecoveryCounters,
}

impl Runtime {
    /// Build a runtime over the shared mapper and OS allocator.
    pub fn new(
        cfg: DramConfig,
        mapper: Arc<PartitionedMapping>,
        allocator: ColoredAllocator,
        nda_ranks: Vec<(usize, usize)>,
        rank_partition: bool,
    ) -> Self {
        let n = nda_ranks.len();
        let mut nda_of_rank = vec![None; cfg.channels * cfg.ranks_per_channel];
        for (i, &(c, r)) in nda_ranks.iter().enumerate() {
            nda_of_rank[c * cfg.ranks_per_channel + r] = Some(i);
        }
        Self {
            arrays: Vec::new(),
            sessions: vec![SessionState::default()],
            ready: [BinaryHeap::new(), BinaryHeap::new()],
            vnow: [0; 2],
            waitlists: vec![Vec::new(); n],
            wake: BinaryHeap::new(),
            admit_pending: VecDeque::new(),
            finished_ops: VecDeque::new(),
            next_instr: 0,
            n_ndas: n,
            allocator,
            mapper,
            cfg,
            nda_ranks,
            nda_of_rank,
            rank_partition,
            pa_order_walk: false,
            rp_next_row: vec![0; n],
            pe_activity: PeActivity::default(),
            host_comm_cycles: 0,
            realignment_copies: 0,
            default_color: Color(0),
            retry_limit: 3,
            retry_backoff: 64,
            retry_backoff_cap: 4096,
            alive: vec![true; n],
            armed_deadlines: 0,
            clock: 0,
            counters: RecoveryCounters::default(),
        }
    }

    /// Runtime-side recovery counters (report support).
    pub(crate) fn recovery_counters(&self) -> &RecoveryCounters {
        &self.counters
    }

    /// True while NDA `nda` has not been quarantined by a rank-death
    /// completion (see [`OpBuilder::fallback_host`] and `docs/FAULTS.md`).
    pub fn nda_alive(&self, nda: usize) -> bool {
        self.alive[nda]
    }

    /// The default (always-present) session, for single-tenant code.
    pub fn default_session(&self) -> Session {
        Session { id: 0 }
    }

    /// Create a fresh submission session (a tenant).
    pub fn create_session(&mut self) -> Session {
        self.sessions.push(SessionState::default());
        Session {
            id: (self.sessions.len() - 1) as u32,
        }
    }

    /// The NDA ranks as `(channel, rank)` pairs.
    pub fn nda_ranks(&self) -> &[(usize, usize)] {
        &self.nda_ranks
    }

    fn op(&self, h: OpHandle) -> &OpState {
        &self.sessions[h.sess as usize].ops[h.idx as usize]
    }

    fn op_mut(&mut self, h: OpHandle) -> &mut OpState {
        &mut self.sessions[h.sess as usize].ops[h.idx as usize]
    }

    /// True when the op reached a terminal state (results visible only
    /// when [`op_status`](Self::op_status) is `Completed`).
    pub fn op_done(&self, h: OpHandle) -> bool {
        self.op(h).done
    }

    /// Terminal status of op `h`, `None` while it is still live. Outside
    /// fault recovery every finished op reads `Some(Completed)`.
    pub fn op_status(&self, h: OpHandle) -> Option<OpStatus> {
        self.op(h).status
    }

    /// True when `h` names an existing session/op pair. Snapshot decode
    /// validates handles held outside the runtime (staged launches,
    /// in-flight completions, shard-side tags) through this.
    pub(crate) fn handle_in_range(&self, h: OpHandle) -> bool {
        self.sessions
            .get(h.sess as usize)
            .is_some_and(|s| (h.idx as usize) < s.ops.len())
    }

    /// Reduction result of a completed DOT/NRM2.
    pub fn op_result(&self, h: OpHandle) -> Option<f32> {
        self.op(h).result
    }

    /// Cycle at which the op completed.
    pub fn op_finished_at(&self, h: OpHandle) -> Option<u64> {
        self.op(h).finished_at
    }

    /// Cycle at which the op's first launch was staged toward the
    /// channel (`None` while it is still held by DAG edges, program
    /// order, or queue backpressure).
    pub fn op_first_staged_at(&self, h: OpHandle) -> Option<u64> {
        self.op(h).first_staged_at
    }

    /// Every op of `sess` completed and nothing pending (the
    /// session-quiescent [`Waitable`](crate::system::Waitable)).
    pub fn session_idle(&self, sess: Session) -> bool {
        let ss = &self.sessions[sess.id as usize];
        ss.ops[ss.first_live..].iter().all(|o| o.done)
    }

    /// All ops of every session completed and nothing pending.
    pub fn quiescent(&self) -> bool {
        self.sessions
            .iter()
            .all(|ss| ss.ops[ss.first_live..].iter().all(|o| o.done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ChopimConfig, ChopimSystem};
    use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
    use std::collections::BTreeSet;

    impl Runtime {
        /// The walk [`Runtime::chunk_walk`] shortens: translate every line
        /// of every system row.
        fn chunk_walk_per_line(&self, region: &Region) -> Vec<Vec<(u16, u32)>> {
            let row_lines = self.cfg.system_row_bytes() / 64;
            let mut chunk_lists = vec![Vec::new(); self.n_ndas];
            for sysrow in &region.rows {
                let mut seen = BTreeSet::new();
                let base_pa = u64::from(sysrow.index) * self.cfg.system_row_bytes();
                for l in 0..row_lines {
                    if let Some((idx, key)) = self.chunk_of(base_pa + l * 64) {
                        if seen.insert(key) {
                            chunk_lists[idx].push((key.1, key.2));
                        }
                    }
                }
            }
            chunk_lists
        }
    }

    /// Allocate operands on a machine built from `cfg` and check every
    /// array's layouts against the per-line reference walk.
    fn assert_walks_agree(cfg: ChopimConfig, alloc: impl FnOnce(&mut Runtime)) {
        let mut sys = ChopimSystem::new(cfg);
        alloc(&mut sys.runtime);
        let rt = &sys.runtime;
        assert!(!rt.arrays.is_empty());
        for (i, a) in rt.arrays.iter().enumerate() {
            let region = a.region.as_ref().expect("shared-mode arrays own a region");
            let reference = rt.layouts_from(rt.chunk_walk_per_line(region));
            assert_eq!(a.layouts, reference, "array {i}");
        }
    }

    fn vector_and_matrix(rt: &mut Runtime) {
        rt.vector(4096, Sharing::Shared);
        rt.matrix(64, 16384);
        rt.vector(100, Sharing::Private);
    }

    #[test]
    fn chunk_walk_matches_per_line_walk_on_8_channels() {
        let cfg = ChopimConfig {
            dram: DramConfig::table_ii().with_channels(8),
            ..ChopimConfig::default()
        };
        assert_walks_agree(cfg, vector_and_matrix);
    }

    #[test]
    fn chunk_walk_matches_per_line_walk_on_2x4() {
        let cfg = ChopimConfig {
            dram: DramConfig::table_ii().with_ranks(4),
            ..ChopimConfig::default()
        };
        assert_walks_agree(cfg, vector_and_matrix);
    }

    #[test]
    fn chunk_walk_matches_per_line_walk_without_partitioning() {
        // No reserved banks: operands come from `alloc_host_colored`.
        let cfg = ChopimConfig {
            reserved_banks: 0,
            ..ChopimConfig::default()
        };
        assert_walks_agree(cfg, vector_and_matrix);
    }

    #[test]
    fn chunk_walk_matches_per_line_walk_in_pa_order() {
        let cfg = ChopimConfig {
            nda_pa_order_walk: true,
            ..ChopimConfig::default()
        };
        assert_walks_agree(cfg, vector_and_matrix);
    }

    #[test]
    fn decode_rejects_a_region_row_size_off_the_geometry() {
        // `Region::pa_of` splits offsets with a shift and a mask, so a
        // restored region must keep the machine's power-of-two row size.
        let mut sys = ChopimSystem::new(ChopimConfig::default());
        sys.runtime.vector(4096, Sharing::Shared);
        let region = sys.runtime.arrays[0].region.as_mut().expect("shared");
        region.row_bytes += 64;
        let mut w = ByteWriter::new();
        sys.runtime.encode_state(&mut w);
        let bytes = w.finish();
        let mut fresh = ChopimSystem::new(ChopimConfig::default());
        assert_eq!(
            fresh.runtime.decode_state(&mut ByteReader::new(&bytes)),
            Err(CodecError::Corrupt("region row size"))
        );
    }
}
