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

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::DramConfig;
use chopim_mapping::color::{Color, ColoredAllocator, Region, SystemRow};
use chopim_mapping::{AddressMapper, PartitionedMapping};
use chopim_nda::isa::{NdaInstr, Opcode};
use chopim_nda::operand::OperandLayout;
use chopim_nda::pe;
use chopim_nda::snapshot::{decode_instr, decode_layout, encode_instr, encode_layout};

use crate::energy::PeActivity;
use crate::report::TenantReport;

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
    #[cold]
    fn encode(this: Option<OpStatus>) -> u8 {
        match this {
            None => 0,
            Some(OpStatus::Completed) => 1,
            Some(OpStatus::Failed) => 2,
            Some(OpStatus::TimedOut) => 3,
            Some(OpStatus::DepFailed) => 4,
        }
    }

    #[cold]
    fn decode(tag: u8) -> Result<Option<OpStatus>, CodecError> {
        Ok(match tag {
            0 => None,
            1 => Some(OpStatus::Completed),
            2 => Some(OpStatus::Failed),
            3 => Some(OpStatus::TimedOut),
            4 => Some(OpStatus::DepFailed),
            _ => return Err(CodecError::Corrupt("op status tag")),
        })
    }

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

/// Serialize an op handle (snapshot support; shared with the shard and
/// system codecs).
#[cold]
pub(crate) fn encode_handle(h: OpHandle, w: &mut ByteWriter) {
    w.varint(u64::from(h.sess));
    w.varint(u64::from(h.idx));
}

/// Decode an op handle written by [`encode_handle`]. Bounds against the
/// session table are checked by the caller once all sessions exist
/// (handles may forward-reference).
#[cold]
pub(crate) fn decode_handle(r: &mut ByteReader<'_>) -> Result<OpHandle, CodecError> {
    Ok(OpHandle {
        sess: r.varint_u32()?,
        idx: r.varint_u32()?,
    })
}

#[cold]
fn encode_opcode(op: Opcode, w: &mut ByteWriter) {
    let idx = Opcode::ALL
        .iter()
        .position(|&o| o == op)
        .expect("opcode in ALL");
    w.u8(idx as u8);
}

#[cold]
fn decode_opcode(r: &mut ByteReader<'_>) -> Result<Opcode, CodecError> {
    Opcode::ALL
        .get(r.u8()? as usize)
        .copied()
        .ok_or(CodecError::Corrupt("opcode"))
}

#[cold]
fn encode_f32s(vs: &[f32], w: &mut ByteWriter) {
    w.varint(vs.len() as u64);
    for &v in vs {
        w.f32(v);
    }
}

#[cold]
fn decode_f32s(r: &mut ByteReader<'_>) -> Result<Vec<f32>, CodecError> {
    let n = r.varint_usize()?;
    let mut vs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        vs.push(r.f32()?);
    }
    Ok(vs)
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

impl QosClass {
    /// Scheduler band: 0 = latency-sensitive, 1 = batch.
    fn band(self) -> usize {
        match self {
            QosClass::LatencySensitive => 0,
            QosClass::Batch { .. } => 1,
        }
    }

    fn weight(self) -> u64 {
        match self {
            QosClass::LatencySensitive => 1,
            QosClass::Batch { weight } => u64::from(weight.clamp(1, 1024)),
        }
    }

    #[cold]
    fn encode(self, w: &mut ByteWriter) {
        match self {
            QosClass::LatencySensitive => w.u8(0),
            QosClass::Batch { weight } => {
                w.u8(1);
                w.varint(u64::from(weight));
            }
        }
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => QosClass::LatencySensitive,
            1 => QosClass::Batch {
                weight: r.varint_u32()?,
            },
            _ => return Err(CodecError::Corrupt("qos class tag")),
        })
    }
}

/// Virtual-time charge per released launch at weight 1. Weights divide
/// this, so even the maximum weight (1024) still charges 1024 per launch
/// — virtual time strictly advances and no batch tenant can be starved
/// by a heavier batch peer.
const QUANTUM: u64 = 1 << 20;

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

/// What a requested op launches — one call surface shared by
/// [`OpBuilder`] and [`JobGraph`] nodes. Fully serializable, so queued
/// jobs survive snapshots.
#[derive(Debug, Clone)]
enum RequestKind {
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
    AxpyRows {
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    },
}

/// One op as requested, before splitting: what an [`OpBuilder`] chain or
/// a [`JobGraph`] node describes, and what `Runtime::submit_request`
/// turns into per-rank instructions.
#[derive(Debug, Clone)]
struct OpRequest {
    kind: RequestKind,
    opts: LaunchOpts,
    /// Explicit DAG edges to already-submitted ops (any session).
    deps: Vec<OpHandle>,
    /// Session program order (`false` = gated by `deps` alone).
    ordered: bool,
}

impl OpRequest {
    fn new(kind: RequestKind) -> Self {
        Self {
            kind,
            opts: LaunchOpts::default(),
            deps: Vec::new(),
            ordered: true,
        }
    }
}

#[derive(Debug, Clone)]
struct JobNode {
    /// The op; `req.deps` holds the node's `after_op` edges.
    req: OpRequest,
    /// Intra-graph parents (indices of earlier nodes), appended to
    /// `req.deps` at admission.
    parents: Vec<u32>,
}

/// A declarative batch of ops submitted as one unit through the
/// executor ([`Runtime::submit_job`]): nodes plus DAG edges, resolved
/// into real submissions at admission time. Building a graph performs no
/// runtime work, so graphs can be held in the bounded admission queue
/// and admitted later (queued graphs serialize into snapshots).
#[derive(Debug, Clone, Default)]
pub struct JobGraph {
    nodes: Vec<JobNode>,
}

impl JobGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (ops the graph submits, before realignment).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, kind: RequestKind) -> usize {
        self.nodes.push(JobNode {
            req: OpRequest::new(kind),
            parents: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Add an elementwise Table-I node; returns its node index.
    pub fn elementwise(
        &mut self,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
    ) -> usize {
        self.push(RequestKind::Elementwise {
            op,
            scalars,
            inputs,
            output,
        })
    }

    /// Add a `y = A x` node (`y` must not be `x`); returns its node index.
    pub fn gemv(&mut self, y: VecId, a: MatId, x: VecId) -> usize {
        self.push(RequestKind::Gemv { y, a, x })
    }

    /// Add a `parallel_for` macro node; returns its node index.
    pub fn axpy_rows(
        &mut self,
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    ) -> usize {
        self.push(RequestKind::AxpyRows {
            a_pvt,
            alphas,
            x,
            samples_per_instr,
        })
    }

    /// DAG edge inside the graph: `node` waits for `parent`, an earlier
    /// node index of this graph.
    ///
    /// # Panics
    ///
    /// Panics unless `parent < node < len()`.
    pub fn after(&mut self, node: usize, parent: usize) -> &mut Self {
        assert!(
            parent < node && node < self.nodes.len(),
            "edge must point backward within the graph"
        );
        self.nodes[node].parents.push(parent as u32);
        self
    }

    /// DAG edge to an op submitted outside the graph.
    pub fn after_op(&mut self, node: usize, parent: OpHandle) -> &mut Self {
        self.nodes[node].req.deps.push(parent);
        self
    }

    /// Opt `node` out of session program order (gated by its edges
    /// alone).
    pub fn unordered(&mut self, node: usize) -> &mut Self {
        self.nodes[node].req.ordered = false;
        self
    }

    /// Replace `node`'s launch options.
    pub fn opts(&mut self, node: usize, opts: LaunchOpts) -> &mut Self {
        self.nodes[node].req.opts = opts;
        self
    }
}

/// One job accepted by the executor: still queued behind admission
/// control, or admitted as the session-op range `[base, end)`
/// (realignment copies included).
#[derive(Debug, Clone)]
enum JobState {
    Queued(JobGraph),
    Admitted { base: u32, end: u32 },
}

#[derive(Debug, Clone)]
struct JobRecord {
    state: JobState,
    enqueued_at: u64,
}

/// Where a session currently lives in the ready index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SchedState {
    /// Not indexed: nothing to stage, or every candidate is gated on an
    /// event (dep retirement, completion) that re-notifies the session.
    #[default]
    Untracked,
    /// In its band heap, exactly one live entry (keyed by `heap_stamp`;
    /// older entries are stale and dropped on pop).
    Ready,
    /// Waiting on a credit return (on a per-NDA waitlist) and/or a retry
    /// expiry (on the wake heap).
    Parked,
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

/// A request split into per-rank instructions: what a splitter hands
/// `push_op`. The chunk table counts launches per barrier chunk.
struct Split {
    kind: OpKind,
    pending: VecDeque<PendingLaunch>,
    chunk_sizes: Vec<u32>,
    instr_base: u64,
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
    /// `(vtime, session, stamp)`, lazily validated (see `SchedState`).
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
    /// Fault recovery active (a non-empty `FaultPlan`): enables retry
    /// staging holds, inflight-record completion resolution, and
    /// quarantine redirection. `false` keeps every hot path on the
    /// exact pre-fault-plane instruction sequence.
    // chopim-lint: allow(snapshot) -- recovery policy set by configure_recovery from config at construction
    recovery: bool,
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
            recovery: false,
            retry_limit: 3,
            retry_backoff: 64,
            retry_backoff_cap: 4096,
            alive: vec![true; n],
            armed_deadlines: 0,
            clock: 0,
            counters: RecoveryCounters::default(),
        }
    }

    /// Configure the fault-recovery layer (called once by the system
    /// from its `ChopimConfig`). `active` mirrors "the fault plan is
    /// non-empty": when `false`, recovery stays fully dormant.
    pub(crate) fn configure_recovery(
        &mut self,
        active: bool,
        retry_limit: u32,
        retry_backoff: u64,
        retry_backoff_cap: u64,
    ) {
        self.recovery = active;
        self.retry_limit = retry_limit;
        self.retry_backoff = retry_backoff.max(1);
        self.retry_backoff_cap = retry_backoff_cap.max(self.retry_backoff);
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

    /// Quarantine NDA `nda` permanently (rank-death completion):
    /// subsequent launches re-shard across surviving ranks. Idempotent.
    #[cold]
    pub(crate) fn quarantine(&mut self, nda: usize) {
        if self.alive[nda] {
            self.alive[nda] = false;
            self.counters.ranks_quarantined += 1;
            // Redirect targets changed: every credit-parked session must
            // re-classify against the survivor set.
            for n in 0..self.waitlists.len() {
                self.credit_returned(n);
            }
        }
    }

    /// The NDA `nda` launches should target: `nda` itself while alive,
    /// else the next surviving NDA (wrapping). With every NDA dead the
    /// original index is returned and the launch fails its retries out.
    fn redirect(alive: &[bool], nda: usize) -> usize {
        if alive[nda] {
            return nda;
        }
        Self::redirect_cold(alive, nda)
    }

    /// [`redirect`](Self::redirect) against the current quarantine set
    /// (system-side staging support).
    pub(crate) fn redirect_live(&self, nda: usize) -> usize {
        Self::redirect(&self.alive, nda)
    }

    #[cold]
    fn redirect_cold(alive: &[bool], nda: usize) -> usize {
        let n = alive.len();
        for k in 1..n {
            let c = (nda + k) % n;
            if alive[c] {
                return c;
            }
        }
        nda
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

    /// Number of sessions (including the default one).
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
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

    /// Build per-NDA layouts for `lines` payload lines in a colored
    /// region.
    fn build_layouts(
        &mut self,
        lines: u64,
        color: Color,
    ) -> (Vec<Arc<OperandLayout>>, u64, Option<Region>) {
        let lpc = self.cfg.lines_per_row() as u64; // lines per chunk (128)
        let ranks = self.n_ndas as u64;
        let lines_per_rank = lines.div_ceil(ranks).div_ceil(lpc) * lpc;
        if self.rank_partition {
            // Dedicated ranks: synthesize bank-rotating layouts directly.
            let chunks = (lines_per_rank / lpc) as usize;
            let banks = self.cfg.banks_per_rank() as u16;
            let rows_needed = chunks.div_ceil(banks as usize) as u32;
            let mut layouts = Vec::with_capacity(self.n_ndas);
            for i in 0..self.n_ndas {
                let base = self.rp_next_row[i];
                self.rp_next_row[i] += rows_needed;
                layouts.push(OperandLayout::rotating(banks, base, chunks, lpc as u32));
            }
            return (layouts, lines_per_rank, None);
        }
        // Shared mode: allocate colored system rows and derive each rank's
        // chunk walk from the real mapping.
        let row_lines = self.cfg.system_row_bytes() / 64;
        let rows_needed = (lines_per_rank * ranks).div_ceil(row_lines) as usize;
        // With bank partitioning the shared pool is the reserved address
        // space; without it (reserved_banks = 0) NDA arrays live in
        // ordinary colored memory.
        let region = self
            .allocator
            .alloc_shared(color, rows_needed)
            .or_else(|| self.allocator.alloc_host_colored(color, rows_needed))
            .expect("memory exhausted for NDA operands");
        let layouts = self.layouts_from(self.chunk_walk(&region));
        (layouts, lines_per_rank, Some(region))
    }

    /// NDA index and chunk key `(global rank, flat bank, row)` of `pa`,
    /// or `None` when its rank hosts no NDA.
    fn chunk_of(&self, pa: u64) -> Option<(usize, (usize, u16, u32))> {
        let d = self.mapper.map_pa(pa);
        let g = d.channel * self.cfg.ranks_per_channel + d.rank;
        let bank = d.flat_bank(self.cfg.banks_per_group) as u16;
        self.nda_of_rank[g].map(|idx| (idx, (g, bank, d.row)))
    }

    /// Each NDA's `(bank, row)` chunks of `region`, in first-seen line
    /// order per system row.
    ///
    /// Offsets that differ only in column-only line bits fall in one
    /// chunk (the partition fix-up reads only bank and row), and the
    /// lowest of them has those bits clear. Visiting just the offsets
    /// with them clear, in increasing order, therefore sees every chunk
    /// in the same first-seen order as a walk over every line, at one
    /// translation per DRAM chunk instead of one per line.
    fn chunk_walk(&self, region: &Region) -> Vec<Vec<(u16, u32)>> {
        let row_lines = self.cfg.system_row_bytes() / 64;
        let skip = self.mapper.inner().col_only_mask() & (row_lines - 1);
        let mut chunk_lists = vec![Vec::new(); self.n_ndas];
        for sysrow in &region.rows {
            let mut seen = BTreeSet::new();
            let base_pa = u64::from(sysrow.index) * self.cfg.system_row_bytes();
            let mut l = 0;
            while l < row_lines {
                if let Some((idx, key)) = self.chunk_of(base_pa + l * 64) {
                    if seen.insert(key) {
                        chunk_lists[idx].push((key.1, key.2));
                    }
                }
                // Next offset with every `skip` bit clear.
                l = ((l | skip) + 1) & !skip;
            }
        }
        chunk_lists
    }

    /// Turn per-NDA chunk lists into operand layouts.
    fn layouts_from(&self, chunk_lists: Vec<Vec<(u16, u32)>>) -> Vec<Arc<OperandLayout>> {
        let lpc = self.cfg.lines_per_row() as u64;
        let row_lines = self.cfg.system_row_bytes() / 64;
        // Chopim's layout lets the microcode stream contiguous columns of
        // one bank row per 1 KB-per-chip batch (Fig. 3/Fig. 9). The
        // `pa_order_walk` ablation instead rotates lines across all banks
        // of the rank (the walk a naive layout would force), destroying
        // row locality under host interference.
        let group = (row_lines / self.n_ndas as u64 / lpc).max(1) as u32;
        chunk_lists
            .into_iter()
            .map(|c| {
                if self.pa_order_walk && (c.len() as u32).is_multiple_of(group) {
                    OperandLayout::with_interleave(c, lpc as u32, group)
                } else {
                    OperandLayout::new(c, lpc as u32)
                }
            })
            .collect()
    }

    /// Allocate a host-only footprint region of `rows` system rows,
    /// halving on exhaustion (small test pools).
    ///
    /// # Panics
    ///
    /// Panics when host memory is completely exhausted.
    pub fn alloc_host_region(&mut self, rows: usize) -> Region {
        let mut rows = rows.max(1);
        loop {
            if let Some(r) = self.allocator.alloc_host(rows) {
                return r;
            }
            rows /= 2;
            assert!(rows > 0, "host memory exhausted");
        }
    }

    /// Allocate a vector of `len` f32 elements in the default color.
    pub fn vector(&mut self, len: usize, sharing: Sharing) -> VecId {
        self.vector_colored(len, sharing, self.default_color)
    }

    /// Allocate a vector in an explicit shared-region color (paper §III-A:
    /// operands of one instruction must share a color; the runtime inserts
    /// realignment copies otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the color is out of range.
    pub fn vector_colored(&mut self, len: usize, sharing: Sharing, color: Color) -> VecId {
        assert!(len > 0, "empty vector");
        assert!(
            (color.0 as usize) < self.allocator.num_colors(),
            "color out of range"
        );
        let (layouts, lines_per_rank, region, private);
        match sharing {
            Sharing::Shared => {
                let total_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(total_lines, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = None;
            }
            Sharing::Private => {
                // A full copy per NDA, each within its own rank share.
                let per_copy_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(per_copy_lines * self.n_ndas as u64, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = Some(vec![vec![0.0; len]; self.n_ndas]);
            }
        }
        self.arrays.push(ArrayData {
            backing: vec![0.0; len],
            private,
            layouts,
            lines_per_rank,
            region,
            len,
            shape: None,
            color,
        });
        VecId(self.arrays.len() - 1)
    }

    /// The shared-region color of an array.
    pub fn color_of(&self, v: VecId) -> Color {
        self.arrays[v.0].color
    }

    /// Number of available colors (8 for Table II, paper §III-A).
    pub fn num_colors(&self) -> usize {
        self.allocator.num_colors()
    }

    /// Allocate a row-major `rows x cols` shared matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of 16 (rows must be cache-line
    /// aligned so each line belongs to one sample).
    pub fn matrix(&mut self, rows: usize, cols: usize) -> MatId {
        assert!(
            cols.is_multiple_of(16),
            "cols must be a multiple of 16 (line-aligned rows)"
        );
        let total_lines = ((rows * cols * 4) as u64).div_ceil(64);
        let color = self.default_color;
        let (layouts, lines_per_rank, region) = self.build_layouts(total_lines, color);
        self.arrays.push(ArrayData {
            backing: vec![0.0; rows * cols],
            private: None,
            layouts,
            lines_per_rank,
            region,
            len: rows * cols,
            shape: Some((rows, cols)),
            color,
        });
        MatId(self.arrays.len() - 1)
    }

    /// Overwrite a vector's contents.
    pub fn write_vector(&mut self, v: VecId, data: &[f32]) {
        let a = &mut self.arrays[v.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    /// Read a vector's contents.
    pub fn read_vector(&self, v: VecId) -> &[f32] {
        &self.arrays[v.0].backing
    }

    /// Read one NDA's private copy.
    pub fn read_private(&self, v: VecId, nda: usize) -> &[f32] {
        &self.arrays[v.0].private.as_ref().expect("private array")[nda]
    }

    /// Overwrite a matrix's contents (row-major).
    pub fn write_matrix(&mut self, m: MatId, data: &[f32]) {
        let a = &mut self.arrays[m.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    /// Matrix contents (row-major).
    pub fn read_matrix(&self, m: MatId) -> &[f32] {
        &self.arrays[m.0].backing
    }

    fn vec_lines(&self, v: VecId) -> u64 {
        ((self.arrays[v.0].len * 4) as u64).div_ceil(64)
    }

    /// Per-rank payload lines of a shared vector.
    fn vec_lines_per_rank(&self, v: VecId) -> u64 {
        self.vec_lines(v).div_ceil(self.n_ndas as u64)
    }

    fn take_instr_ids(&mut self, count: u64) -> u64 {
        let base = self.next_instr;
        self.next_instr += count;
        base
    }

    /// Handle the next op submitted to `sess` will get.
    fn next_handle(&self, sess: Session) -> OpHandle {
        OpHandle {
            sess: sess.id,
            idx: self.sessions[sess.id as usize].ops.len() as u32,
        }
    }

    /// The one way in: split `req` into per-rank instructions and queue
    /// it on `sess`, inserting realignment copies ahead of an elementwise
    /// op whose inputs disagree in color. [`OpBuilder::submit`] and job
    /// admission both submit through here.
    fn submit_request(&mut self, sess: Session, mut req: OpRequest) -> OpHandle {
        let split = match req.kind {
            RequestKind::Elementwise {
                op,
                scalars,
                mut inputs,
                output,
            } => {
                self.realign(sess, &mut inputs, output, &mut req.deps, req.ordered);
                self.split_elementwise(sess, op, scalars, inputs, output, req.opts)
            }
            RequestKind::Gemv { y, a, x } => self.split_gemv(sess, y, a, x),
            RequestKind::AxpyRows {
                a_pvt,
                alphas,
                x,
                samples_per_instr,
            } => self.split_axpy_rows(sess, a_pvt, alphas, x, samples_per_instr),
        };
        self.push_op(sess, split, req.opts, req.deps, req.ordered)
    }

    /// Queue a split op on `sess`: the one place a live [`OpState`] is
    /// built (snapshot decode restores the others).
    fn push_op(
        &mut self,
        sess: Session,
        split: Split,
        opts: LaunchOpts,
        deps: Vec<OpHandle>,
        ordered: bool,
    ) -> OpHandle {
        let Split {
            kind,
            pending,
            chunk_sizes,
            instr_base,
        } = split;
        let op = OpState {
            kind,
            total_instrs: pending.len() as u64,
            pending,
            completed_instrs: 0,
            chunk_completed: vec![0; chunk_sizes.len()],
            chunk_sizes,
            released_chunks: 0,
            barrier: opts.barrier_per_chunk,
            result: None,
            done: false,
            deps,
            ordered,
            instr_base,
            first_staged_at: None,
            finished_at: None,
            status: None,
            retries: 0,
            retry_after: 0,
            deadline_at: None,
            fallback_host: false,
            submitted_at: self.clock,
            dependents: Vec::new(),
        };
        // Submitting behind an already-failed dependency: abort now
        // rather than waiting on a parent that will never succeed.
        let failed_dep = self.recovery
            && op
                .deps
                .iter()
                .any(|&d| self.op(d).status.is_some_and(OpStatus::is_failure));
        let h = self.next_handle(sess);
        // Reverse edges: live parents notify this op's session when they
        // retire (and the failure cascade walks straight to it).
        for k in 0..op.deps.len() {
            let d = op.deps[k];
            if !self.op(d).done {
                self.op_mut(d).dependents.push(h);
            }
        }
        let ss = &mut self.sessions[sess.id as usize];
        if !op.ordered {
            ss.unordered_live += 1;
        }
        if ss.live_ops == 0 {
            // Idle → busy arrival: catch the session's virtual time up
            // to the band clock so a long-idle tenant cannot cash in
            // service it never contended for. (Wakes from credit parks
            // keep their earned lead — see `ready_notify`.)
            ss.vtime = ss.vtime.max(self.vnow[ss.qos.band()]);
        }
        ss.live_ops += 1;
        ss.meter.ops_submitted += 1;
        ss.ops.push(op);
        self.ready_notify(sess.id as usize);
        if failed_dep {
            let now = self.clock;
            self.conclude_and_cascade(h, OpStatus::DepFailed, now);
        }
        h
    }

    /// The color all operands of one elementwise instruction must share
    /// (paper §III-A): the output's, else the first input's. `None`
    /// without operands.
    fn base_color(&self, inputs: &[VecId], output: Option<VecId>) -> Option<Color> {
        output
            .or_else(|| inputs.first().copied())
            .map(|v| self.arrays[v.0].color)
    }

    /// True when input `v` needs a realignment copy to reach `base`.
    /// Private arrays hold a copy per NDA and are never copied. Both the
    /// copy insertion and the admission cost read this predicate.
    fn needs_copy(&self, v: VecId, base: Color) -> bool {
        let a = &self.arrays[v.0];
        a.color != base && a.private.is_none()
    }

    /// Copy every misaligned input into a temporary of the base color,
    /// swap the temporary in, and gate the op on the copy via `deps`
    /// (paper §V). The copies inherit the op's own DAG edges: a copy
    /// reads the mismatched input, so it must wait for the same parents
    /// the op was gated on (one of them may be the op producing that
    /// input — in another session, or skipped over by `unordered`).
    fn realign(
        &mut self,
        sess: Session,
        inputs: &mut [VecId],
        output: Option<VecId>,
        deps: &mut Vec<OpHandle>,
        ordered: bool,
    ) {
        let base = self.base_color(inputs, output).expect("needs operands");
        let inherited = deps.clone();
        for v in inputs.iter_mut() {
            if self.needs_copy(*v, base) {
                let tmp = self.vector_colored(self.arrays[v.0].len, Sharing::Shared, base);
                self.realignment_copies += 1;
                let opts = LaunchOpts::default();
                let copy =
                    self.split_elementwise(sess, Opcode::Copy, vec![], vec![*v], Some(tmp), opts);
                deps.push(self.push_op(sess, copy, opts, inherited.clone(), ordered));
                *v = tmp;
            }
        }
    }

    /// Split an elementwise op into per-rank instructions, `opts`-sized
    /// chunks of the per-rank share. `inputs` are read operands; `output`
    /// (if any) is the written operand (in-place ops pass the same id in
    /// both). All operands must be shared vectors of one length and one
    /// color.
    fn split_elementwise(
        &mut self,
        sess: Session,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
        opts: LaunchOpts,
    ) -> Split {
        let probe = *inputs.first().or(output.as_ref()).expect("needs operands");
        let len = self.arrays[probe.0].len;
        for v in inputs.iter().chain(output.iter()) {
            assert_eq!(self.arrays[v.0].len, len, "operand length mismatch");
        }
        let per_rank = self.vec_lines_per_rank(probe);
        let g = opts.granularity_lines.unwrap_or(per_rank).max(1);
        let chunks = per_rank.div_ceil(g) as usize;
        let handle = self.next_handle(sess);
        let instr_base = self.take_instr_ids(chunks as u64 * self.n_ndas as u64);
        let mut pending = VecDeque::new();
        let mut chunk_sizes = vec![0u32; chunks];
        // In-place read-modify-write ops stream their output operand in
        // as well (Table I: AXPY and SCAL update y/x in place).
        let rmw = matches!(op, Opcode::Axpy | Opcode::Scal);
        let mut id = instr_base;
        #[allow(clippy::needless_range_loop)]
        for chunk in 0..chunks {
            let start = chunk as u64 * g;
            let lines = g.min(per_rank - start);
            for nda in 0..self.n_ndas {
                let mut reads: Vec<_> = inputs
                    .iter()
                    .map(|v| (self.arrays[v.0].layouts[nda].clone(), start))
                    .collect();
                if rmw {
                    reads.extend(
                        output
                            .iter()
                            .map(|v| (self.arrays[v.0].layouts[nda].clone(), start)),
                    );
                }
                let writes: Vec<_> = output
                    .iter()
                    .map(|v| (self.arrays[v.0].layouts[nda].clone(), start))
                    .collect();
                let instr = NdaInstr::elementwise(op, lines, reads, writes, id);
                id += 1;
                pending.push_back(PendingLaunch {
                    nda_idx: nda,
                    instr,
                    op: handle,
                    chunk,
                });
                chunk_sizes[chunk] += 1;
            }
        }
        Split {
            kind: OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            },
            pending,
            chunk_sizes,
            instr_base,
        }
    }

    /// Split `y = A x` into one instruction per rank (A streams, x/y live
    /// in the scratchpad).
    fn split_gemv(&mut self, sess: Session, y: VecId, a: MatId, x: VecId) -> Split {
        let (rows, cols) = self.arrays[a.0].shape.expect("matrix");
        assert_eq!(self.arrays[x.0].len, cols, "x length != cols");
        assert_eq!(self.arrays[y.0].len, rows, "y length != rows");
        assert_ne!(y, x, "GEMV output y must not alias input x");
        let a_per_rank = self.arrays[a.0].lines_per_rank.min(
            ((rows * cols * 4) as u64)
                .div_ceil(64)
                .div_ceil(self.n_ndas as u64),
        );
        let x_per_rank = self.vec_lines_per_rank(x).max(1);
        let y_per_rank = self.vec_lines_per_rank(y).max(1);
        let handle = self.next_handle(sess);
        let instr_base = self.take_instr_ids(self.n_ndas as u64);
        let mut pending = VecDeque::new();
        for nda in 0..self.n_ndas {
            let instr = NdaInstr::gemv(
                (self.arrays[a.0].layouts[nda].clone(), 0, a_per_rank),
                (self.arrays[x.0].layouts[nda].clone(), 0, x_per_rank),
                (self.arrays[y.0].layouts[nda].clone(), 0, y_per_rank),
                instr_base + nda as u64,
            );
            pending.push_back(PendingLaunch {
                nda_idx: nda,
                instr,
                op: handle,
                chunk: 0,
            });
        }
        Split {
            kind: OpKind::Gemv { y, a, x },
            chunk_sizes: vec![pending.len() as u32],
            pending,
            instr_base,
        }
    }

    /// Split the `parallel_for` macro operation of Fig. 8: for each sample
    /// `i`, every NDA accumulates its local share of row `i` into its
    /// private copy of `a_pvt` (`a_pvt += alphas[i] * X[i]`).
    ///
    /// `samples_per_instr` batches consecutive samples into one NDA
    /// instruction — the paper's *macro NDA operation*, which amortizes
    /// launch packets over loop iterations (§V, load-imbalance
    /// optimization).
    fn split_axpy_rows(
        &mut self,
        sess: Session,
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    ) -> Split {
        let (rows, cols) = self.arrays[x.0].shape.expect("matrix");
        assert!(alphas.len() <= rows, "more alphas than rows");
        assert!(
            self.arrays[a_pvt.0].private.is_some(),
            "a_pvt must be PRIVATE"
        );
        assert_eq!(self.arrays[a_pvt.0].len, cols, "a_pvt length != cols");
        assert!(
            samples_per_instr > 0,
            "need at least one sample per instruction"
        );
        let row_lines = ((cols * 4) as u64).div_ceil(64);
        let row_lines_per_rank = row_lines.div_ceil(self.n_ndas as u64).max(1);
        let n = alphas.len();
        let k = samples_per_instr;
        let n_batches = n.div_ceil(k);
        let handle = self.next_handle(sess);
        let instr_base = self.take_instr_ids(n_batches as u64 * self.n_ndas as u64);
        let mut pending = VecDeque::new();
        let mut chunk_sizes = vec![0u32; n_batches];
        let mut id = instr_base;
        #[allow(clippy::needless_range_loop)]
        for batch in 0..n_batches {
            let first = batch * k;
            let count = k.min(n - first) as u64;
            let start = first as u64 * row_lines_per_rank;
            let span = count * row_lines_per_rank;
            for nda in 0..self.n_ndas {
                let x_l = self.arrays[x.0].layouts[nda].clone();
                let a_l = self.arrays[a_pvt.0].layouts[nda].clone();
                // Timing walk: the rank-share span of rows
                // [first, first+count) in X, plus the private accumulator
                // (read-modify-write, wrapped within its padded layout).
                let x_start = start.min(x_layout_guard(&self.arrays[x.0], span));
                let a_span = span.min(a_l.lines());
                let instr = NdaInstr::elementwise(
                    Opcode::Axpy,
                    a_span.min(span).max(1),
                    vec![(x_l, x_start), (a_l.clone(), 0)],
                    vec![(a_l, 0)],
                    id,
                );
                id += 1;
                pending.push_back(PendingLaunch {
                    nda_idx: nda,
                    instr,
                    op: handle,
                    chunk: batch,
                });
                chunk_sizes[batch] += 1;
            }
        }
        Split {
            kind: OpKind::MacroAxpyRows { a_pvt, alphas, x },
            pending,
            chunk_sizes,
            instr_base,
        }
    }

    /// Oracle-only (the release launch loop uses the borrow-splitting
    /// [`deps_done_in`] instead).
    #[cfg(debug_assertions)]
    fn deps_done(&self, deps: &[OpHandle]) -> bool {
        deps.iter().all(|&d| self.op(d).done)
    }

    /// Enter session `s` into its band heap unless it is already there.
    /// Cheap and idempotent — called from every event that can make a
    /// session stageable. Premature entries are harmless: the next
    /// `next_launches` pop re-classifies (and re-parks) them without
    /// staging anything.
    ///
    /// Deliberately does **not** floor the session's virtual time to the
    /// band clock: a backlogged session woken from a credit park keeps
    /// the service lead its weight earned it (flooring here would reset
    /// weighted shares to round-robin every time credits run dry). The
    /// idle→busy floor lives at op arrival instead — see `push_op`.
    fn ready_notify(&mut self, s: usize) {
        let ss = &mut self.sessions[s];
        if ss.sched == SchedState::Ready {
            return;
        }
        let band = ss.qos.band();
        ss.sched = SchedState::Ready;
        ss.heap_stamp = ss.heap_stamp.wrapping_add(1);
        self.ready[band].push(Reverse((ss.vtime, s as u32, ss.heap_stamp)));
        perfcount::bump(Counter::ReadyIndexOps);
    }

    /// A credit for NDA `nda` returned to the front-end: wake every
    /// session parked on its waitlist. O(woken), not O(sessions); stale
    /// entries (sessions that moved on) are dropped here.
    pub(crate) fn credit_returned(&mut self, nda: usize) {
        if self.waitlists[nda].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.waitlists[nda]);
        for s in list.drain(..) {
            perfcount::bump(Counter::ReadyIndexOps);
            if self.sessions[s as usize].sched == SchedState::Parked {
                self.ready_notify(s as usize);
            }
        }
        // Hand the emptied buffer back so the hot path never reallocates.
        self.waitlists[nda] = list;
    }

    /// Per-executed-cycle index maintenance, run by the front-end just
    /// before staging: expire retry wake-ups and admit queued jobs that
    /// now fit. Both queues are empty on the steady-state path, so this
    /// costs two branch tests.
    pub(crate) fn pre_stage(&mut self, now: u64) {
        while let Some(&Reverse((t, s))) = self.wake.peek() {
            if t > now {
                break;
            }
            self.wake.pop();
            perfcount::bump(Counter::ReadyIndexOps);
            if self.sessions[s as usize].sched == SchedState::Parked {
                self.ready_notify(s as usize);
            }
        }
        while let Some(s) = self.admit_pending.pop_front() {
            self.drain_admissions(s as usize, now);
        }
    }

    /// True while job admissions are pending: the front-end horizon must
    /// not skip past the next executed cycle while they drain.
    pub(crate) fn has_pending_admissions(&self) -> bool {
        !self.admit_pending.is_empty()
    }

    /// Classify session `s` against real queue `space`: return its
    /// stageable candidate op if one exists; otherwise park the session
    /// on every blocking credit waitlist and/or the retry wake heap
    /// (the two gates whose opening is a timer or a credit return, not a
    /// notifying op event), or leave it untracked when every remaining
    /// gate (dep retirement, barrier advance, completion) re-notifies it
    /// anyway. Mirrors the `stage_candidate` scan exactly.
    fn classify_and_park(
        &mut self,
        s: usize,
        space: &impl Fn(usize) -> usize,
        now: u64,
    ) -> Option<usize> {
        let recovery = self.recovery;
        let mut wake_at = u64::MAX;
        let mut parked = false;
        let found = {
            let sessions = &self.sessions;
            let alive = &self.alive;
            let waitlists = &mut self.waitlists;
            let ss = &sessions[s];
            let mut prior_all_done = true;
            let mut found = None;
            for i in ss.first_live..ss.ops.len() {
                let op = &ss.ops[i];
                if op.done {
                    continue;
                }
                let order_ok = !op.ordered || prior_all_done;
                if order_ok && !op.pending.is_empty() && deps_done_in(sessions, &op.deps) {
                    let head = op.pending.front().expect("nonempty");
                    let barrier_ok = !op.barrier || head.chunk <= op.released_chunks;
                    if barrier_ok {
                        if op.retry_after > now {
                            // Expiry is a timer, not a notifying event:
                            // arm an explicit wake-up.
                            wake_at = wake_at.min(op.retry_after);
                            parked = true;
                        } else {
                            let target = if recovery {
                                Self::redirect(alive, head.nda_idx)
                            } else {
                                head.nda_idx
                            };
                            if space(target) > 0 {
                                found = Some(i);
                                break;
                            }
                            // Credit-blocked: only a return on this NDA
                            // (or a quarantine flush) opens it.
                            waitlists[target].push(s as u32);
                            perfcount::bump(Counter::ReadyIndexOps);
                            parked = true;
                        }
                    }
                }
                prior_all_done = false;
                if ss.unordered_live == 0 {
                    // Everything later is ordered behind this op: stop.
                    break;
                }
            }
            found
        };
        if found.is_some() {
            return found;
        }
        if parked {
            self.sessions[s].sched = SchedState::Parked;
            if wake_at != u64::MAX {
                self.wake.push(Reverse((wake_at, s as u32)));
                perfcount::bump(Counter::ReadyIndexOps);
            }
        } else {
            self.sessions[s].sched = SchedState::Untracked;
        }
        None
    }

    /// Debug oracle: the session `next_launches` must serve — the
    /// stageable session with the minimum `(band, vtime, id)` key, found
    /// by scanning *every* session the way the pre-index scheduler did.
    /// Continuously validates ready-index notification coverage in debug
    /// builds (gated to small machines; `qos_sched_props` leans on it).
    #[cfg(debug_assertions)]
    fn oracle_pick(&self, space: &impl Fn(usize) -> usize, now: u64) -> Option<usize> {
        let mut best: Option<((usize, u64, usize), usize)> = None;
        for s in 0..self.sessions.len() {
            if self.stage_candidate(s, space, now).is_none() {
                continue;
            }
            let ss = &self.sessions[s];
            let key = (ss.qos.band(), ss.vtime, s);
            if best.as_ref().is_none_or(|&(bk, _)| key < bk) {
                best = Some((key, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// The op in session `s` whose head launch is releasable right now
    /// (deps retired, program order satisfied, chunk barrier open, FSM
    /// queue space available), if any.
    ///
    /// The scan starts at the session's live watermark and — when the
    /// session has no live unordered ops — stops at the first blocked
    /// ordered op, which is the strict-order fast path: at most one op is
    /// examined per call for classic submission streams.
    ///
    /// Oracle-only: the release-build launch loop inlines this scan
    /// (borrow-split over the session table) in `next_launches`.
    #[cfg(debug_assertions)]
    fn stage_candidate(
        &self,
        s: usize,
        space: &impl Fn(usize) -> usize,
        now: u64,
    ) -> Option<usize> {
        let ss = &self.sessions[s];
        let mut prior_all_done = true;
        for i in ss.first_live..ss.ops.len() {
            let op = &ss.ops[i];
            if op.done {
                continue;
            }
            let order_ok = !op.ordered || prior_all_done;
            // `retry_after` is 0 (always open) outside fault recovery.
            if order_ok
                && op.retry_after <= now
                && !op.pending.is_empty()
                && self.deps_done(&op.deps)
            {
                let head = op.pending.front().expect("nonempty");
                let barrier_ok = !op.barrier || head.chunk <= op.released_chunks;
                let target = if self.recovery {
                    Self::redirect(&self.alive, head.nda_idx)
                } else {
                    head.nda_idx
                };
                if barrier_ok && space(target) > 0 {
                    return Some(i);
                }
            }
            prior_all_done = false;
            if ss.unordered_live == 0 {
                // Everything later is ordered behind this op: stop.
                break;
            }
        }
        None
    }

    /// Pop launches that are ready to go to the channel into `out`,
    /// arbitrating across sessions by QoS band and virtual time (see
    /// [`QosClass`]) and respecting DAG edges, program order, and chunk
    /// barriers. The system calls this each cycle with available FSM
    /// queue space per NDA and its (reused) staging queue — releasing a
    /// launch must not allocate on the steady-state path; `now` stamps
    /// first-launch staging for DAG observability.
    ///
    /// Cost is O(active): the pick pops the ready index instead of
    /// scanning sessions. Each pop either stages (and re-indexes the
    /// session), drops a stale entry, or re-parks a session that was
    /// woken optimistically — every pop is paid for by the event that
    /// inserted the entry, so the amortized per-window cost tracks event
    /// traffic, not tenant count. In debug builds a full-scan oracle
    /// cross-checks every pick on machines up to 64 sessions.
    pub fn next_launches(
        &mut self,
        space: impl Fn(usize) -> usize,
        max: usize,
        now: u64,
        out: &mut std::collections::VecDeque<PendingLaunch>,
    ) {
        #[cfg(debug_assertions)]
        let oracle = (self.sessions.len() <= 64).then(|| self.oracle_pick(&space, now));
        let start = out.len();
        let mut staged: Option<usize> = None;
        'bands: for band in 0..2 {
            while let Some(&Reverse((_, sess, stamp))) = self.ready[band].peek() {
                perfcount::bump(Counter::SchedSessionsScanned);
                perfcount::bump(Counter::ReadyIndexOps);
                self.ready[band].pop();
                let s = sess as usize;
                if self.sessions[s].sched != SchedState::Ready
                    || self.sessions[s].heap_stamp != stamp
                {
                    continue; // stale entry
                }
                self.sessions[s].sched = SchedState::Untracked; // entry consumed
                let Some(i) = self.classify_and_park(s, &space, now) else {
                    continue; // woken but blocked: classify re-parked it
                };
                // Serve this session: advance the band's virtual clock to
                // its tag and release up to `max` launches from the
                // candidate op.
                self.vnow[band] = self.vnow[band].max(self.sessions[s].vtime);
                let recovery = self.recovery;
                let mut released = 0u64;
                {
                    let alive = &self.alive;
                    let op = &mut self.sessions[s].ops[i];
                    if op.first_staged_at.is_none() {
                        op.first_staged_at = Some(now);
                    }
                    while out.len() - start < max {
                        let Some(head) = op.pending.front() else {
                            break;
                        };
                        if op.barrier && head.chunk > op.released_chunks {
                            break; // previous chunk not fully complete
                        }
                        let target = if recovery {
                            Self::redirect(alive, head.nda_idx)
                        } else {
                            head.nda_idx
                        };
                        if space(target) == 0 {
                            break;
                        }
                        let mut launch = op.pending.pop_front().expect("checked");
                        launch.nda_idx = target;
                        out.push_back(launch);
                        released += 1;
                    }
                }
                // Charge virtual time and re-index the session.
                let weight = self.sessions[s].qos.weight();
                self.sessions[s].vtime = self.sessions[s]
                    .vtime
                    .saturating_add(released * (QUANTUM / weight));
                if self.classify_and_park(s, &space, now).is_some() {
                    self.ready_notify(s);
                }
                staged = Some(s);
                break 'bands; // one op per call; candidates guarantee progress
            }
        }
        #[cfg(debug_assertions)]
        if let Some(oracle) = oracle {
            debug_assert_eq!(
                staged, oracle,
                "ready-index pick diverged from the full-scan oracle"
            );
        }
        let _ = staged;
    }

    /// True when a session sits in the ready index — the O(1)
    /// conservative gate the event-horizon fast-forward consults. It may
    /// answer `true` for a session that turns out to be blocked (the
    /// next executed tick's [`next_launches`](Self::next_launches) pop
    /// re-parks it, after which the answer is `false` again), but never
    /// `false` when a launch could stage: every event that creates
    /// stageability notifies the index. Extra executed cycles never
    /// change staging decisions — the lockstep suites pin this.
    pub fn launch_ready(&self) -> bool {
        !self.ready[0].is_empty() || !self.ready[1].is_empty()
    }

    /// Record the completion of instruction `id` of op `h`, finalizing
    /// the op when it is the last one. Returns `true` if the op just
    /// finished. `id` must be the original (non-retried) instruction id;
    /// under fault recovery the system resolves completions through its
    /// in-flight records and calls
    /// `instr_completed_via` with the
    /// record's chunk instead (retried launches carry fresh ids).
    pub fn complete_instr(&mut self, h: OpHandle, id: u64, now: u64) -> bool {
        let n_ndas = self.n_ndas as u64;
        let op = self.op(h);
        debug_assert!(id >= op.instr_base && id - op.instr_base < op.total_instrs);
        let chunk = ((id - op.instr_base) / n_ndas) as usize;
        self.instr_completed_via(h, chunk, now)
    }

    /// Completion bookkeeping with the chunk resolved by the caller.
    /// Returns `true` if the op just finished; a completion for an op
    /// already concluded (timed out, failed) is ignored.
    pub(crate) fn instr_completed_via(&mut self, h: OpHandle, chunk: usize, now: u64) -> bool {
        let finished = {
            let op = self.op_mut(h);
            if op.done {
                return false; // late completion of a concluded op
            }
            op.completed_instrs += 1;
            op.chunk_completed[chunk] += 1;
            if op.chunk_completed[chunk] == op.chunk_sizes[chunk] && chunk == op.released_chunks {
                // Advance the barrier over all fully-completed chunks.
                while op.released_chunks < op.chunk_sizes.len()
                    && op.chunk_completed[op.released_chunks] == op.chunk_sizes[op.released_chunks]
                {
                    op.released_chunks += 1;
                }
            }
            op.completed_instrs == op.total_instrs
        };
        if finished {
            self.finalize(h); // sets done
            let op = self.op_mut(h);
            op.finished_at = Some(now);
            op.status = Some(OpStatus::Completed);
            self.retire(h, now);
        } else {
            // A barrier may have advanced (or program order may still be
            // waiting on more completions): re-enter the session so the
            // next tick can stage its newly-open work.
            self.ready_notify(h.sess as usize);
        }
        finished
    }

    /// The one way out, shared by the completion and conclusion paths
    /// once the caller has marked `h` done with its status: deadline
    /// disarm, program-order watermarks, tenant metering,
    /// admission-control accounting, the finished-op event feed, and
    /// ready-index notification of the session and every registered
    /// dependent.
    fn retire(&mut self, h: OpHandle, now: u64) {
        let s = h.sess as usize;
        let ss = &mut self.sessions[s];
        let op = &ss.ops[h.idx as usize];
        if op.deadline_at.is_some() {
            self.armed_deadlines -= 1;
        }
        if !op.ordered {
            ss.unordered_live -= 1;
        }
        let completed = op.status == Some(OpStatus::Completed);
        let submitted = op.submitted_at;
        let first_staged = op.first_staged_at;
        while ss.first_live < ss.ops.len() && ss.ops[ss.first_live].done {
            ss.first_live += 1;
        }
        let m = &mut ss.meter;
        if completed {
            m.ops_completed += 1;
        } else {
            m.ops_failed += 1;
        }
        m.cycles_resident += now.saturating_sub(submitted);
        match first_staged {
            Some(fs) => {
                m.launch_wait_cycles += fs.saturating_sub(submitted);
                m.service_cycles += now.saturating_sub(fs);
            }
            None => m.launch_wait_cycles += now.saturating_sub(submitted),
        }
        ss.live_ops -= 1;
        if !ss.job_queue.is_empty() {
            self.admit_pending.push_back(h.sess);
        }
        self.finished_ops.push_back(h);
        self.ready_notify(s);
        let n_dep = self.op(h).dependents.len();
        for k in 0..n_dep {
            let d = self.op(h).dependents[k];
            self.ready_notify(d.sess as usize);
        }
    }

    /// Pop the next op that reached a terminal state since the last
    /// drain (the completion-event feed behind stream resubmission).
    /// Pops in deterministic conclusion order.
    pub(crate) fn pop_finished(&mut self) -> Option<OpHandle> {
        self.finished_ops.pop_front()
    }

    /// Conclude op `h` with `status` outside the normal last-instruction
    /// path (fault recovery): abandon un-issued work, mark the op done
    /// (finalizing results first when `status` is `Completed`, i.e. a
    /// host fallback), and unblock program order. Idempotent on done ops.
    #[cold]
    fn conclude(&mut self, h: OpHandle, status: OpStatus, now: u64) {
        if self.op(h).done {
            return;
        }
        match status {
            OpStatus::Completed => self.finalize(h), // sets done
            OpStatus::Failed => self.counters.ops_failed += 1,
            OpStatus::TimedOut => self.counters.ops_timed_out += 1,
            OpStatus::DepFailed => self.counters.ops_dep_failed += 1,
        }
        let op = self.op_mut(h);
        op.done = true;
        op.status = Some(status);
        op.finished_at = Some(now);
        op.pending.clear();
        op.retry_after = 0;
        self.retire(h, now);
    }

    /// [`conclude`](Self::conclude), then propagate a failure along
    /// explicit DAG edges: every live op depending (transitively) on a
    /// failed op is aborted `DepFailed` rather than left waiting forever.
    /// Plain program order does NOT propagate — a terminal op, failed or
    /// not, unblocks its successors. The walk follows the reverse edges
    /// registered at submission, so its cost is the victim set, not the
    /// global op table.
    #[cold]
    pub(crate) fn conclude_and_cascade(&mut self, h: OpHandle, status: OpStatus, now: u64) {
        self.conclude(h, status, now);
        if status == OpStatus::Completed {
            return;
        }
        let mut work = vec![h];
        let mut victims = Vec::new();
        while let Some(f) = work.pop() {
            victims.clear();
            for &d in &self.op(f).dependents {
                if !self.op(d).done {
                    victims.push(d);
                }
            }
            for &v in &victims {
                self.conclude(v, OpStatus::DepFailed, now);
                work.push(v);
            }
        }
    }

    /// Handle a failed or timed-out in-flight launch: retry with
    /// bounded-exponential backoff while budget remains (the retried
    /// launch gets a FRESH instruction id and goes back to the head of
    /// the op's queue), otherwise conclude the op — re-executing on the
    /// host first when [`OpBuilder::fallback_host`] opted in.
    ///
    /// `rank_death` marks a launch rejected because its target rank died
    /// permanently. While a survivor exists the requeue is a *re-shard*,
    /// not a retry against a flaky machine: staging redirects it to a
    /// live rank, progress is certain, so it neither consumes the retry
    /// budget nor backs off (a death can reject a whole queue of
    /// launches at once, which would otherwise drain the budget of every
    /// op with work on that rank). With no survivors the normal budget
    /// applies, bounding the rejection loop.
    #[cold]
    pub(crate) fn instr_failed(&mut self, mut launch: PendingLaunch, now: u64, rank_death: bool) {
        let h = launch.op;
        if self.op(h).done {
            return; // op already concluded; drop the straggler
        }
        if rank_death && self.alive.iter().any(|&a| a) {
            self.counters.instr_retries += 1;
            let fresh = self.take_instr_ids(1);
            launch.instr.id = fresh;
            self.op_mut(h).pending.push_front(launch);
            self.ready_notify(h.sess as usize);
            return;
        }
        let retries = self.op(h).retries;
        if retries < self.retry_limit {
            let backoff = self
                .retry_backoff
                .checked_shl(retries)
                .unwrap_or(u64::MAX)
                .min(self.retry_backoff_cap);
            self.counters.max_retry_backoff = self.counters.max_retry_backoff.max(backoff);
            self.counters.instr_retries += 1;
            let fresh = self.take_instr_ids(1);
            launch.instr.id = fresh;
            let op = self.op_mut(h);
            op.retries += 1;
            op.retry_after = now + backoff;
            op.pending.push_front(launch);
            // The session re-parks itself onto the wake heap at the next
            // pop, which keeps the hold's expiry in the horizon.
            self.ready_notify(h.sess as usize);
        } else if self.op(h).fallback_host {
            self.counters.host_fallbacks += 1;
            self.conclude_and_cascade(h, OpStatus::Completed, now);
        } else {
            self.conclude_and_cascade(h, OpStatus::Failed, now);
        }
    }

    /// Expire per-op deadlines: every live op whose
    /// [`OpBuilder::deadline`] has passed concludes `TimedOut` (failure
    /// cascades along DAG edges). Free while no deadline is armed.
    pub(crate) fn check_deadlines(&mut self, now: u64) {
        if self.armed_deadlines == 0 {
            return;
        }
        self.check_deadlines_cold(now);
    }

    #[cold]
    fn check_deadlines_cold(&mut self, now: u64) {
        let mut expired = Vec::new();
        for (si, ss) in self.sessions.iter().enumerate() {
            for (oi, op) in ss.ops.iter().enumerate().skip(ss.first_live) {
                if !op.done && op.deadline_at.is_some_and(|d| d <= now) {
                    expired.push(OpHandle {
                        sess: si as u32,
                        idx: oi as u32,
                    });
                }
            }
        }
        for h in expired {
            self.conclude_and_cascade(h, OpStatus::TimedOut, now);
        }
    }

    /// Attach builder-level recovery options to a freshly submitted op.
    fn apply_recovery_opts(&mut self, h: OpHandle, deadline: Option<u64>, fallback_host: bool) {
        if deadline.is_none() && !fallback_host {
            return;
        }
        let now = self.clock;
        let op = self.op_mut(h);
        op.fallback_host = fallback_host;
        if let Some(cycles) = deadline {
            if !op.done {
                op.deadline_at = Some(now.saturating_add(cycles));
                self.armed_deadlines += 1;
            }
        }
    }

    /// Earliest future cycle at which recovery state changes on its own:
    /// a retry hold expiring or an armed deadline firing. The system
    /// folds this into its front-end horizon so fast-forwarding engines
    /// execute those cycles exactly. `None` when nothing is pending.
    pub(crate) fn next_recovery_wake(&self, now: u64) -> Option<u64> {
        let mut wake = u64::MAX;
        if self.armed_deadlines > 0 {
            for ss in &self.sessions {
                for op in &ss.ops[ss.first_live..] {
                    if !op.done {
                        if let Some(d) = op.deadline_at {
                            wake = wake.min(d);
                        }
                    }
                }
            }
        }
        // Retry holds live on the wake heap (a session whose hold is not
        // yet parked there is still Ready, which already pins the
        // horizon to `now` via `launch_ready`). Stale entries only make
        // the horizon conservative — they are drained by `pre_stage`.
        if let Some(&Reverse((t, _))) = self.wake.peek() {
            wake = wake.min(t);
        }
        (wake != u64::MAX).then(|| wake.max(now))
    }

    /// Functionally execute the finished op on the backing store.
    fn finalize(&mut self, h: OpHandle) {
        let kind = std::mem::replace(
            &mut self.op_mut(h).kind,
            OpKind::Elementwise {
                op: Opcode::Copy,
                scalars: vec![],
                inputs: vec![],
                output: None,
            },
        );
        match &kind {
            OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            } => {
                let input_data: Vec<Vec<f32>> = inputs
                    .iter()
                    .map(|v| self.arrays[v.0].backing.clone())
                    .collect();
                let input_refs: Vec<&[f32]> = input_data.iter().map(|v| v.as_slice()).collect();
                let stats = match output {
                    Some(o) => pe::execute(
                        *op,
                        scalars,
                        &input_refs,
                        Some(&mut self.arrays[o.0].backing),
                    ),
                    None => pe::execute(*op, scalars, &input_refs, None),
                };
                self.op_mut(h).result = stats.reduction;
                self.add_activity(stats);
            }
            OpKind::Gemv { y, a, x } => {
                assert!(y.0 != a.0 && y.0 != x.0, "GEMV output aliases an input");
                let (rows, cols) = self.arrays[a.0].shape.expect("matrix");
                // Move y out so A and x are read in place, not cloned.
                let mut y_data = std::mem::take(&mut self.arrays[y.0].backing);
                let stats = pe::execute_gemv(
                    &self.arrays[a.0].backing,
                    &self.arrays[x.0].backing,
                    &mut y_data,
                    rows,
                    cols,
                );
                self.arrays[y.0].backing = y_data;
                self.add_activity(stats);
            }
            OpKind::MacroAxpyRows { a_pvt, alphas, x } => {
                let (_, cols) = self.arrays[x.0].shape.expect("matrix");
                // Borrow X's data for the update (restored below) rather
                // than cloning the whole matrix per completion.
                let x_data = std::mem::take(&mut self.arrays[x.0].backing);
                let owners = self.line_owners(*x, cols);
                let lines_per_row = cols / 16;
                let privates = self.arrays[a_pvt.0]
                    .private
                    .as_mut()
                    .expect("private array");
                let mut fmas = 0u64;
                for (i, &alpha) in alphas.iter().enumerate() {
                    let row = &x_data[i * cols..(i + 1) * cols];
                    for l in 0..lines_per_row {
                        let owner = owners[(i * lines_per_row + l) % owners.len()];
                        let dst = &mut privates[owner];
                        for e in 0..16 {
                            let j = l * 16 + e;
                            dst[j] += alpha * row[j];
                            fmas += 1;
                        }
                    }
                }
                self.arrays[x.0].backing = x_data;
                self.pe_activity.fmas += fmas;
                self.pe_activity.buffer_accesses += fmas / 2;
            }
        }
        let op = self.op_mut(h);
        op.kind = kind;
        op.done = true;
    }

    /// Which NDA owns each cache line of a shared array (exact, via the
    /// mapping), cycled for timing-padded tails.
    fn line_owners(&self, m: MatId, _cols: usize) -> Vec<usize> {
        let a = &self.arrays[m.0];
        match &a.region {
            Some(region) => {
                let lines = ((a.len * 4) as u64).div_ceil(64);
                (0..lines)
                    .map(|l| {
                        let d = self.mapper.map_pa(region.pa_of(l * 64));
                        let g = d.channel * self.cfg.ranks_per_channel + d.rank;
                        self.nda_of_rank[g].unwrap_or(g % self.n_ndas)
                    })
                    .collect()
            }
            // Rank-partition mode: round-robin striping.
            None => (0..self.n_ndas).collect(),
        }
    }

    fn add_activity(&mut self, s: pe::ExecStats) {
        self.pe_activity.fmas += s.fmas;
        self.pe_activity.buffer_accesses += s.buffer_accesses;
        self.pe_activity.scratch_accesses += s.scratch_accesses;
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

    /// Host-side reduction of a private array into a shared vector
    /// (`host::reduce` of Fig. 8): functional sum over NDA copies plus an
    /// analytic host-traffic cycle charge.
    pub fn host_reduce(&mut self, dst: VecId, src: VecId) {
        let len = self.arrays[dst.0].len;
        assert_eq!(self.arrays[src.0].len, len);
        let privates = self.arrays[src.0]
            .private
            .as_ref()
            .expect("private source")
            .clone();
        let out = &mut self.arrays[dst.0].backing;
        out.iter_mut().for_each(|v| *v = 0.0);
        for copy in &privates {
            for (o, v) in out.iter_mut().zip(copy) {
                *o += *v;
            }
        }
        // Host reads n_ndas copies and writes one: bytes / peak BW.
        let bytes = (len * 4 * (self.n_ndas + 1)) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }

    /// Zero every private copy of a private vector.
    pub fn clear_private(&mut self, v: VecId) {
        for copy in self.arrays[v.0].private.as_mut().expect("private array") {
            copy.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Host-side elementwise sigmoid (`host::sigmoid` of Fig. 8).
    pub fn host_sigmoid(&mut self, v: VecId) {
        for x in &mut self.arrays[v.0].backing {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        let bytes = (self.arrays[v.0].len * 8) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }

    /// Remaining queued launches across all sessions.
    pub fn pending_launches(&self) -> usize {
        self.sessions
            .iter()
            .flat_map(|s| s.ops.iter())
            .map(|o| o.pending.len())
            .sum()
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

    // ---- executor: QoS classes, admission, job queue --------------------

    /// Set `sess`'s QoS class. Takes effect at the next arbitration
    /// decision; the session keeps its virtual-time position, floored to
    /// the new band's clock so it cannot cash in credit accumulated in
    /// the other band.
    pub fn set_qos(&mut self, sess: Session, class: QosClass) {
        let s = sess.id as usize;
        let band = class.band();
        let vt = self.sessions[s].vtime.max(self.vnow[band]);
        let ss = &mut self.sessions[s];
        ss.qos = class;
        ss.vtime = vt;
        if ss.sched == SchedState::Ready {
            // Re-home the live heap entry into the new band; the old
            // entry's stamp goes stale and is dropped on pop.
            ss.heap_stamp = ss.heap_stamp.wrapping_add(1);
            let stamp = ss.heap_stamp;
            self.ready[band].push(Reverse((vt, s as u32, stamp)));
            perfcount::bump(Counter::ReadyIndexOps);
        }
    }

    /// The QoS class of `sess`.
    pub fn qos(&self, sess: Session) -> QosClass {
        self.sessions[sess.id as usize].qos
    }

    /// Set `sess`'s admission-control limits. Loosening the in-flight
    /// cap re-arms admission for already-queued jobs. Lowering it below
    /// the cost of an already-queued graph is the caller's
    /// responsibility: that graph can then never be admitted, and it
    /// blocks every later job of the session (the queue is FIFO).
    pub fn set_tenant_limits(&mut self, sess: Session, limits: TenantLimits) {
        let s = sess.id as usize;
        self.sessions[s].limits = limits;
        if !self.sessions[s].job_queue.is_empty() {
            self.admit_pending.push_back(s as u32);
        }
    }

    /// The admission-control limits of `sess`.
    pub fn tenant_limits(&self, sess: Session) -> TenantLimits {
        self.sessions[sess.id as usize].limits
    }

    /// Submit a [`JobGraph`] through the executor's admission control.
    ///
    /// A graph whose cost (nodes plus realignment copies) exceeds the
    /// session's in-flight cap is refused with
    /// [`SubmitError::ExceedsCap`]. If the session's job queue is empty
    /// and the graph fits under the cap, the graph is admitted (ops
    /// submitted) immediately. Otherwise it is queued FIFO — admission
    /// resumes as the session's live ops retire — up to
    /// [`TenantLimits::queue_depth`] graphs; past that the submission is
    /// refused with [`SubmitError::QueueFull`]. Every decision depends
    /// only on runtime state, so it is bit-identical across engines and
    /// snapshot/resume.
    pub fn submit_job(&mut self, sess: Session, graph: JobGraph) -> Result<Ticket, SubmitError> {
        let s = sess.id as usize;
        let job = self.sessions[s].jobs.len() as u32;
        let cost = self.graph_cost(&graph);
        let enqueued_at = self.clock;
        let ss = &self.sessions[s];
        if cost > ss.limits.max_inflight_ops {
            // Could never fit, and would block the FIFO queue forever.
            self.sessions[s].meter.jobs_rejected += 1;
            return Err(SubmitError::ExceedsCap);
        }
        // Queued jobs admit strictly FIFO: a graph may not overtake the
        // queue even if it would fit right now.
        let fits = ss.job_queue.is_empty()
            && ss.live_ops.saturating_add(cost) <= ss.limits.max_inflight_ops;
        if fits {
            self.sessions[s].jobs.push(JobRecord {
                state: JobState::Admitted { base: 0, end: 0 },
                enqueued_at,
            });
            let (base, end) = self.admit_graph(sess, graph);
            self.sessions[s].jobs[job as usize].state = JobState::Admitted { base, end };
            Ok(Ticket { sess: sess.id, job })
        } else if (ss.job_queue.len() as u32) < ss.limits.queue_depth {
            let ss = &mut self.sessions[s];
            ss.jobs.push(JobRecord {
                state: JobState::Queued(graph),
                enqueued_at,
            });
            ss.job_queue.push_back(job);
            Ok(Ticket { sess: sess.id, job })
        } else {
            self.sessions[s].meter.jobs_rejected += 1;
            Err(SubmitError::QueueFull)
        }
    }

    /// Live ops admitting `graph` adds — one per node plus the
    /// realignment copies its elementwise nodes insert — compared against
    /// [`TenantLimits::max_inflight_ops`] at both admission sites.
    fn graph_cost(&self, graph: &JobGraph) -> u32 {
        let copies = |n: &JobNode| match &n.req.kind {
            RequestKind::Elementwise { inputs, output, .. } => {
                self.base_color(inputs, *output).map_or(0, |base| {
                    inputs.iter().filter(|&&v| self.needs_copy(v, base)).count()
                })
            }
            _ => 0,
        };
        graph.nodes.iter().map(|n| 1 + copies(n)).sum::<usize>() as u32
    }

    /// Resolve a graph's nodes into real submissions; returns the
    /// session-op range `[base, end)` they produced (realignment copies
    /// included — they land inside the range).
    fn admit_graph(&mut self, sess: Session, graph: JobGraph) -> (u32, u32) {
        let base = self.sessions[sess.id as usize].ops.len() as u32;
        let mut handles: Vec<OpHandle> = Vec::with_capacity(graph.nodes.len());
        for JobNode { mut req, parents } in graph.nodes {
            // `after_op` edges first, graph parents second (`op.deps`
            // order is serialized).
            req.deps
                .extend(parents.iter().map(|&p| handles[p as usize]));
            handles.push(self.submit_request(sess, req));
        }
        let end = self.sessions[sess.id as usize].ops.len() as u32;
        (base, end)
    }

    /// Admit queued jobs of session `s` FIFO while they fit under the
    /// in-flight cap. Off the steady-state path (sessions enter
    /// `admit_pending` only when they hold queued jobs).
    #[cold]
    fn drain_admissions(&mut self, s: usize, now: u64) {
        loop {
            let ss = &self.sessions[s];
            let Some(&job) = ss.job_queue.front() else {
                return;
            };
            let JobState::Queued(ref g) = ss.jobs[job as usize].state else {
                self.sessions[s].job_queue.pop_front();
                continue;
            };
            if ss.live_ops.saturating_add(self.graph_cost(g)) > ss.limits.max_inflight_ops {
                return;
            }
            let ss = &mut self.sessions[s];
            ss.job_queue.pop_front();
            let rec = &mut ss.jobs[job as usize];
            let enqueued = rec.enqueued_at;
            let state = std::mem::replace(&mut rec.state, JobState::Admitted { base: 0, end: 0 });
            let JobState::Queued(graph) = state else {
                unreachable!("checked above")
            };
            ss.meter.admission_wait_cycles += now.saturating_sub(enqueued);
            let (base, end) = self.admit_graph(Session { id: s as u32 }, graph);
            self.sessions[s].jobs[job as usize].state = JobState::Admitted { base, end };
        }
    }

    /// True once `t`'s graph was admitted (left the job queue).
    pub fn ticket_admitted(&self, t: Ticket) -> bool {
        matches!(
            self.sessions[t.sess as usize].jobs[t.job as usize].state,
            JobState::Admitted { .. }
        )
    }

    /// True once every op `t`'s graph produced reached a terminal state.
    /// Queued (not yet admitted) tickets are never done.
    pub fn ticket_done(&self, t: Ticket) -> bool {
        let ss = &self.sessions[t.sess as usize];
        match ss.jobs[t.job as usize].state {
            JobState::Queued(_) => false,
            JobState::Admitted { base, end } => {
                ss.ops[base as usize..end as usize].iter().all(|o| o.done)
            }
        }
    }

    /// Per-tenant metering rows for `SimReport::tenants`, session order.
    pub(crate) fn tenant_reports(&self) -> Vec<TenantReport> {
        self.sessions
            .iter()
            .enumerate()
            .map(|(i, ss)| {
                let mut t = ss.meter.clone();
                t.session = i as u32;
                t
            })
            .collect()
    }

    // ---- snapshot codec -------------------------------------------------

    /// Serialize all mutable runtime state (snapshot support). Structural
    /// fields rebuilt by the constructor from the configuration (`n_ndas`,
    /// `mapper`, `cfg`, `nda_ranks`, `rank_partition`) are not stored.
    #[cold]
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.varint(self.arrays.len() as u64);
        for a in &self.arrays {
            encode_f32s(&a.backing, w);
            match &a.private {
                None => w.bool(false),
                Some(copies) => {
                    w.bool(true);
                    w.varint(copies.len() as u64);
                    for c in copies {
                        encode_f32s(c, w);
                    }
                }
            }
            w.varint(a.layouts.len() as u64);
            for l in &a.layouts {
                encode_layout(l, w);
            }
            w.varint(a.lines_per_rank);
            match &a.region {
                None => w.bool(false),
                Some(rg) => {
                    w.bool(true);
                    w.varint(rg.rows.len() as u64);
                    for row in &rg.rows {
                        w.varint(u64::from(row.index));
                    }
                    w.varint(rg.row_bytes);
                    match rg.color {
                        None => w.bool(false),
                        Some(c) => {
                            w.bool(true);
                            w.varint(u64::from(c.0));
                        }
                    }
                }
            }
            w.varint(a.len as u64);
            match a.shape {
                None => w.bool(false),
                Some((rows, cols)) => {
                    w.bool(true);
                    w.varint(rows as u64);
                    w.varint(cols as u64);
                }
            }
            w.varint(u64::from(a.color.0));
        }
        w.varint(self.sessions.len() as u64);
        for ss in &self.sessions {
            w.varint(ss.ops.len() as u64);
            for op in &ss.ops {
                match &op.kind {
                    OpKind::Elementwise {
                        op: oc,
                        scalars,
                        inputs,
                        output,
                    } => encode_elementwise(*oc, scalars, inputs, *output, w),
                    OpKind::Gemv { y, a, x } => {
                        w.u8(1);
                        w.varint(y.0 as u64);
                        w.varint(a.0 as u64);
                        w.varint(x.0 as u64);
                    }
                    OpKind::MacroAxpyRows { a_pvt, alphas, x } => {
                        w.u8(2);
                        w.varint(a_pvt.0 as u64);
                        encode_f32s(alphas, w);
                        w.varint(x.0 as u64);
                    }
                }
                w.varint(op.pending.len() as u64);
                for p in &op.pending {
                    w.varint(p.nda_idx as u64);
                    encode_instr(&p.instr, w);
                    encode_handle(p.op, w);
                    w.varint(p.chunk as u64);
                }
                w.varint(op.total_instrs);
                w.varint(op.completed_instrs);
                w.u32_slice(&op.chunk_sizes);
                w.u32_slice(&op.chunk_completed);
                w.varint(op.released_chunks as u64);
                w.bool(op.barrier);
                match op.result {
                    None => w.bool(false),
                    Some(v) => {
                        w.bool(true);
                        w.f32(v);
                    }
                }
                w.bool(op.done);
                w.varint(op.deps.len() as u64);
                for &d in &op.deps {
                    encode_handle(d, w);
                }
                w.bool(op.ordered);
                w.varint(op.instr_base);
                w.opt_cycle(op.first_staged_at);
                w.opt_cycle(op.finished_at);
                w.u8(OpStatus::encode(op.status));
                w.varint(u64::from(op.retries));
                w.varint(op.retry_after);
                w.opt_cycle(op.deadline_at);
                w.bool(op.fallback_host);
                w.varint(op.submitted_at);
            }
            w.varint(ss.first_live as u64);
            w.varint(ss.unordered_live as u64);
            ss.qos.encode(w);
            w.varint(ss.vtime);
            w.varint(u64::from(ss.limits.max_inflight_ops));
            w.varint(u64::from(ss.limits.queue_depth));
            encode_meter(&ss.meter, w);
            w.varint(ss.jobs.len() as u64);
            for job in &ss.jobs {
                w.varint(job.enqueued_at);
                match &job.state {
                    JobState::Queued(g) => {
                        w.u8(0);
                        encode_job_graph(g, w);
                    }
                    JobState::Admitted { base, end } => {
                        w.u8(1);
                        w.varint(u64::from(*base));
                        w.varint(u64::from(*end));
                    }
                }
            }
            w.varint(ss.job_queue.len() as u64);
            for &j in &ss.job_queue {
                w.varint(u64::from(j));
            }
        }
        w.varint(self.vnow[0]);
        w.varint(self.vnow[1]);
        w.varint(self.admit_pending.len() as u64);
        for &s in &self.admit_pending {
            w.varint(u64::from(s));
        }
        w.varint(self.finished_ops.len() as u64);
        for &h in &self.finished_ops {
            encode_handle(h, w);
        }
        w.varint(self.next_instr);
        self.allocator.encode_state(w);
        w.u32_slice(&self.rp_next_row);
        w.bool(self.pa_order_walk);
        w.varint(self.pe_activity.fmas);
        w.varint(self.pe_activity.buffer_accesses);
        w.varint(self.pe_activity.scratch_accesses);
        w.varint(self.host_comm_cycles);
        w.varint(self.realignment_copies);
        w.varint(u64::from(self.default_color.0));
        for &a in &self.alive {
            w.bool(a);
        }
        w.varint(self.counters.instr_retries);
        w.varint(self.counters.instr_timeouts);
        w.varint(self.counters.ops_failed);
        w.varint(self.counters.ops_timed_out);
        w.varint(self.counters.ops_dep_failed);
        w.varint(self.counters.host_fallbacks);
        w.varint(self.counters.ranks_quarantined);
        w.varint(self.counters.max_retry_backoff);
        w.varint(self.clock);
    }

    /// Overwrite this (freshly constructed) runtime from bytes written by
    /// [`encode_state`](Self::encode_state), validating every handle and
    /// array reference against the decoded tables.
    #[cold]
    pub(crate) fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n_arrays = r.varint_usize()?;
        self.arrays.clear();
        self.arrays.reserve(n_arrays.min(r.remaining()));
        for _ in 0..n_arrays {
            let backing = decode_f32s(r)?;
            let private = if r.bool()? {
                let n = r.varint_usize()?;
                if n != self.n_ndas {
                    return Err(CodecError::Corrupt("private copy count"));
                }
                let mut copies = Vec::with_capacity(n);
                for _ in 0..n {
                    copies.push(decode_f32s(r)?);
                }
                Some(copies)
            } else {
                None
            };
            let n_layouts = r.varint_usize()?;
            if n_layouts != self.n_ndas {
                return Err(CodecError::Corrupt("layout count"));
            }
            let mut layouts = Vec::with_capacity(n_layouts);
            for _ in 0..n_layouts {
                layouts.push(decode_layout(r)?);
            }
            let lines_per_rank = r.varint()?;
            let region = if r.bool()? {
                let n = r.varint_usize()?;
                let mut rows = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    rows.push(SystemRow {
                        index: r.varint_u32()?,
                    });
                }
                let row_bytes = r.varint()?;
                if row_bytes != self.cfg.system_row_bytes() {
                    return Err(CodecError::Corrupt("region row size"));
                }
                let color = if r.bool()? {
                    Some(Color(r.varint_u32()?))
                } else {
                    None
                };
                Some(Region {
                    rows,
                    row_bytes,
                    color,
                })
            } else {
                None
            };
            let len = r.varint_usize()?;
            let shape = if r.bool()? {
                Some((r.varint_usize()?, r.varint_usize()?))
            } else {
                None
            };
            let color = Color(r.varint_u32()?);
            self.arrays.push(ArrayData {
                backing,
                private,
                layouts,
                lines_per_rank,
                region,
                len,
                shape,
                color,
            });
        }
        let n_sessions = r.varint_usize()?;
        if n_sessions == 0 {
            return Err(CodecError::Corrupt("no sessions"));
        }
        self.sessions.clear();
        self.sessions.reserve(n_sessions.min(r.remaining()));
        for _ in 0..n_sessions {
            let n_ops = r.varint_usize()?;
            let mut ops = Vec::with_capacity(n_ops.min(r.remaining()));
            for _ in 0..n_ops {
                let kind = match r.u8()? {
                    0 => {
                        let (oc, scalars, inputs, output) = self.decode_elementwise(r)?;
                        OpKind::Elementwise {
                            op: oc,
                            scalars,
                            inputs,
                            output,
                        }
                    }
                    1 => OpKind::Gemv {
                        y: self.decode_vec_id(r)?,
                        a: self.decode_mat_id(r)?,
                        x: self.decode_vec_id(r)?,
                    },
                    2 => OpKind::MacroAxpyRows {
                        a_pvt: self.decode_vec_id(r)?,
                        alphas: decode_f32s(r)?,
                        x: self.decode_mat_id(r)?,
                    },
                    _ => return Err(CodecError::Corrupt("op kind tag")),
                };
                let n_pending = r.varint_usize()?;
                let mut pending = VecDeque::with_capacity(n_pending.min(r.remaining()));
                for _ in 0..n_pending {
                    let nda_idx = r.varint_usize()?;
                    if nda_idx >= self.n_ndas {
                        return Err(CodecError::Corrupt("pending NDA index"));
                    }
                    pending.push_back(PendingLaunch {
                        nda_idx,
                        instr: decode_instr(r)?,
                        op: decode_handle(r)?,
                        chunk: r.varint_usize()?,
                    });
                }
                let total_instrs = r.varint()?;
                let completed_instrs = r.varint()?;
                let chunk_sizes = r.u32_vec()?;
                let chunk_completed = r.u32_vec()?;
                if chunk_completed.len() != chunk_sizes.len() {
                    return Err(CodecError::Corrupt("chunk table length"));
                }
                let released_chunks = r.varint_usize()?;
                if released_chunks > chunk_sizes.len() {
                    return Err(CodecError::Corrupt("released chunks"));
                }
                let barrier = r.bool()?;
                let result = if r.bool()? { Some(r.f32()?) } else { None };
                let done = r.bool()?;
                let n_deps = r.varint_usize()?;
                let mut deps = Vec::with_capacity(n_deps.min(r.remaining()));
                for _ in 0..n_deps {
                    deps.push(decode_handle(r)?);
                }
                ops.push(OpState {
                    kind,
                    pending,
                    total_instrs,
                    completed_instrs,
                    chunk_sizes,
                    chunk_completed,
                    released_chunks,
                    barrier,
                    result,
                    done,
                    deps,
                    ordered: r.bool()?,
                    instr_base: r.varint()?,
                    first_staged_at: r.opt_cycle()?,
                    finished_at: r.opt_cycle()?,
                    status: OpStatus::decode(r.u8()?)?,
                    retries: r.varint_u32()?,
                    retry_after: r.varint()?,
                    deadline_at: r.opt_cycle()?,
                    fallback_host: r.bool()?,
                    submitted_at: r.varint()?,
                    dependents: Vec::new(),
                });
            }
            let first_live = r.varint_usize()?;
            let unordered_live = r.varint_usize()?;
            if first_live > ops.len() || unordered_live > ops.len() {
                return Err(CodecError::Corrupt("session watermarks"));
            }
            let qos = QosClass::decode(r)?;
            let vtime = r.varint()?;
            let limits = TenantLimits {
                max_inflight_ops: r.varint_u32()?,
                queue_depth: r.varint_u32()?,
            };
            let meter = decode_meter(r)?;
            let n_jobs = r.varint_usize()?;
            let mut jobs = Vec::with_capacity(n_jobs.min(r.remaining()));
            for _ in 0..n_jobs {
                let enqueued_at = r.varint()?;
                let state = match r.u8()? {
                    0 => JobState::Queued(self.decode_job_graph(r)?),
                    1 => {
                        let base = r.varint_u32()?;
                        let end = r.varint_u32()?;
                        if base > end || end as usize > ops.len() {
                            return Err(CodecError::Corrupt("admitted job range"));
                        }
                        JobState::Admitted { base, end }
                    }
                    _ => return Err(CodecError::Corrupt("job state tag")),
                };
                jobs.push(JobRecord { state, enqueued_at });
            }
            let n_queued = r.varint_usize()?;
            let mut job_queue = VecDeque::with_capacity(n_queued.min(r.remaining()));
            for _ in 0..n_queued {
                let j = r.varint_u32()?;
                if j as usize >= jobs.len() {
                    return Err(CodecError::Corrupt("job queue index"));
                }
                job_queue.push_back(j);
            }
            self.sessions.push(SessionState {
                ops,
                first_live,
                unordered_live,
                qos,
                vtime,
                sched: SchedState::Untracked,
                heap_stamp: 0,
                live_ops: 0,
                limits,
                jobs,
                job_queue,
                meter,
            });
        }
        // Handles may forward-reference sessions, so validate them only
        // now that the full table exists (queued job graphs carry
        // external-parent handles too).
        fn check_handle(sessions: &[SessionState], h: OpHandle) -> Result<(), CodecError> {
            let Some(target) = sessions.get(h.sess as usize) else {
                return Err(CodecError::Corrupt("handle session out of range"));
            };
            if h.idx as usize >= target.ops.len() {
                return Err(CodecError::Corrupt("handle op out of range"));
            }
            Ok(())
        }
        for ss in &self.sessions {
            for op in &ss.ops {
                for h in op.deps.iter().chain(op.pending.iter().map(|p| &p.op)) {
                    check_handle(&self.sessions, *h)?;
                }
            }
            for job in &ss.jobs {
                if let JobState::Queued(g) = &job.state {
                    for n in &g.nodes {
                        for &h in &n.req.deps {
                            check_handle(&self.sessions, h)?;
                        }
                    }
                }
            }
        }
        self.vnow[0] = r.varint()?;
        self.vnow[1] = r.varint()?;
        let n_admit = r.varint_usize()?;
        self.admit_pending.clear();
        for _ in 0..n_admit {
            let s = r.varint_u32()?;
            if s as usize >= self.sessions.len() {
                return Err(CodecError::Corrupt("admit-pending session"));
            }
            self.admit_pending.push_back(s);
        }
        let n_finished = r.varint_usize()?;
        self.finished_ops.clear();
        for _ in 0..n_finished {
            let h = decode_handle(r)?;
            let Some(target) = self.sessions.get(h.sess as usize) else {
                return Err(CodecError::Corrupt("finished-op session"));
            };
            if h.idx as usize >= target.ops.len() {
                return Err(CodecError::Corrupt("finished-op index"));
            }
            self.finished_ops.push_back(h);
        }
        self.next_instr = r.varint()?;
        self.allocator.decode_state(r)?;
        let rp = r.u32_vec()?;
        if rp.len() != self.n_ndas {
            return Err(CodecError::ConfigMismatch);
        }
        self.rp_next_row = rp;
        self.pa_order_walk = r.bool()?;
        self.pe_activity.fmas = r.varint()?;
        self.pe_activity.buffer_accesses = r.varint()?;
        self.pe_activity.scratch_accesses = r.varint()?;
        self.host_comm_cycles = r.varint()?;
        self.realignment_copies = r.varint()?;
        self.default_color = Color(r.varint_u32()?);
        for a in &mut self.alive {
            *a = r.bool()?;
        }
        self.counters.instr_retries = r.varint()?;
        self.counters.instr_timeouts = r.varint()?;
        self.counters.ops_failed = r.varint()?;
        self.counters.ops_timed_out = r.varint()?;
        self.counters.ops_dep_failed = r.varint()?;
        self.counters.host_fallbacks = r.varint()?;
        self.counters.ranks_quarantined = r.varint()?;
        self.counters.max_retry_backoff = r.varint()?;
        self.clock = r.varint()?;
        // `armed_deadlines` is derived state: recount live armed ops.
        self.armed_deadlines = 0;
        for ss in &self.sessions {
            for op in &ss.ops {
                if !op.done && op.deadline_at.is_some() {
                    self.armed_deadlines += 1;
                }
            }
        }
        // The ready index, reverse-dependency edges, and live-op gauges
        // are likewise derived — rebuild rather than serialize them.
        let mut dep_edges: Vec<(OpHandle, OpHandle)> = Vec::new();
        for (s, ss) in self.sessions.iter_mut().enumerate() {
            ss.live_ops = ss.ops.iter().filter(|o| !o.done).count() as u32;
            ss.sched = SchedState::Untracked;
            ss.heap_stamp = 0;
            for (i, op) in ss.ops.iter().enumerate() {
                if op.done {
                    continue;
                }
                let h = OpHandle {
                    sess: s as u32,
                    idx: i as u32,
                };
                for &d in &op.deps {
                    dep_edges.push((d, h));
                }
            }
        }
        for (d, h) in dep_edges {
            if !self.op(d).done {
                self.op_mut(d).dependents.push(h);
            }
        }
        self.ready[0].clear();
        self.ready[1].clear();
        self.wake.clear();
        for wl in &mut self.waitlists {
            wl.clear();
        }
        // Classify every session against infinite queue space: sessions
        // whose candidate is retry-held get exact wake-ups; the rest of
        // the stageable ones enter Ready. A Ready entry that proves
        // credit-blocked at the next real staging pass re-parks itself —
        // premature entries cost executed cycles, never events, so the
        // resumed report stays bit-identical.
        for s in 0..self.sessions.len() {
            if self
                .classify_and_park(s, &|_| usize::MAX, self.clock)
                .is_some()
            {
                self.ready_notify(s);
            }
        }
        Ok(())
    }

    #[cold]
    fn decode_vec_id(&self, r: &mut ByteReader<'_>) -> Result<VecId, CodecError> {
        let i = r.varint_usize()?;
        if i >= self.arrays.len() {
            return Err(CodecError::Corrupt("vector id out of range"));
        }
        Ok(VecId(i))
    }

    #[cold]
    fn decode_mat_id(&self, r: &mut ByteReader<'_>) -> Result<MatId, CodecError> {
        let i = r.varint_usize()?;
        if i >= self.arrays.len() {
            return Err(CodecError::Corrupt("matrix id out of range"));
        }
        Ok(MatId(i))
    }

    /// Decode an elementwise payload written by [`encode_elementwise`]
    /// (after its tag).
    #[cold]
    fn decode_elementwise(&self, r: &mut ByteReader<'_>) -> Result<ElementwiseParts, CodecError> {
        let op = decode_opcode(r)?;
        let scalars = decode_f32s(r)?;
        let n_in = r.varint_usize()?;
        let mut inputs = Vec::with_capacity(n_in.min(r.remaining()));
        for _ in 0..n_in {
            inputs.push(self.decode_vec_id(r)?);
        }
        let output = if r.bool()? {
            Some(self.decode_vec_id(r)?)
        } else {
            None
        };
        Ok((op, scalars, inputs, output))
    }

    #[cold]
    fn decode_job_graph(&self, r: &mut ByteReader<'_>) -> Result<JobGraph, CodecError> {
        let n_nodes = r.varint_usize()?;
        let mut nodes = Vec::with_capacity(n_nodes.min(r.remaining()));
        for node in 0..n_nodes {
            let kind = match r.u8()? {
                0 => {
                    let (op, scalars, inputs, output) = self.decode_elementwise(r)?;
                    RequestKind::Elementwise {
                        op,
                        scalars,
                        inputs,
                        output,
                    }
                }
                1 => RequestKind::Gemv {
                    y: self.decode_vec_id(r)?,
                    a: self.decode_mat_id(r)?,
                    x: self.decode_vec_id(r)?,
                },
                2 => {
                    let a_pvt = self.decode_vec_id(r)?;
                    let alphas = decode_f32s(r)?;
                    let x = self.decode_mat_id(r)?;
                    let samples_per_instr = r.varint_usize()?;
                    if samples_per_instr == 0 {
                        return Err(CodecError::Corrupt("samples per instr"));
                    }
                    RequestKind::AxpyRows {
                        a_pvt,
                        alphas,
                        x,
                        samples_per_instr,
                    }
                }
                _ => return Err(CodecError::Corrupt("job node kind tag")),
            };
            let opts = LaunchOpts {
                granularity_lines: if r.bool()? { Some(r.varint()?) } else { None },
                barrier_per_chunk: r.bool()?,
            };
            let n_parents = r.varint_usize()?;
            let mut parents = Vec::with_capacity(n_parents.min(r.remaining()));
            for _ in 0..n_parents {
                let p = r.varint_u32()?;
                if p as usize >= node {
                    return Err(CodecError::Corrupt("job node parent"));
                }
                parents.push(p);
            }
            let n_after = r.varint_usize()?;
            let mut deps = Vec::with_capacity(n_after.min(r.remaining()));
            for _ in 0..n_after {
                deps.push(decode_handle(r)?);
            }
            let req = OpRequest {
                kind,
                opts,
                deps,
                ordered: r.bool()?,
            };
            nodes.push(JobNode { req, parents });
        }
        Ok(JobGraph { nodes })
    }
}

/// The fields of an elementwise op kind: opcode, scalars, inputs,
/// output.
type ElementwiseParts = (Opcode, Vec<f32>, Vec<VecId>, Option<VecId>);

/// Tag and payload of an elementwise op kind: one wire shape shared by
/// the op record and the queued job node.
#[cold]
fn encode_elementwise(
    op: Opcode,
    scalars: &[f32],
    inputs: &[VecId],
    output: Option<VecId>,
    w: &mut ByteWriter,
) {
    w.u8(0);
    encode_opcode(op, w);
    encode_f32s(scalars, w);
    w.varint(inputs.len() as u64);
    for v in inputs {
        w.varint(v.0 as u64);
    }
    match output {
        None => w.bool(false),
        Some(v) => {
            w.bool(true);
            w.varint(v.0 as u64);
        }
    }
}

#[cold]
fn encode_job_graph(g: &JobGraph, w: &mut ByteWriter) {
    w.varint(g.nodes.len() as u64);
    for JobNode { req, parents } in &g.nodes {
        match &req.kind {
            RequestKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            } => encode_elementwise(*op, scalars, inputs, *output, w),
            RequestKind::Gemv { y, a, x } => {
                w.u8(1);
                w.varint(y.0 as u64);
                w.varint(a.0 as u64);
                w.varint(x.0 as u64);
            }
            RequestKind::AxpyRows {
                a_pvt,
                alphas,
                x,
                samples_per_instr,
            } => {
                w.u8(2);
                w.varint(a_pvt.0 as u64);
                encode_f32s(alphas, w);
                w.varint(x.0 as u64);
                w.varint(*samples_per_instr as u64);
            }
        }
        match req.opts.granularity_lines {
            None => w.bool(false),
            Some(g) => {
                w.bool(true);
                w.varint(g);
            }
        }
        w.bool(req.opts.barrier_per_chunk);
        w.varint(parents.len() as u64);
        for &p in parents {
            w.varint(u64::from(p));
        }
        w.varint(req.deps.len() as u64);
        for &h in &req.deps {
            encode_handle(h, w);
        }
        w.bool(req.ordered);
    }
}

#[cold]
fn encode_meter(m: &TenantReport, w: &mut ByteWriter) {
    // `session` is positional (re-stamped by `tenant_reports`), not
    // serialized.
    w.varint(m.ops_submitted);
    w.varint(m.ops_completed);
    w.varint(m.ops_failed);
    w.varint(m.jobs_rejected);
    w.varint(m.cycles_resident);
    w.varint(m.admission_wait_cycles);
    w.varint(m.launch_wait_cycles);
    w.varint(m.service_cycles);
}

#[cold]
fn decode_meter(r: &mut ByteReader<'_>) -> Result<TenantReport, CodecError> {
    Ok(TenantReport {
        session: 0,
        ops_submitted: r.varint()?,
        ops_completed: r.varint()?,
        ops_failed: r.varint()?,
        jobs_rejected: r.varint()?,
        cycles_resident: r.varint()?,
        admission_wait_cycles: r.varint()?,
        launch_wait_cycles: r.varint()?,
        service_cycles: r.varint()?,
    })
}

/// `deps_done` over a borrowed session table (borrow-splitting helper
/// for [`Runtime::classify_and_park`]).
fn deps_done_in(sessions: &[SessionState], deps: &[OpHandle]) -> bool {
    deps.iter()
        .all(|&d| sessions[d.sess as usize].ops[d.idx as usize].done)
}

/// Builder for one op submission: launch options, DAG edges, and ordering
/// mode, finished by [`submit`](OpBuilder::submit).
#[must_use = "an OpBuilder does nothing until .submit()"]
pub struct OpBuilder<'rt> {
    rt: &'rt mut Runtime,
    sess: Session,
    req: OpRequest,
    deadline: Option<u64>,
    fallback_host: bool,
}

impl<'rt> OpBuilder<'rt> {
    fn new(rt: &'rt mut Runtime, sess: Session, kind: RequestKind) -> Self {
        Self {
            rt,
            sess,
            req: OpRequest::new(kind),
            deadline: None,
            fallback_host: false,
        }
    }

    /// Replace the launch options wholesale.
    pub fn opts(mut self, opts: LaunchOpts) -> Self {
        self.req.opts = opts;
        self
    }

    /// Cache blocks per NDA instruction per rank (the Fig.-10 knob).
    pub fn granularity_lines(mut self, lines: u64) -> Self {
        self.req.opts.granularity_lines = Some(lines);
        self
    }

    /// Asynchronous macro launch: do not barrier between chunks.
    pub fn no_barrier(mut self) -> Self {
        self.req.opts.barrier_per_chunk = false;
        self
    }

    /// Add a DAG edge: this op's launches are held until `parent` has
    /// retired. `parent` may belong to any session.
    pub fn after(mut self, parent: OpHandle) -> Self {
        self.req.deps.push(parent);
        self
    }

    /// Opt out of session program order: gate this op on its
    /// [`after`](Self::after) edges alone, letting it overlap other ops
    /// of the same session.
    pub fn unordered(mut self) -> Self {
        self.req.ordered = false;
        self
    }

    /// Arm a per-op deadline: if the op has not finished `cycles` DRAM
    /// cycles after submission it concludes
    /// [`TimedOut`](OpStatus::TimedOut) (and the failure cascades along
    /// explicit DAG edges).
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.deadline = Some(cycles);
        self
    }

    /// Graceful degradation opt-in: when the op exhausts its retry
    /// budget on a faulted machine, re-execute it on the host cores
    /// (concluding [`Completed`](OpStatus::Completed) with results
    /// visible) instead of concluding [`Failed`](OpStatus::Failed).
    pub fn fallback_host(mut self) -> Self {
        self.fallback_host = true;
        self
    }

    /// Queue the op and return its handle.
    pub fn submit(self) -> OpHandle {
        let h = self.rt.submit_request(self.sess, self.req);
        self.rt
            .apply_recovery_opts(h, self.deadline, self.fallback_host);
        h
    }
}

impl Session {
    /// Build an elementwise Table-I operation. `inputs` are read
    /// operands; `output` (if any) is the written operand (in-place ops
    /// pass the same id in both).
    pub fn elementwise<'rt>(
        self,
        rt: &'rt mut Runtime,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
    ) -> OpBuilder<'rt> {
        OpBuilder::new(
            rt,
            self,
            RequestKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            },
        )
    }

    /// Build `y = A x` (one instruction per rank; A streams, x/y live in
    /// the scratchpad). `y` must not be `x`: submission panics otherwise.
    pub fn gemv<'rt>(self, rt: &'rt mut Runtime, y: VecId, a: MatId, x: VecId) -> OpBuilder<'rt> {
        OpBuilder::new(rt, self, RequestKind::Gemv { y, a, x })
    }

    /// Build the `parallel_for` macro op of Fig. 8: per-sample
    /// `a_pvt += alphas[i] * X[i]`, `samples_per_instr` samples batched
    /// per NDA instruction.
    pub fn axpy_rows<'rt>(
        self,
        rt: &'rt mut Runtime,
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    ) -> OpBuilder<'rt> {
        OpBuilder::new(
            rt,
            self,
            RequestKind::AxpyRows {
                a_pvt,
                alphas,
                x,
                samples_per_instr,
            },
        )
    }
}

/// Clamp a start line so timing walks never run past a layout (padding
/// tails reuse the final span; functional results are exact regardless).
fn x_layout_guard(a: &ArrayData, span: u64) -> u64 {
    a.layouts[0].lines().saturating_sub(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ChopimConfig, ChopimSystem};

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
