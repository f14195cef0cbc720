//! The integrated Chopim system: multi-core host + FR-FCFS controllers on
//! one side of the channels, per-rank NDA controllers with host-side
//! shadow FSMs on the other, sharing the same DRAM devices cycle by cycle.
//!
//! Arbitration follows the paper (§III-B, §III-D):
//!
//! * host commands always take priority — NDA controllers only use cycles
//!   (and ranks) the host leaves free, enforced by the device model;
//! * NDA writes are gated by the configured [`WriteIssuePolicy`];
//! * every NDA launch travels over the channel as control-register write
//!   transactions issued by the host controller (the Fig.-10 launch cost);
//! * a shadow copy of every rank's NDA FSM lives host-side and is stepped
//!   from observable events only; [`ChopimSystem::fsm_in_sync`] asserts
//!   bit-equality, demonstrating the replicated-FSM mechanism.
//!
//! ## Channel-sharded engine
//!
//! The machine is split along its natural hardware boundary into a
//! **front-end** (the OoO cores, the runtime, launch staging, the
//! CPU-clock divider, and shared-LLC accounting) and one
//! `ChannelShard` per memory channel (the channel's device state, host
//! MC, per-rank NDA controllers + shadow FSMs, launch records, and
//! fast-forward state). All cross-boundary traffic is typed,
//! cycle-stamped messages over bounded queues:
//!
//! * **ingress** (front-end → shard): core memory transactions and
//!   launch control-writes, delivered `ingress_latency` (+
//!   `packetized_latency`) cycles after they are produced;
//! * **fills** (shard → front-end): read completions, delivered when the
//!   data burst ends (≥ tCL + burst cycles after issue);
//! * **completions** (shard → front-end): NDA instruction completions,
//!   delivered `completion_latency` cycles after the FSM retires them
//!   (the host's status-poll pipeline).
//!
//! Because every shard→front-end path has a minimum delivery latency,
//! the exchange happens on a fixed **barrier grid** of
//! `W = min(tCL + burst, completion_latency)` cycles: the front-end runs
//! a window first (its outbound messages can even be consumed the same
//! cycle, since shards run after it), then every shard runs the same
//! window in turn, and the queues are exchanged at the barrier. Inside a
//! window each shard fast-forwards over provably idle stretches using a
//! **per-shard event horizon** computed from its actual state (MC queues
//! and wake hints, NDA FSM readiness, refresh timers, pending launch
//! deliveries, undelivered inbox messages). Shards never observe each
//! other mid-window and each carries its own policy RNG, so the schedule
//! is **deterministic by construction**: the naive and fast-forwarding
//! loops produce bit-identical [`SimReport`]s (enforced by
//! `crates/exp/tests/ff_lockstep.rs`; `crates/core/tests/horizon_props.rs`
//! property-checks horizon conservatism against the messages shards
//! actually emit). When every component is idle at a barrier, the
//! engine additionally leaps the whole machine to the global event
//! horizon, preserving the fast-forward throughput on idle-heavy
//! scenarios.
//!
//! The exchange itself is allocation-free in steady state (pinned by
//! `crates/core/tests/alloc_steady_state.rs`): ingress rides
//! double-buffered flat arenas that swap instead of copying, and
//! shard→front-end fills/completions arrive as per-shard runs merged in
//! one sort pass (`MergeQueue` in the `exchange` module).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use chopim_dram::codec::{fnv1a, read_framed, write_framed, ByteReader, ByteWriter, CodecError};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::trace::{encode_trace, TraceEvent};
use chopim_dram::{Channel, Cycle, DramConfig, DramStats, FaultPlan};
use chopim_host::{CoreConfig, MixId, OooCore, OooCoreState};
use chopim_mapping::color::{ColoredAllocator, Region};
use chopim_mapping::{presets, AddressMapper, PartitionedMapping};
use chopim_nda::snapshot::{decode_instr, encode_instr};

use crate::energy::{self, EnergyParams};
use crate::exchange::{MergeQueue, ShardInbound, COMPLETION_OK, COMPLETION_RANK_DEAD};
use crate::policy::WriteIssuePolicy;
use crate::report::{FaultReport, SimReport};
use crate::runtime::{decode_handle, encode_handle, OpHandle, PendingLaunch, Runtime, Session};
use crate::sched::{HostTransaction, PagePolicy, SchedulerKind, TxMeta};
use crate::shard::{ChannelShard, ShardParams};

/// What [`ChopimSystem::drive`] waits for.
///
/// The four shapes cover every drive pattern: one handle, an all-of
/// set, one session draining, or the whole machine draining.
#[derive(Debug, Clone)]
pub enum Waitable {
    /// One op has retired.
    Op(OpHandle),
    /// Every op in the set has retired.
    AllOf(Vec<OpHandle>),
    /// Every op submitted to the session has retired
    /// (session-quiescent).
    SessionIdle(Session),
    /// Every op of every session has retired (machine-quiescent). Note
    /// that active [streams](ChopimSystem::spawn_stream) relaunch on
    /// completion, so a machine with a live stream never quiesces.
    Quiescent,
}

impl Waitable {
    /// Wait for every handle in `ops`.
    pub fn all_of(ops: impl IntoIterator<Item = OpHandle>) -> Self {
        Waitable::AllOf(ops.into_iter().collect())
    }

    fn satisfied(&self, rt: &Runtime) -> bool {
        match self {
            Waitable::Op(h) => rt.op_done(*h),
            Waitable::AllOf(hs) => hs.iter().all(|&h| rt.op_done(h)),
            Waitable::SessionIdle(s) => rt.session_idle(*s),
            Waitable::Quiescent => rt.quiescent(),
        }
    }
}

impl From<OpHandle> for Waitable {
    fn from(h: OpHandle) -> Self {
        Waitable::Op(h)
    }
}

impl From<Vec<OpHandle>> for Waitable {
    fn from(hs: Vec<OpHandle>) -> Self {
        Waitable::AllOf(hs)
    }
}

impl From<Session> for Waitable {
    fn from(s: Session) -> Self {
        Waitable::SessionIdle(s)
    }
}

/// Handle to a resident op stream (see [`ChopimSystem::spawn_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// A stream's op generator: submits the next op of a resident workload.
type StreamGen = Box<dyn FnMut(&mut Runtime, Session) -> OpHandle + Send>;

/// A resident relaunching workload: whenever its current op retires, the
/// generator submits the next one — the paper's §VI methodology of
/// keeping the NDA side busy for a whole measurement window, now
/// per-session so independent tenants can stream concurrently.
struct StreamState {
    sess: Session,
    cur: OpHandle,
    make: StreamGen,
    completions: u64,
    active: bool,
}

/// CPU cycles per DRAM cycle, as a rational (4 GHz / 1.2 GHz = 10/3).
const CPU_CLOCK_NUM: u32 = 10;
const CPU_CLOCK_DEN: u32 = 3;

/// Shared LLC miss-status registers (Table II: 48).
const LLC_MSHRS: usize = 48;

/// Per-channel ingress queue capacity (transactions in flight between
/// the front-end and a shard's MC).
const INGRESS_CAP: usize = 64;

/// `CHOPIM_TRACE=<path>` enables event-trace capture and names the file
/// [`ChopimSystem::write_trace`] emits (see `docs/TRACE_FORMAT.md`).
#[cold]
fn trace_path_from_env() -> Option<PathBuf> {
    std::env::var_os("CHOPIM_TRACE")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Top-level configuration.
#[derive(Debug, Clone)]
pub struct ChopimConfig {
    /// Memory geometry/timing (Table II defaults).
    pub dram: DramConfig,
    /// Banks per rank reserved for the shared/NDA region (paper: 1;
    /// 0 = fully shared banks).
    pub reserved_banks: usize,
    /// NDA write-issue policy.
    pub policy: WriteIssuePolicy,
    /// Host application mix (None = no host traffic).
    pub mix: Option<MixId>,
    /// Explicit per-core profiles, overriding `mix` (used by the ML time
    /// model to run an SVRG-shaped host alongside the NDAs).
    pub custom_profiles: Option<Vec<chopim_host::WorkloadProfile>>,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// RNG seed (cores, policy coins).
    pub seed: u64,
    /// Control-register write transactions per NDA instruction launch.
    pub launch_writes_per_instr: u32,
    /// Per-rank NDA instruction queue depth.
    pub nda_queue_cap: usize,
    /// Rank-partitioning baseline (Fig. 14): dedicate the upper half of
    /// each channel's ranks to NDAs and hide them from the host mapping.
    pub rank_partition: bool,
    /// Assert shadow-FSM equality while running (cheap; on by default).
    pub verify_fsm: bool,
    /// Ablation: NDA operands walked in physical-address order instead of
    /// Chopim's contiguous-column layout (see `Runtime::pa_order_walk`).
    pub nda_pa_order_walk: bool,
    /// Host transaction scheduling discipline (ablation).
    pub scheduler: SchedulerKind,
    /// Host row-buffer policy (ablation).
    pub page_policy: PagePolicy,
    /// Packetized memory interface (HMC-like): host requests pay an extra
    /// per-direction serialization latency of this many DRAM cycles, but
    /// the memory-side controller owns all scheduling so no replicated
    /// FSMs or host-side signaling are needed (paper §III intro, §VIII:
    /// packetized DRAM suffers 2-4x idle latency). `0` = traditional DDR.
    pub packetized_latency: u32,
    /// Event-horizon fast-forwarding: when a component is provably idle,
    /// leap its clock to the earliest cycle anything can happen instead
    /// of ticking through the gap — per shard within lookahead windows,
    /// and machine-wide at window barriers. Produces bit-identical
    /// [`SimReport`]s to the naive cycle-by-cycle loop (enforced by the
    /// `ff_lockstep` equivalence tests); disable to run the naive loop.
    pub fast_forward: bool,
    /// Front-end → memory-controller ingress pipeline depth in DRAM
    /// cycles (the on-chip interconnect between the LLC and the MCs).
    /// `0` = same-cycle delivery, the pre-sharding behavior.
    pub ingress_latency: u32,
    /// NDA completion → host-visible delivery latency in DRAM cycles
    /// (the host polls rank status registers; completion is not
    /// observable instantaneously). Also the shard → front-end lookahead
    /// floor: together with the read-fill latency it bounds the
    /// engine's barrier window. Must be ≥ 1.
    pub completion_latency: u32,
    /// Ignored: the engine always runs its shards serially. Removed in
    /// the next change to the repository benchmark, which still sets it.
    #[deprecated(note = "ignored: shards always run serially")]
    #[doc(hidden)]
    pub sim_threads: usize,
    /// Ignored: the engine always runs every shard through every
    /// barrier window. Removed in the next change to the repository
    /// benchmark, which still sets it.
    #[deprecated(note = "ignored: every window is a barrier for every shard")]
    #[doc(hidden)]
    pub fixed_window: bool,
    /// When set, the machine records its event trace (DRAM commands,
    /// NDA launches, completions) from construction and encodes it to
    /// this file in the `docs/TRACE_FORMAT.md` binary format on the
    /// first [`ChopimSystem::report`] (or an explicit
    /// [`ChopimSystem::write_trace`]). Defaults to
    /// `CHOPIM_TRACE=<path>` (unset = no capture). Like the engine-mode
    /// knobs, this never affects simulated behavior.
    pub trace_path: Option<PathBuf>,
    /// Deterministic fault-injection plan (`docs/FAULTS.md`). The
    /// default, [`FaultPlan::NONE`], injects nothing and keeps the
    /// simulated behavior of the pre-fault-plane engine; a
    /// non-empty plan also activates the runtime's recovery layer
    /// (retries, in-flight timeouts, quarantine). Defaults to
    /// `CHOPIM_FAULTS=<spec>` (unset = empty).
    pub faults: FaultPlan,
    /// Instruction retries per op before it concludes `Failed` (or
    /// falls back to the host). Only read while `faults` is non-empty.
    pub retry_limit: u32,
    /// Base retry backoff in DRAM cycles; doubles per retry of the op.
    pub retry_backoff: u64,
    /// Upper bound on the exponential retry backoff, in DRAM cycles.
    pub retry_backoff_cap: u64,
    /// In-flight launch timeout in DRAM cycles: a launch whose
    /// completion has not arrived this long after egress is treated as
    /// lost (credit reclaimed, retry scheduled). `0` picks an
    /// automatic value comfortably above the longest injected delay.
    /// Only read while `faults` is non-empty.
    pub instr_timeout: u64,
}

impl Default for ChopimConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            dram: DramConfig::table_ii(),
            reserved_banks: 1,
            policy: WriteIssuePolicy::NextRankPredict,
            mix: None,
            custom_profiles: None,
            core: CoreConfig::default(),
            seed: 1,
            launch_writes_per_instr: 2,
            nda_queue_cap: 16,
            rank_partition: false,
            verify_fsm: true,
            nda_pa_order_walk: false,
            scheduler: SchedulerKind::default(),
            page_policy: PagePolicy::default(),
            packetized_latency: 0,
            fast_forward: true,
            ingress_latency: 0,
            // Matches the read-fill floor (tCL + burst = 20 for Table
            // II timing), so it costs no lookahead.
            completion_latency: 20,
            sim_threads: 1,
            fixed_window: false,
            trace_path: trace_path_from_env(),
            faults: FaultPlan::from_env(),
            retry_limit: 3,
            retry_backoff: 64,
            retry_backoff_cap: 4096,
            instr_timeout: 0,
        }
    }
}

impl ChopimConfig {
    /// The conservative-lookahead window: shards and the front-end may
    /// run this many cycles independently because no shard→front-end
    /// message can be delivered sooner after it is produced (read fills
    /// take ≥ tCL + burst cycles; completions take `completion_latency`).
    fn lookahead(&self) -> Cycle {
        let fill = Cycle::from(self.dram.timing.cl) + Cycle::from(self.dram.timing.bl);
        fill.min(Cycle::from(self.completion_latency.max(1))).max(1)
    }

    /// The in-flight launch timeout actually applied: the configured
    /// value, or (when 0) an automatic bound comfortably above the
    /// longest injected completion delay plus the delivery latency.
    fn effective_instr_timeout(&self) -> Cycle {
        if self.instr_timeout > 0 {
            return self.instr_timeout;
        }
        50_000
            .max(self.faults.completion_delay_cycles.saturating_mul(4))
            .max(self.faults.nda_hang_cycles.saturating_mul(4))
    }
}

/// One launch the front-end egressed and has not yet seen conclude
/// (fault recovery only): the completion resolves through this record —
/// retried launches carry fresh instruction ids, so the record, not id
/// arithmetic, recovers the op chunk — and if no completion arrives by
/// `deadline` the launch is declared lost and retried.
struct InflightRec {
    deadline: Cycle,
    id: u64,
    launch: PendingLaunch,
}

/// The complete simulated machine.
pub struct ChopimSystem {
    /// The configuration the system was built with.
    pub cfg: ChopimConfig,
    // chopim-lint: allow(snapshot) -- rebuilt from cfg by resume before state decode
    mapper: Arc<PartitionedMapping>,
    cores: Vec<OooCore>,
    // chopim-lint: allow(snapshot) -- re-derived deterministically from cfg during resume reconstruction (same allocator walk, same seed)
    core_regions: Vec<Region>,
    /// One shard per channel; always synced to `self.now` between public
    /// calls.
    shards: Vec<ChannelShard>,
    /// The lookahead window length (cycles between shard barriers).
    // chopim-lint: allow(snapshot) -- derived from cfg.lookahead() at construction
    window: Cycle,
    /// `(channel, rank)` per global NDA index (mirrors
    /// `runtime.nda_ranks()`).
    // chopim-lint: allow(snapshot) -- rank placement derived from cfg; decode validates message indices against it
    nda_local: Vec<(usize, usize)>,
    /// The runtime/API (allocate arrays, launch ops).
    pub runtime: Runtime,
    now: Cycle,
    cpu_accum: u32,
    cpu_cycles: u64,
    llc_outstanding: usize,
    /// Read fills on their way back to the cores: `(at, core, req)`.
    /// Shard runs are absorbed at barriers and sealed into pop order
    /// with one sort (see [`crate::exchange`]).
    fills: MergeQueue<(Cycle, usize, u64)>,
    /// NDA completions on their way to the runtime:
    /// `(at, instr, nda, (session, op), status)`.
    completions: MergeQueue<(Cycle, u64, usize, OpHandle, u8)>,
    /// Resident relaunching workloads, pumped by the drive loop.
    // chopim-lint: allow(snapshot) -- resident stream closures are not serializable; snapshot requires quiescence and resume starts with none
    streams: Vec<StreamState>,
    /// In-flight op → stream index: completion routing for stream
    /// resubmission. The drive loop drains the runtime's finished-op
    /// feed through this map instead of polling every stream every
    /// cycle, so the pump is O(completions), not O(streams).
    // chopim-lint: allow(snapshot) -- completion-routing map for resident streams; empty in a quiescent snapshot
    stream_of: BTreeMap<OpHandle, u32>,
    /// Per-channel outboxes: flat buffers of messages produced this
    /// window, swapped into the shard inboxes at the barrier (the
    /// double-buffered arena — see [`crate::exchange`]).
    egress: Vec<Vec<(Cycle, ShardInbound)>>,
    /// Per-channel ingress occupancy as of the last *grid-aligned*
    /// barrier (the front-end's admission view; shards publish their
    /// drain progress only on the window grid, which keeps admission
    /// independent of how `run` calls are sliced).
    ingress_seen: Vec<usize>,
    /// Messages handed to shard inboxes at off-grid barriers since the
    /// last grid-aligned one — still counted against the ingress
    /// capacity until the next grid refresh folds them into
    /// `ingress_seen`.
    ingress_unseen: Vec<usize>,
    launch_stage: VecDeque<PendingLaunch>,
    /// Fault recovery active (`cfg.faults` non-empty): completions
    /// resolve through `inflight` records and timeouts fire. Cached so
    /// the empty-plan hot path costs one branch.
    // chopim-lint: allow(snapshot) -- derived from cfg.faults at construction
    recovery_active: bool,
    /// Effective in-flight launch timeout (cycles).
    // chopim-lint: allow(snapshot) -- derived from cfg.effective_instr_timeout() at construction
    instr_timeout: Cycle,
    /// In-flight launch records, deadline-ordered (egress order).
    inflight: VecDeque<InflightRec>,
    /// Per-NDA launch credits: queue capacity minus instructions sent
    /// and not yet known complete. A conservative (delayed) view of the
    /// rank FSM's queue space — the shard-side queue can never overflow.
    nda_credit: Vec<usize>,
    next_launch: u64,
    nda_instrs_completed: u64,
    /// Front-end cycles actually executed (diagnostics).
    ticks_executed: u64,
    /// Front-end cycles leapt over (diagnostics).
    cycles_skipped: u64,
    // chopim-lint: allow(snapshot) -- a resumed system is never finalized; decode keeps the constructor false
    finalized: bool,
    /// Whether [`write_trace`](Self::write_trace) already ran (capture
    /// drains on encode, so [`report`](Self::report) must not flush an
    /// empty second file over an explicit write).
    // chopim-lint: allow(snapshot) -- trace-capture bookkeeping, not machine state; resume starts unflushed
    trace_flushed: bool,
}

impl ChopimSystem {
    /// Build the machine.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (these are programmer inputs).
    pub fn new(cfg: ChopimConfig) -> Self {
        cfg.dram.validate().expect("invalid DRAM config");
        assert!(
            !(cfg.rank_partition && cfg.reserved_banks > 0),
            "rank partitioning and bank partitioning are alternative modes"
        );
        assert!(
            cfg.completion_latency >= 1,
            "completion_latency must be >= 1"
        );

        // Host mapping: full geometry in Chopim mode; the lower half of
        // each channel's ranks in rank-partitioning mode.
        let (host_geom, nda_ranks): (DramConfig, Vec<(usize, usize)>) = if cfg.rank_partition {
            let half = (cfg.dram.ranks_per_channel / 2).max(1);
            let geom = cfg.dram.clone().with_ranks(half);
            let ndas = (0..cfg.dram.channels)
                .flat_map(|c| (half..cfg.dram.ranks_per_channel).map(move |r| (c, r)))
                .collect();
            (geom, ndas)
        } else {
            let ndas = (0..cfg.dram.channels)
                .flat_map(|c| (0..cfg.dram.ranks_per_channel).map(move |r| (c, r)))
                .collect();
            (cfg.dram.clone(), ndas)
        };
        let inner = presets::skylake_like(&host_geom);
        let reserved = if cfg.rank_partition {
            0
        } else {
            cfg.reserved_banks
        };
        let mapper = Arc::new(PartitionedMapping::new(&host_geom, inner, reserved));

        // OS allocator: host rows below the shared boundary.
        let host_rows = (host_geom.rows as u64 * (host_geom.banks_per_rank() - reserved) as u64
            / host_geom.banks_per_rank() as u64) as u32;
        let allocator = ColoredAllocator::new(&host_geom, mapper.inner(), host_rows);

        let mut runtime = Runtime::new(
            cfg.dram.clone(),
            mapper.clone(),
            allocator,
            nda_ranks.clone(),
            cfg.rank_partition,
        );
        runtime.pa_order_walk = cfg.nda_pa_order_walk;

        // Host cores and their footprints.
        let mut cores = Vec::new();
        let mut core_regions = Vec::new();
        let profiles = cfg
            .custom_profiles
            .clone()
            .or_else(|| cfg.mix.map(|m| m.profiles()));
        if let Some(profiles) = profiles {
            for (i, profile) in profiles.into_iter().enumerate() {
                let rows = (profile.footprint_bytes / host_geom.system_row_bytes()).max(1);
                let region = runtime.alloc_host_region(rows as usize);
                cores.push(OooCore::new(cfg.core, profile, cfg.seed ^ (i as u64) << 8));
                core_regions.push(region);
            }
        }

        runtime.configure_recovery(cfg.retry_limit, cfg.retry_backoff, cfg.retry_backoff_cap);

        let params = ShardParams {
            policy: cfg.policy,
            fast_forward: cfg.fast_forward,
            verify_fsm: cfg.verify_fsm,
            packetized_latency: Cycle::from(cfg.packetized_latency),
            completion_latency: Cycle::from(cfg.completion_latency.max(1)),
            record_events: false,
            faults: cfg.faults,
        };
        let shards: Vec<ChannelShard> = (0..cfg.dram.channels)
            .map(|c| {
                ChannelShard::build(
                    c,
                    &cfg.dram,
                    cfg.scheduler,
                    cfg.page_policy,
                    &nda_ranks,
                    cfg.nda_queue_cap,
                    cfg.seed,
                    params,
                )
            })
            .collect();

        let n = nda_ranks.len();
        let nchannels = cfg.dram.channels;
        let window = cfg.lookahead();
        let cfg_queue_cap = cfg.nda_queue_cap;
        let recovery_active = !cfg.faults.is_empty();
        let instr_timeout = cfg.effective_instr_timeout();
        let mut sys = Self {
            cfg,
            mapper,
            cores,
            core_regions,
            shards,
            window,
            nda_local: nda_ranks,
            runtime,
            now: 0,
            cpu_accum: 0,
            cpu_cycles: 0,
            llc_outstanding: 0,
            fills: MergeQueue::default(),
            completions: MergeQueue::default(),
            streams: Vec::new(),
            stream_of: BTreeMap::new(),
            egress: (0..nchannels).map(|_| Vec::new()).collect(),
            ingress_seen: vec![0; nchannels],
            ingress_unseen: vec![0; nchannels],
            launch_stage: VecDeque::new(),
            recovery_active,
            instr_timeout,
            inflight: VecDeque::new(),
            nda_credit: vec![cfg_queue_cap; n],
            next_launch: 0,
            nda_instrs_completed: 0,
            ticks_executed: 0,
            cycles_skipped: 0,
            finalized: false,
            trace_flushed: false,
        };
        if sys.cfg.trace_path.is_some() {
            sys.enable_trace_capture();
        }
        sys
    }

    /// Cycles executed one-by-one vs. leapt over, summed over the
    /// front-end and every shard (fast-forward telemetry).
    pub fn tick_stats(&self) -> (u64, u64) {
        let (mut t, mut s) = (self.ticks_executed, self.cycles_skipped);
        for shard in &self.shards {
            let (st, ss) = shard.tick_stats();
            t += st;
            s += ss;
        }
        (t, s)
    }

    /// Current DRAM cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// One channel's device state (stats inspection).
    pub fn channel(&self, ch: usize) -> &Channel {
        &self.shards[ch].channel
    }

    /// Aggregate device statistics across every channel (the monolithic
    /// `DramSystem::stats` view, reassembled over the shards).
    pub fn mem_stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for shard in &self.shards {
            s.add_channel(&shard.channel.stats);
        }
        s
    }

    /// Aggregate host IPC so far.
    pub fn host_ipc(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc()).sum()
    }

    /// Scheduler queue dump for one channel (debugging aid).
    pub fn explain_mc(&self, ch: usize) -> String {
        self.shards[ch]
            .mc
            .explain(&self.shards[ch].channel, self.now)
    }

    /// Test support for the horizon property suite
    /// (`tests/horizon_props.rs`): for every shard, the uncapped event
    /// horizon it currently claims, paired with the earliest outbound
    /// message stamp it actually produces when run `span` cycles forward
    /// in isolation (no further front-end traffic; messages already in
    /// its inbox still deliver). Conservatism demands `claim <= stamp`
    /// for every produced message. Running the shards ahead desyncs
    /// them from the front-end, so callers must discard the system
    /// afterwards.
    #[doc(hidden)]
    pub fn probe_shard_horizon_conservatism(&mut self, span: Cycle) -> Vec<(Cycle, Option<Cycle>)> {
        self.shards
            .iter_mut()
            .map(|sh| {
                let claim = sh.horizon();
                let fills_before = sh.fills_out.len();
                let comps_before = sh.completions_out.len();
                let target = sh.now + span;
                sh.run_to(target);
                let first = sh.fills_out[fills_before..]
                    .iter()
                    .map(|&(t, _, _)| t)
                    .chain(
                        sh.completions_out[comps_before..]
                            .iter()
                            .map(|&(t, _, _, _, _)| t),
                    )
                    .min();
                (claim, first)
            })
            .collect()
    }

    /// One-line internal state summary (debugging aid).
    pub fn debug_state(&self) -> String {
        format!(
            "llc={} fills={} completions={} core_out={:?} rq={:?} wq={:?} stage={} credits={:?}",
            self.llc_outstanding,
            self.fills.len(),
            self.completions.len(),
            self.cores
                .iter()
                .map(|c| c.outstanding_misses())
                .collect::<Vec<_>>(),
            self.shards
                .iter()
                .map(|s| s.mc.read_queue_len())
                .collect::<Vec<_>>(),
            self.shards
                .iter()
                .map(|s| s.mc.write_queue_len())
                .collect::<Vec<_>>(),
            self.launch_stage.len(),
            self.nda_credit,
        )
    }

    /// Free slots in channel `ch`'s ingress queue, as admissible by the
    /// front-end this window: occupancy at the last grid barrier, plus
    /// everything pushed since (whether still in the outbox or already
    /// transferred at an off-grid barrier).
    fn ingress_free(&self, ch: usize) -> usize {
        INGRESS_CAP
            .saturating_sub(self.ingress_seen[ch] + self.ingress_unseen[ch] + self.egress[ch].len())
    }

    /// One front-end cycle at `self.now`: deliver due shard messages,
    /// step the cores, stage launches. The caller advances `self.now`.
    fn fe_tick(&mut self) {
        let now = self.now;
        self.ticks_executed += 1;
        self.runtime.clock = now;

        // 1. NDA completions that became host-visible.
        while let Some(&(t, id, nda, tag, status)) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            if self.recovery_active {
                self.resolve_completion(id, tag, status, now);
            } else {
                debug_assert_eq!(status, COMPLETION_OK);
                self.nda_credit[nda] += 1;
                self.runtime.credit_returned(nda);
                self.nda_instrs_completed += 1;
                let _ = self.runtime.complete_instr(tag, id, now);
            }
        }

        // 1b. In-flight launch timeouts (fault recovery): a launch whose
        // completion is overdue is declared lost — its credit comes back
        // and the runtime schedules a retry. Deadlines are egress-ordered,
        // so only the queue front needs checking.
        if self.recovery_active {
            while self.inflight.front().is_some_and(|rec| rec.deadline <= now) {
                let rec = self.inflight.pop_front().expect("checked");
                self.nda_credit[rec.launch.nda_idx] += 1;
                self.runtime.credit_returned(rec.launch.nda_idx);
                self.runtime.counters.instr_timeouts += 1;
                self.runtime.instr_failed(rec.launch, now, false);
            }
        }
        // Per-op deadlines (free while none are armed; independent of
        // fault injection — `OpBuilder::deadline` works on any machine).
        self.runtime.check_deadlines(now);

        // 2. Read fills due at the cores.
        while let Some(&(t, core, req)) = self.fills.peek() {
            if t > now {
                break;
            }
            self.fills.pop();
            self.cores[core].fill(req);
            self.llc_outstanding -= 1;
        }

        // 3. CPU cycles (4 GHz vs 1.2 GHz bus).
        self.cpu_accum += CPU_CLOCK_NUM;
        while self.cpu_accum >= CPU_CLOCK_DEN {
            self.cpu_accum -= CPU_CLOCK_DEN;
            self.cpu_cycles += 1;
            self.cpu_step(now);
        }

        // 4. Stage at most one NDA instruction launch per cycle. The
        // pre-stage pass first expires retry wake-ups and drains pending
        // job admissions, so ops admitted by a completion this very cycle
        // are stageable in the same arbitration pass.
        self.runtime.pre_stage(now);
        if self.launch_stage.is_empty() {
            let Self {
                runtime,
                nda_credit,
                launch_stage,
                ..
            } = self;
            runtime.next_launches(|i| nda_credit[i], 1, now, launch_stage);
        }
        if self.recovery_active {
            // Staged heads can go stale under recovery: their op may have
            // concluded (timeout/failure), or their target NDA may have
            // been quarantined since staging.
            while self
                .launch_stage
                .front()
                .is_some_and(|h| self.runtime.op_done(h.op))
            {
                self.launch_stage.pop_front();
            }
            if let Some(cur) = self.launch_stage.front().map(|h| h.nda_idx) {
                let red = self.runtime.redirect_live(cur);
                if red != cur {
                    self.launch_stage.front_mut().expect("checked").nda_idx = red;
                }
            }
        }
        if let Some(head) = self.launch_stage.front() {
            let (ch, rank) = self.nda_local[head.nda_idx];
            let k = self.cfg.launch_writes_per_instr.max(1);
            // The launch occupies k write slots plus its payload
            // side-band in the ingress queue.
            #[allow(clippy::collapsible_if)]
            if self.ingress_free(ch) > k as usize {
                let head = self.launch_stage.pop_front().expect("checked");
                if self.recovery_active {
                    self.inflight.push_back(InflightRec {
                        deadline: now + self.instr_timeout,
                        id: head.instr.id,
                        launch: head.clone(),
                    });
                }
                let id = self.next_launch;
                self.next_launch += 1;
                let delay = Cycle::from(self.cfg.ingress_latency)
                    + Cycle::from(self.cfg.packetized_latency);
                let local = self.shards[ch].local_of(rank);
                self.egress[ch].push((
                    now + delay,
                    ShardInbound::Launch {
                        id,
                        nda_local: local,
                        instr: head.instr,
                        writes: k,
                        tag: head.op,
                    },
                ));
                // Control-register writes: a fixed row in the top bank.
                let ctrl_row = (self.cfg.dram.rows - 1) as u32;
                let flat = self.cfg.dram.banks_per_rank() - 1;
                for w in 0..k {
                    let addr = chopim_dram::DramAddress {
                        channel: ch,
                        rank,
                        bankgroup: flat / self.cfg.dram.banks_per_group,
                        bank: flat % self.cfg.dram.banks_per_group,
                        row: ctrl_row,
                        col: (id as u32 * k + w) % self.cfg.dram.lines_per_row() as u32,
                    };
                    self.egress[ch].push((
                        now + delay,
                        ShardInbound::Tx(HostTransaction {
                            addr,
                            is_write: true,
                            meta: TxMeta::Launch { launch: id },
                            arrival: now,
                        }),
                    ));
                }
                self.nda_credit[head.nda_idx] -= 1;
            }
        }
    }

    /// Resolve a delivered completion against the in-flight records
    /// (fault recovery): the record — not instruction-id arithmetic —
    /// recovers the op chunk, because retried launches carry fresh ids.
    /// A completion with no record (its launch already timed out and was
    /// resolved) is an orphan and is dropped; its credit came back at
    /// timeout time.
    #[cold]
    fn resolve_completion(&mut self, id: u64, tag: OpHandle, status: u8, now: Cycle) {
        let Some(pos) = self.inflight.iter().position(|rec| rec.id == id) else {
            return;
        };
        let rec = self.inflight.remove(pos).expect("checked");
        self.nda_credit[rec.launch.nda_idx] += 1;
        self.runtime.credit_returned(rec.launch.nda_idx);
        if status == COMPLETION_OK {
            self.nda_instrs_completed += 1;
            let _ = self.runtime.instr_completed_via(tag, rec.launch.chunk, now);
        } else {
            if status == COMPLETION_RANK_DEAD {
                self.runtime.quarantine(rec.launch.nda_idx);
            }
            self.runtime
                .instr_failed(rec.launch, now, status == COMPLETION_RANK_DEAD);
        }
    }

    fn cpu_step(&mut self, now: Cycle) {
        let Self {
            cores,
            core_regions,
            mapper,
            llc_outstanding,
            egress,
            ingress_seen,
            ingress_unseen,
            cfg,
            ..
        } = self;
        let delay = Cycle::from(cfg.ingress_latency) + Cycle::from(cfg.packetized_latency);
        for (i, core) in cores.iter_mut().enumerate() {
            let region = &core_regions[i];
            let mut sink = |req: chopim_host::MemRequest| -> bool {
                let offset = (req.line * 64) % region.len_bytes();
                let d = mapper.map_pa(region.pa_of(offset));
                let tx = if req.is_write {
                    HostTransaction {
                        addr: d,
                        is_write: true,
                        meta: TxMeta::CoreWrite,
                        arrival: now,
                    }
                } else {
                    if *llc_outstanding >= LLC_MSHRS {
                        return false;
                    }
                    HostTransaction {
                        addr: d,
                        is_write: false,
                        meta: TxMeta::CoreRead {
                            core: i,
                            req: req.id,
                        },
                        arrival: now,
                    }
                };
                // Bounded ingress: the front-end's occupancy view is its
                // own pushes plus the shard's drain progress as of the
                // last grid-aligned barrier.
                let used =
                    ingress_seen[d.channel] + ingress_unseen[d.channel] + egress[d.channel].len();
                if used >= INGRESS_CAP {
                    return false;
                }
                egress[d.channel].push((now + delay, ShardInbound::Tx(tx)));
                if !tx.is_write {
                    *llc_outstanding += 1;
                }
                true
            };
            core.cpu_cycle(&mut sink);
        }
    }

    /// Earliest cycle at or after `self.now` at which the front-end
    /// could act, assuming no new shard messages (those are exchanged at
    /// barriers, which re-compute horizons).
    fn fe_horizon(&self) -> Cycle {
        let now = self.now;
        if self.cores.iter().any(|c| !c.is_inert()) {
            return now;
        }
        if !self.launch_stage.is_empty() {
            return now;
        }
        if self.runtime.has_pending_admissions() {
            return now;
        }
        if self.runtime.launch_ready() {
            return now;
        }
        let mut h = Cycle::MAX;
        if let Some(&(t, _, _, _, _)) = self.completions.peek() {
            h = h.min(t);
        }
        if let Some(&(t, _, _)) = self.fills.peek() {
            h = h.min(t);
        }
        // Recovery wake sources must be cycle-exact on every engine:
        // in-flight timeouts, retry-hold expiries, and armed deadlines.
        if let Some(rec) = self.inflight.front() {
            h = h.min(rec.deadline);
        }
        if let Some(w) = self.runtime.next_recovery_wake(now) {
            h = h.min(w);
        }
        h.max(now)
    }

    /// Leap the front-end to `target`: the CPU clock divider advances in
    /// closed form and inert cores bulk-advance their counters.
    fn fe_skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now);
        let n = target - self.now;
        self.cycles_skipped += n;
        let total = u64::from(self.cpu_accum) + u64::from(CPU_CLOCK_NUM) * n;
        let steps = total / u64::from(CPU_CLOCK_DEN);
        self.cpu_accum = (total % u64::from(CPU_CLOCK_DEN)) as u32;
        self.cpu_cycles += steps;
        for core in &mut self.cores {
            core.advance_inert(steps);
        }
        self.now = target;
        self.runtime.clock = target;
    }

    /// In fast-forward mode, leap the front-end to its horizon within
    /// the current window (never past `limit`).
    fn fe_maybe_skip(&mut self, limit: Cycle) {
        if !self.cfg.fast_forward || self.now >= limit {
            return;
        }
        let h = self.fe_horizon().min(limit);
        if h > self.now {
            self.fe_skip_to(h);
        }
    }

    /// The end of the current lookahead window, clamped to `limit`.
    /// Windows lie on an absolute grid so the schedule (and therefore
    /// the report) is independent of how `run` calls are sliced.
    fn window_end(&self, limit: Cycle) -> Cycle {
        ((self.now / self.window + 1) * self.window).min(limit)
    }

    /// Barrier: hand this window's outbound messages to the shards, run
    /// every shard up to `target` and collect its outboxes. The ingress
    /// occupancy view is refreshed only at *grid-aligned* barriers: an
    /// early-exit barrier (a stop predicate firing mid-window, or
    /// [`tick`](Self::tick)) must not let the front-end observe shard
    /// drain progress sooner than an unsliced run would, or the schedule
    /// — and the report — would depend on how `run` calls are sliced.
    fn advance_shards(&mut self, target: Cycle) {
        let on_grid = target.is_multiple_of(self.window);
        perfcount::bump(Counter::Barriers);
        let mut exchanged = 0u64;
        for (ch, q) in self.egress.iter_mut().enumerate() {
            exchanged += q.len() as u64;
            if !on_grid {
                self.ingress_unseen[ch] += q.len();
            }
            // Double-buffer handoff: the shard gets the full buffer, the
            // front-end keeps the shard's drained one for next window.
            self.shards[ch].inbox.absorb(q);
        }
        perfcount::add(Counter::WindowsExecuted, self.shards.len() as u64);
        for shard in &mut self.shards {
            let prev = perfcount::set_scope(1 + shard.channel_idx());
            shard.run_to(target);
            perfcount::hi(Counter::ArenaHighWater, shard.inbox_high_water() as u64);
            perfcount::set_scope(prev);
            exchanged += (shard.fills_out.len() + shard.completions_out.len()) as u64;
            self.fills.absorb_run(&mut shard.fills_out);
            self.completions.absorb_run(&mut shard.completions_out);
            if on_grid {
                self.ingress_seen[shard.channel_idx()] = shard.inbox.len();
                self.ingress_unseen[shard.channel_idx()] = 0;
            }
        }
        self.fills.seal();
        self.completions.seal();
        perfcount::add(Counter::MessagesExchanged, exchanged);
    }

    /// At a barrier (shards synced to `self.now`), leap the whole
    /// machine to the global event horizon when everything is provably
    /// idle — the cross-window fast-forward that keeps idle-heavy
    /// scenarios nearly free.
    fn maybe_global_skip(&mut self, limit: Cycle) {
        if !self.cfg.fast_forward || self.now >= limit {
            return;
        }
        let mut h = self.fe_horizon();
        if h <= self.now {
            return;
        }
        for shard in &mut self.shards {
            h = h.min(shard.horizon());
            if h <= self.now {
                return;
            }
        }
        let h = h.min(limit);
        if h > self.now {
            for shard in &mut self.shards {
                let prev = perfcount::set_scope(1 + shard.channel_idx());
                perfcount::add(Counter::HorizonLeapCycles, h - shard.now);
                perfcount::set_scope(prev);
                shard.skip_to(h);
            }
            self.fe_skip_to(h);
        }
    }

    /// Advance one DRAM cycle (front-end and every shard).
    ///
    /// This is the single-cycle convenience wrapper; it synchronizes the
    /// shards every cycle, so prefer [`run`](Self::run) (which barriers
    /// once per lookahead window) for anything longer than a probe.
    pub fn tick(&mut self) {
        self.fe_tick();
        self.now += 1;
        self.advance_shards(self.now);
    }

    /// Pump streams off the runtime's finished-op feed: a stream whose
    /// current op has retired submits its next op immediately, so
    /// staging resumes on the very next front-end cycle — the same
    /// cadence the old poll-every-stream loop enforced, but costed per
    /// completion event instead of per stream per cycle (the pump is
    /// what keeps thousand-stream scenarios O(active)). An op that
    /// concludes instantly inside its own resubmission re-enters the
    /// feed, so chains drain in one call.
    fn pump_streams(
        streams: &mut [StreamState],
        stream_of: &mut BTreeMap<OpHandle, u32>,
        rt: &mut Runtime,
    ) {
        while let Some(h) = rt.pop_finished() {
            let Some(si) = stream_of.remove(&h) else {
                continue;
            };
            let st = &mut streams[si as usize];
            if !st.active {
                continue;
            }
            st.completions += 1;
            st.cur = (st.make)(rt, st.sess);
            stream_of.insert(st.cur, si);
        }
    }

    /// The engine driver behind every public drive entry point: advance
    /// in lookahead windows until `end`, stopping as soon as `ctrl`
    /// returns `true`. `ctrl` may mutate the runtime and is re-evaluated
    /// around every front-end cycle — a stop-triggering cycle is never
    /// skipped past, so the consumed-cycle count matches the naive loop
    /// — and shards always end synced to `self.now`.
    fn drive_loop(&mut self, end: Cycle, ctrl: &mut dyn FnMut(&mut Runtime) -> bool) {
        'outer: while self.now < end {
            Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
            if ctrl(&mut self.runtime) {
                break;
            }
            let target = self.window_end(end);
            while self.now < target {
                self.fe_tick();
                self.now += 1;
                Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
                if ctrl(&mut self.runtime) {
                    self.advance_shards(self.now);
                    break 'outer;
                }
                self.fe_maybe_skip(target);
            }
            self.advance_shards(self.now);
            Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
            if ctrl(&mut self.runtime) {
                break;
            }
            self.maybe_global_skip(end);
        }
    }

    /// Run for `cycles` DRAM cycles (pumping any active streams).
    pub fn run(&mut self, cycles: Cycle) {
        self.drive_loop(self.now + cycles, &mut |_| false);
    }

    /// Drive the machine until `until` is satisfied (or `max` cycles
    /// elapse). Returns the cycles consumed.
    ///
    /// This is the single drive entry point the old bespoke loops
    /// collapsed into: pass an [`OpHandle`] to wait for one op, a
    /// `Vec<OpHandle>` / [`Waitable::all_of`] for a set, a [`Session`]
    /// for session-quiescence, or [`Waitable::Quiescent`] for the whole
    /// machine.
    pub fn drive(&mut self, until: impl Into<Waitable>, max: Cycle) -> Cycle {
        let until = until.into();
        let start = self.now;
        self.drive_loop(start.saturating_add(max), &mut |rt| until.satisfied(rt));
        debug_assert!(
            !(matches!(until, Waitable::Quiescent) && self.runtime.quiescent())
                || self.launch_stage.is_empty(),
            "quiescent runtime implies an empty launch stage"
        );
        self.now - start
    }

    /// Spawn a resident relaunching workload on `sess`: `make` submits
    /// one op; whenever it retires, `make` is called again — keeping the
    /// tenant's traffic live for a whole measurement window (the §VI
    /// methodology). Streams are pumped by [`run`](Self::run) and
    /// [`drive`](Self::drive); concurrent streams on different sessions
    /// share the machine under the runtime's fair-share arbitration.
    pub fn spawn_stream(
        &mut self,
        sess: Session,
        mut make: impl FnMut(&mut Runtime, Session) -> OpHandle + Send + 'static,
    ) -> StreamId {
        let cur = make(&mut self.runtime, sess);
        self.streams.push(StreamState {
            sess,
            cur,
            make: Box::new(make),
            completions: 0,
            active: true,
        });
        let id = self.streams.len() - 1;
        self.stream_of.insert(cur, id as u32);
        StreamId(id)
    }

    /// Ops the stream has completed so far (the in-flight op counts only
    /// once it retires).
    pub fn stream_completions(&self, id: StreamId) -> u64 {
        self.streams[id.0].completions
    }

    /// Stop relaunching: the stream's in-flight op still runs to
    /// completion, but nothing new is submitted. Returns the completion
    /// count.
    pub fn stop_stream(&mut self, id: StreamId) -> u64 {
        self.streams[id.0].active = false;
        self.stream_of.remove(&self.streams[id.0].cur);
        self.streams[id.0].completions
    }

    /// True while every host-side shadow FSM matches its rank's FSM.
    pub fn fsm_in_sync(&self) -> bool {
        self.shards.iter().all(|s| s.fsm_in_sync())
    }

    /// Build the metrics report for the window `[0, now)`.
    ///
    /// The first call also flushes the captured event trace to
    /// [`ChopimConfig::trace_path`] if one is configured; a write
    /// failure warns on stderr rather than aborting the run.
    pub fn report(&mut self) -> SimReport {
        if !self.finalized {
            for shard in &mut self.shards {
                shard.channel.stats.finalize(self.now);
            }
            self.finalized = true;
            if let Err(e) = self.flush_trace_once() {
                eprintln!(
                    "[trace] failed to write {:?}: {e}",
                    self.cfg
                        .trace_path
                        .as_deref()
                        .unwrap_or(std::path::Path::new("?"))
                );
            }
        }
        let dram = self.mem_stats();
        let per_core_ipc: Vec<f64> = self.cores.iter().map(|c| c.ipc()).collect();
        let host_ipc = per_core_ipc.iter().sum();
        let seconds = self.now as f64 / 1.2e9;
        let nda_bytes = (dram.reads_nda + dram.writes_nda) * 64;
        let host_bytes = (dram.reads_host + dram.writes_host) * 64;
        let core_bytes: u64 = self
            .cores
            .iter()
            .map(|c| (c.reads_sent() + c.writes_sent()) * 64)
            .sum();

        // Idealized NDA bandwidth: all rank cycles the host leaves idle.
        let mut ideal_cycles = 0u64;
        let mut idle_histograms = Vec::new();
        for &(c, r) in self.runtime.nda_ranks() {
            let rs = &self.shards[c].channel.stats.ranks[r];
            ideal_cycles += self.now.saturating_sub(rs.host_data_cycles);
            idle_histograms.push(rs.idle.clone());
        }
        // Each busy data cycle moves `line_bytes / bl` bytes; utilization
        // is the cycle ratio.
        let nda_bw_utilization = if ideal_cycles == 0 {
            0.0
        } else {
            dram.nda_data_cycles as f64 / ideal_cycles as f64
        };

        let n_pes = self.cfg.dram.chips_per_rank * self.runtime.nda_ranks().len();
        let energy = energy::compute(
            &EnergyParams::default(),
            &dram,
            &self.runtime.pe_activity,
            self.now,
            self.cfg.dram.line_bytes(),
            n_pes,
        );
        let (hits, misses) = self.shards.iter().fold((0, 0), |(h, m), s| {
            (h + s.mc.row_hits(), m + s.mc.row_misses)
        });
        let (lat, nreads) = self.shards.iter().fold((0, 0), |(l, n), s| {
            (l + s.mc.read_latency_sum, n + s.mc.reads_completed)
        });
        SimReport {
            cycles: self.now,
            cpu_cycles: self.cpu_cycles,
            host_ipc,
            per_core_ipc,
            nda_bytes,
            nda_bw_gbs: if seconds > 0.0 {
                nda_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            host_bw_gbs: if seconds > 0.0 {
                host_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            core_bw_gbs: if seconds > 0.0 {
                core_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            nda_bw_utilization,
            idle_histograms,
            host_row_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            avg_read_latency: if nreads > 0 {
                lat as f64 / nreads as f64
            } else {
                0.0
            },
            dram,
            energy,
            nda_instrs_completed: self.nda_instrs_completed,
            nda_write_throttle_stalls: self
                .shards
                .iter()
                .flat_map(|s| s.ndas.iter())
                .map(|n| n.write_throttle_stalls)
                .sum(),
            faults: self.fault_report(),
            tenants: self.runtime.tenant_reports(),
        }
    }

    /// Injection counters summed over shards plus the runtime's
    /// recovery-side accounting.
    #[cold]
    fn fault_report(&self) -> FaultReport {
        let mut fr = FaultReport::default();
        for shard in &self.shards {
            shard.add_fault_counts(&mut fr);
        }
        let rc = self.runtime.recovery_counters();
        fr.instr_retries = rc.instr_retries;
        fr.instr_timeouts = rc.instr_timeouts;
        fr.ops_failed = rc.ops_failed;
        fr.ops_timed_out = rc.ops_timed_out;
        fr.ops_dep_failed = rc.ops_dep_failed;
        fr.host_fallbacks = rc.host_fallbacks;
        fr.ranks_quarantined = rc.ranks_quarantined;
        fr.max_retry_backoff = rc.max_retry_backoff;
        fr
    }

    // --- Snapshot / restore -------------------------------------------

    /// Stable fingerprint of the *semantic* configuration: every knob
    /// that shapes machine structure or simulated behavior, and none of
    /// the engine-mode knobs (`fast_forward`, `verify_fsm`,
    /// `trace_path`) — a snapshot captured under one engine mode may
    /// legitimately resume under another, since all modes produce
    /// bit-identical schedules.
    #[cold]
    fn snapshot_fingerprint(cfg: &ChopimConfig) -> u64 {
        let desc = format!(
            "dram={:016x} reserved={} policy={:?} mix={:?} profiles={:?} core={:?} seed={} \
             launch_writes={} queue_cap={} rank_partition={} pa_order={} sched={:?} page={:?} \
             packetized={} ingress={} completion={} faults={:?} retry={}/{}/{} timeout={}",
            cfg.dram.state_fingerprint(),
            cfg.reserved_banks,
            cfg.policy,
            cfg.mix,
            cfg.custom_profiles,
            cfg.core,
            cfg.seed,
            cfg.launch_writes_per_instr,
            cfg.nda_queue_cap,
            cfg.rank_partition,
            cfg.nda_pa_order_walk,
            cfg.scheduler,
            cfg.page_policy,
            cfg.packetized_latency,
            cfg.ingress_latency,
            cfg.completion_latency,
            cfg.faults,
            cfg.retry_limit,
            cfg.retry_backoff,
            cfg.retry_backoff_cap,
            cfg.effective_instr_timeout(),
        );
        fnv1a(desc.as_bytes())
    }

    /// Capture the complete deterministic machine state as a versioned,
    /// checksummed binary image (`docs/SNAPSHOT_FORMAT.md`). Resuming
    /// the image with [`resume`](Self::resume) — under *any* engine mode
    /// — continues bit-identically to a run that never snapshotted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ActiveStreams`] if any op stream was spawned
    /// (stream generators are opaque closures and cannot be captured);
    /// [`SnapshotError::Finalized`] after [`report`](Self::report) has
    /// finalized the statistics.
    #[cold]
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        if !self.streams.is_empty() {
            return Err(SnapshotError::ActiveStreams);
        }
        if self.finalized {
            return Err(SnapshotError::Finalized);
        }
        let mut w = ByteWriter::new();
        w.u64(Self::snapshot_fingerprint(&self.cfg));
        w.varint(self.now);
        w.u32(self.cpu_accum);
        w.varint(self.cpu_cycles);
        w.varint(self.llc_outstanding as u64);
        w.bool(self.fills.is_dirty());
        w.varint(self.fills.live().len() as u64);
        for &(t, core, req) in self.fills.live() {
            w.varint(t);
            w.varint(core as u64);
            w.varint(req);
        }
        w.bool(self.completions.is_dirty());
        w.varint(self.completions.live().len() as u64);
        for &(t, id, nda, tag, status) in self.completions.live() {
            w.varint(t);
            w.varint(id);
            w.varint(nda as u64);
            encode_handle(tag, &mut w);
            w.u8(status);
        }
        for q in &self.egress {
            w.varint(q.len() as u64);
            for (t, item) in q {
                w.varint(*t);
                item.encode(&mut w);
            }
        }
        for &v in &self.ingress_seen {
            w.varint(v as u64);
        }
        for &v in &self.ingress_unseen {
            w.varint(v as u64);
        }
        w.varint(self.launch_stage.len() as u64);
        for pl in &self.launch_stage {
            w.varint(pl.nda_idx as u64);
            encode_instr(&pl.instr, &mut w);
            encode_handle(pl.op, &mut w);
            w.varint(pl.chunk as u64);
        }
        w.varint(self.inflight.len() as u64);
        for rec in &self.inflight {
            w.varint(rec.deadline);
            w.varint(rec.id);
            w.varint(rec.launch.nda_idx as u64);
            encode_instr(&rec.launch.instr, &mut w);
            encode_handle(rec.launch.op, &mut w);
            w.varint(rec.launch.chunk as u64);
        }
        for &c in &self.nda_credit {
            w.varint(c as u64);
        }
        w.varint(self.next_launch);
        w.varint(self.nda_instrs_completed);
        w.varint(self.ticks_executed);
        w.varint(self.cycles_skipped);
        w.varint(self.cores.len() as u64);
        for core in &self.cores {
            encode_core(&core.export_state(), &mut w);
        }
        self.runtime.encode_state(&mut w);
        for shard in &self.shards {
            shard.encode_state(&mut w);
        }
        Ok(write_framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, w.finish()))
    }

    /// Rebuild a machine from a [`snapshot`](Self::snapshot) image.
    ///
    /// `cfg` must agree with the capture's configuration on every
    /// semantic knob (checked via the embedded fingerprint); the
    /// engine-mode knobs (`fast_forward`, `verify_fsm`, `trace_path`) are
    /// free — resuming one image under the naive and fast-forwarding
    /// loops produces bit-identical [`SimReport`]s.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: framing damage ([`CodecError::BadMagic`],
    /// [`CodecError::BadVersion`], [`CodecError::BadChecksum`],
    /// [`CodecError::Truncated`]), a configuration that does not match
    /// the capture ([`CodecError::ConfigMismatch`]), or a payload whose
    /// fields fail validation ([`CodecError::Corrupt`]).
    #[cold]
    pub fn resume(cfg: ChopimConfig, bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = read_framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        let mut sys = Self::new(cfg);
        let mut r = ByteReader::new(payload);
        if r.u64()? != Self::snapshot_fingerprint(&sys.cfg) {
            return Err(CodecError::ConfigMismatch);
        }
        sys.now = r.varint()?;
        sys.cpu_accum = r.u32()?;
        sys.cpu_cycles = r.varint()?;
        sys.llc_outstanding = r.varint_usize()?;
        let dirty = r.bool()?;
        let n = r.varint_usize()?;
        let mut fills = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let t = r.varint()?;
            let core = r.varint_usize()?;
            let req = r.varint()?;
            if core >= sys.cores.len() {
                return Err(CodecError::Corrupt("fill core index out of range"));
            }
            fills.push((t, core, req));
        }
        sys.fills = MergeQueue::restore(fills, dirty);
        let dirty = r.bool()?;
        let n = r.varint_usize()?;
        let mut comps = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let t = r.varint()?;
            let id = r.varint()?;
            let nda = r.varint_usize()?;
            let tag = decode_handle(&mut r)?;
            let status = r.u8()?;
            if nda >= sys.nda_local.len() {
                return Err(CodecError::Corrupt("completion NDA index out of range"));
            }
            if status > COMPLETION_RANK_DEAD {
                return Err(CodecError::Corrupt("completion status"));
            }
            comps.push((t, id, nda, tag, status));
        }
        sys.completions = MergeQueue::restore(comps, dirty);
        for ch in 0..sys.egress.len() {
            let n_ndas = sys.shards[ch].ndas.len();
            let n = r.varint_usize()?;
            let mut q = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let t = r.varint()?;
                q.push((t, ShardInbound::decode(&mut r, n_ndas)?));
            }
            sys.egress[ch] = q;
        }
        for v in &mut sys.ingress_seen {
            *v = r.varint_usize()?;
        }
        for v in &mut sys.ingress_unseen {
            *v = r.varint_usize()?;
        }
        let n = r.varint_usize()?;
        sys.launch_stage.clear();
        for _ in 0..n {
            let nda_idx = r.varint_usize()?;
            if nda_idx >= sys.nda_local.len() {
                return Err(CodecError::Corrupt("staged launch NDA index out of range"));
            }
            let instr = decode_instr(&mut r)?;
            let op = decode_handle(&mut r)?;
            let chunk = r.varint_usize()?;
            sys.launch_stage.push_back(PendingLaunch {
                nda_idx,
                instr,
                op,
                chunk,
            });
        }
        let n = r.varint_usize()?;
        sys.inflight.clear();
        let mut last_deadline = 0;
        for _ in 0..n {
            let deadline = r.varint()?;
            if deadline < last_deadline {
                return Err(CodecError::Corrupt("inflight deadlines out of order"));
            }
            last_deadline = deadline;
            let id = r.varint()?;
            let nda_idx = r.varint_usize()?;
            if nda_idx >= sys.nda_local.len() {
                return Err(CodecError::Corrupt("inflight NDA index out of range"));
            }
            let instr = decode_instr(&mut r)?;
            let op = decode_handle(&mut r)?;
            let chunk = r.varint_usize()?;
            sys.inflight.push_back(InflightRec {
                deadline,
                id,
                launch: PendingLaunch {
                    nda_idx,
                    instr,
                    op,
                    chunk,
                },
            });
        }
        for c in &mut sys.nda_credit {
            *c = r.varint_usize()?;
            if *c > sys.cfg.nda_queue_cap {
                return Err(CodecError::Corrupt("NDA launch credit over capacity"));
            }
        }
        sys.next_launch = r.varint()?;
        sys.nda_instrs_completed = r.varint()?;
        sys.ticks_executed = r.varint()?;
        sys.cycles_skipped = r.varint()?;
        if r.varint_usize()? != sys.cores.len() {
            return Err(CodecError::ConfigMismatch);
        }
        for core in &mut sys.cores {
            let img = decode_core(&mut r)?;
            core.import_state(&img);
        }
        sys.runtime.decode_state(&mut r)?;
        for shard in &mut sys.shards {
            shard.decode_state(&mut r)?;
        }
        if !r.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        // Handles outside the runtime were decoded before the runtime's
        // own session table; validate them against it now.
        let rt = &sys.runtime;
        let ok = |h: OpHandle| rt.handle_in_range(h);
        if !sys
            .completions
            .live()
            .iter()
            .all(|&(_, _, _, tag, _)| ok(tag))
            || !sys.launch_stage.iter().all(|pl| ok(pl.op))
            || !sys.inflight.iter().all(|rec| ok(rec.launch.op))
            || !sys.egress.iter().flatten().all(|(_, item)| match item {
                ShardInbound::Launch { tag, .. } => ok(*tag),
                ShardInbound::Tx(_) => true,
            })
            || !sys.shards.iter().all(|s| s.handles_ok(&ok))
        {
            return Err(CodecError::Corrupt("op handle out of range"));
        }
        Ok(sys)
    }

    // --- Event-trace capture ------------------------------------------

    /// Start recording the event trace: every DRAM command on every
    /// channel, every NDA launch delivery, and every instruction
    /// completion. Implied at construction when
    /// [`ChopimConfig::trace_path`] is set. Capture only appends to
    /// side logs — it never changes simulated behavior.
    #[cold]
    pub fn enable_trace_capture(&mut self) {
        for shard in &mut self.shards {
            shard.set_record_events(true);
            shard.channel.enable_trace();
        }
    }

    /// Drain the captured events, merged over channels into
    /// non-decreasing cycle order (ties keep channel order, commands
    /// before launches before completions — per-channel command order is
    /// application order, which replay re-validates).
    #[cold]
    pub fn trace_events(&mut self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::new();
        for (c, shard) in self.shards.iter_mut().enumerate() {
            let channel = c as u32;
            events.extend(
                shard
                    .channel
                    .take_trace()
                    .into_iter()
                    .map(|(cycle, cmd, issuer)| TraceEvent::Cmd {
                        cycle,
                        channel,
                        cmd,
                        issuer,
                    }),
            );
            events.extend(std::mem::take(&mut shard.launch_log).into_iter().map(
                |(cycle, nda_local, instr_id)| TraceEvent::Launch {
                    cycle,
                    channel,
                    nda_local,
                    instr_id,
                },
            ));
            events.extend(
                std::mem::take(&mut shard.completion_log)
                    .into_iter()
                    .map(|(cycle, instr_id)| TraceEvent::Completion { cycle, instr_id }),
            );
        }
        events.sort_by_key(|e| e.cycle());
        events
    }

    /// Drain the captured events and encode them in the
    /// `docs/TRACE_FORMAT.md` binary format (replayable with
    /// [`chopim_dram::trace::replay_bytes`]).
    #[cold]
    pub fn trace_bytes(&mut self) -> Vec<u8> {
        let events = self.trace_events();
        encode_trace(self.cfg.dram.state_fingerprint(), self.now, &events)
    }

    /// Write the captured trace to [`ChopimConfig::trace_path`].
    /// Returns the path written, or `None` when no path is configured.
    /// Called automatically by the first [`report`](Self::report), so
    /// explicit calls are only needed to flush mid-run. Encoding drains
    /// the capture, so each call writes only events since the last one.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    #[cold]
    pub fn write_trace(&mut self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.cfg.trace_path.clone() else {
            return Ok(None);
        };
        let bytes = self.trace_bytes();
        std::fs::write(&path, bytes)?;
        self.trace_flushed = true;
        Ok(Some(path))
    }

    /// [`report`](Self::report)'s auto-flush: a no-op once
    /// [`write_trace`](Self::write_trace) has run, since the drained
    /// capture would otherwise overwrite the file with an empty trace.
    #[cold]
    fn flush_trace_once(&mut self) -> std::io::Result<Option<PathBuf>> {
        if self.trace_flushed {
            return Ok(None);
        }
        self.write_trace()
    }
}

/// Snapshot container framing magic (`docs/SNAPSHOT_FORMAT.md`).
const SNAPSHOT_MAGIC: [u8; 4] = *b"CHSS";
/// Snapshot container format version. v2 added the fault plane:
/// completion status bytes, in-flight launch records, per-op recovery
/// state, and per-shard fault counters. v3 added the thousand-tenant
/// runtime: per-op submission stamps, per-session QoS class /
/// virtual-time / admission limits / job table / metering, the per-band
/// virtual clocks, pending admissions, and the finished-op feed (the
/// ready index itself is derived and rebuilt on resume). v4 dropped the
/// per-shard cached horizon, which only the removed barrier skip read.
const SNAPSHOT_VERSION: u32 = 4;

/// Why [`ChopimSystem::snapshot`] refused to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// An op [stream](ChopimSystem::spawn_stream) was spawned. Stream
    /// generators are opaque closures and cannot be serialized; capture
    /// the snapshot before spawning streams.
    ActiveStreams,
    /// [`ChopimSystem::report`] already finalized the statistics; a
    /// finalized machine cannot resume.
    Finalized,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ActiveStreams => {
                write!(f, "cannot snapshot a machine with spawned op streams")
            }
            SnapshotError::Finalized => {
                write!(f, "cannot snapshot after report() finalized statistics")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialize an [`OooCoreState`] image (the host crate deliberately has
/// no codec dependency, so the field-by-field encoding lives here).
#[cold]
fn encode_core(s: &OooCoreState, w: &mut ByteWriter) {
    for word in s.rng {
        w.u64(word);
    }
    w.varint(s.rob.len() as u64);
    for &(is_miss, v) in &s.rob {
        w.bool(is_miss);
        w.varint(v);
    }
    w.varint(s.filled.len() as u64);
    for &id in &s.filled {
        w.varint(id);
    }
    w.varint(s.outstanding);
    w.varint(s.next_id);
    w.varint(s.until_next_miss);
    w.varint(s.stream_pos);
    w.varint(s.stream_left);
    match s.pending_wb_line {
        None => w.bool(false),
        Some(line) => {
            w.bool(true);
            w.varint(line);
        }
    }
    w.varint(s.retired);
    w.varint(s.cycles);
    w.varint(s.reads_sent);
    w.varint(s.writes_sent);
    w.varint(s.dispatch_stall_cycles);
}

/// Decode an [`OooCoreState`] image (mirrors [`encode_core`]).
#[cold]
fn decode_core(r: &mut ByteReader<'_>) -> Result<OooCoreState, CodecError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64()?;
    }
    let n = r.varint_usize()?;
    let mut rob = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let is_miss = r.bool()?;
        let v = r.varint()?;
        rob.push((is_miss, v));
    }
    let n = r.varint_usize()?;
    let mut filled = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        filled.push(r.varint()?);
    }
    let outstanding = r.varint()?;
    let next_id = r.varint()?;
    let until_next_miss = r.varint()?;
    let stream_pos = r.varint()?;
    let stream_left = r.varint()?;
    let pending_wb_line = if r.bool()? { Some(r.varint()?) } else { None };
    Ok(OooCoreState {
        rng,
        rob,
        filled,
        outstanding,
        next_id,
        until_next_miss,
        stream_pos,
        stream_left,
        pending_wb_line,
        retired: r.varint()?,
        cycles: r.varint()?,
        reads_sent: r.varint()?,
        writes_sent: r.varint()?,
        dispatch_stall_cycles: r.varint()?,
    })
}
