//! One channel's simulation shard: the per-channel unit of the
//! channel-sharded engine.
//!
//! A [`ChannelShard`] owns everything that lives behind one memory
//! channel — the [`Channel`] device state, the host-side [`HostMc`], the
//! per-rank [`NdaRankController`]s with their host-side shadow FSMs, the
//! in-flight launch records, and the shard's half of every cross-boundary
//! queue. Nothing inside a shard ever references another shard or the
//! front-end: all traffic in and out is typed, cycle-stamped messages
//! ([`ShardInbound`] arriving, fill/completion messages leaving), which is
//! what makes the conservative-lookahead window schedule deterministic —
//! a shard ticking cycles `[T, T+W)` can only observe messages stamped
//! before `T+W`, all of which were produced before the window began.
//!
//! The shard also owns its slice of the event-horizon fast-forward state:
//! within a window it skips provably idle stretches exactly as the
//! monolithic engine did globally (same horizon rules, same bulk stall
//! accounting, same periodic replicated-FSM checks), so
//! `fast_forward = false` remains the naive cycle-by-cycle reference and
//! the lockstep suites keep their bit-identity contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
use chopim_dram::fault::{stream, FaultPlan};
use chopim_dram::stats::ChannelStats;
use chopim_dram::{Channel, CommandKind, Cycle, DramConfig};
use chopim_nda::controller::{NdaRankController, NdaTickResult};
use chopim_nda::fsm::NdaFsm;
use chopim_nda::isa::NdaInstr;
use chopim_nda::snapshot::{decode_instr, encode_instr};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exchange::{
    decode_handle, encode_handle, CompletionMsg, FillMsg, FlatFifo, OpHandle, ShardInbound,
    COMPLETION_FAILED, COMPLETION_OK, COMPLETION_RANK_DEAD,
};
use crate::policy::WriteIssuePolicy;
use crate::sched::{HostMc, Issued, PagePolicy, SchedulerKind, TxMeta};

/// The configuration slice a shard needs (copied at construction so the
/// shard is self-contained and `Send`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardParams {
    /// NDA write-issue policy.
    pub policy: WriteIssuePolicy,
    /// Event-horizon fast-forwarding within windows (off = naive loop).
    pub fast_forward: bool,
    /// Periodic replicated-FSM equality assertions.
    pub verify_fsm: bool,
    /// Packetized return-path serialization added to fill delivery.
    pub packetized_latency: Cycle,
    /// NDA completion → host-visible delivery latency (the status-poll
    /// pipeline depth; also the shard→front-end lookahead floor).
    pub completion_latency: Cycle,
    /// Record launch deliveries and completions into the shard's event
    /// logs (trace capture; the DRAM command stream is recorded by the
    /// channel's own trace buffer).
    pub record_events: bool,
    /// Deterministic fault-injection plan (empty = zero overhead).
    pub faults: FaultPlan,
}

/// Per-shard fault-injection state: the event counters the counter-based
/// fault streams draw on, per-NDA poison/death flags, and the injected
/// fault counters surfaced through `FaultReport`. Every mutation sits
/// behind the single `active` test, so an empty plan costs one branch
/// per event and nothing else.
#[derive(Debug)]
struct FaultState {
    /// `!plan.is_empty()` — the one branch the zero-overhead path pays.
    active: bool,
    /// Shard-local index of the rank the plan kills, when it lives here.
    death_local: Option<usize>,
    death_processed: bool,
    /// Column reads performed on this channel (bit-flip stream key).
    col_reads: u64,
    /// NDA instructions retired (transient/hang stream key).
    instrs_retired: u64,
    /// Completion messages sent (drop/delay stream key).
    completions_sent: u64,
    /// Per-NDA: an uncorrectable read poisons the next retirement.
    poisoned: Vec<bool>,
    /// Per-NDA: permanently dead (launches fail immediately).
    dead: Vec<bool>,
    transient_faults: u64,
    fsm_hangs: u64,
    completions_dropped: u64,
    completions_delayed: u64,
    rank_deaths: u64,
}

impl FaultState {
    /// Draw the bit-flip/ECC streams for one column read. An
    /// uncorrectable flip on an NDA read poisons `poison`'s next
    /// retirement; host reads are counted only.
    #[cold]
    fn col_read(
        &mut self,
        plan: &FaultPlan,
        channel_idx: usize,
        stats: &mut ChannelStats,
        poison: Option<usize>,
    ) {
        let ch = channel_idx as u64;
        let n = self.col_reads;
        self.col_reads += 1;
        if plan.fires(plan.dram_bit_flip_period, ch, stream::BIT_FLIP, n) {
            if plan.uncorrectable(ch, n) {
                stats.ecc_uncorrectable += 1;
                if let Some(i) = poison {
                    self.poisoned[i] = true;
                }
            } else {
                stats.ecc_corrected += 1;
            }
        }
    }

    /// Draw the transient/hang/drop/delay streams for one retirement.
    /// Returns `false` when the completion message is dropped in
    /// transit; otherwise `deliver`/`status` carry any injected delay
    /// and failure.
    #[cold]
    fn retire(
        &mut self,
        plan: &FaultPlan,
        channel_idx: usize,
        nda: usize,
        deliver: &mut Cycle,
        status: &mut u8,
    ) -> bool {
        let ch = channel_idx as u64;
        let n = self.instrs_retired;
        self.instrs_retired += 1;
        if self.poisoned[nda] {
            self.poisoned[nda] = false;
            *status = COMPLETION_FAILED;
        } else if plan.fires(plan.nda_transient_period, ch, stream::TRANSIENT, n) {
            self.transient_faults += 1;
            *status = COMPLETION_FAILED;
        }
        if plan.fires(plan.nda_hang_period, ch, stream::HANG, n) {
            self.fsm_hangs += 1;
            *deliver += plan.nda_hang_cycles;
        }
        let m = self.completions_sent;
        self.completions_sent += 1;
        if plan.fires(plan.completion_drop_period, ch, stream::DROP, m) {
            self.completions_dropped += 1;
            return false;
        }
        if plan.fires(plan.completion_delay_period, ch, stream::DELAY, m) {
            self.completions_delayed += 1;
            *deliver += plan.completion_delay_cycles;
        }
        true
    }
}

#[derive(Debug)]
struct LaunchInFlight {
    instr: NdaInstr,
    nda_local: usize,
    writes_remaining: u32,
    tag: OpHandle,
}

/// Dense sliding map over in-flight launch records.
///
/// Launch ids are assigned by the front-end from one global counter and
/// delivered per shard in FIFO order, so the ids a shard sees are
/// **strictly increasing** — a ring of `Option` slots indexed by
/// `id - base` replaces the old `HashMap` with O(1) array accesses. Ids
/// belonging to other channels leave `None` gaps; the base slides past
/// the consumed-and-gap prefix on every removal, so the live span is
/// bounded by the launch-in-flight window, not the id space.
#[derive(Debug, Default)]
struct LaunchSlab {
    base: u64,
    slots: VecDeque<Option<LaunchInFlight>>,
}

impl LaunchSlab {
    fn insert(&mut self, id: u64, lf: LaunchInFlight) {
        if self.slots.is_empty() {
            // Re-anchor so cross-channel id gaps cost nothing while the
            // shard has no launches in flight.
            self.base = id;
        }
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "launch ids must arrive strictly increasing"
        );
        while (self.slots.len() as u64) < id - self.base {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(lf));
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut LaunchInFlight> {
        let idx = id.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    fn remove(&mut self, id: u64) -> Option<LaunchInFlight> {
        let idx = id.checked_sub(self.base)? as usize;
        let lf = self.slots.get_mut(idx)?.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        lf
    }
}

/// One channel's shard. See the module docs.
pub(crate) struct ChannelShard {
    channel_idx: usize,
    pub(crate) channel: Channel,
    pub(crate) mc: HostMc,
    pub(crate) ndas: Vec<NdaRankController>,
    pub(crate) shadows: Vec<NdaFsm>,
    /// Set when a launch was delivered this cycle, forcing a full
    /// controller evaluation even if it looked idle or blocked.
    nda_poke: Vec<bool>,
    /// Shard-local NDA index per rank (`None` = rank has no NDA, e.g.
    /// host-only ranks never occur but rank-partitioning asymmetries do).
    // chopim-lint: allow(snapshot) -- static shard topology computed by build from the nda_ranks config
    local_of_rank: Vec<Option<usize>>,
    /// Global NDA index per shard-local NDA (stamps completion messages).
    // chopim-lint: allow(snapshot) -- static shard topology computed by build from the nda_ranks config
    global_idx: Vec<usize>,
    launches: LaunchSlab,
    /// `(instr id, (session, op))` of every instruction delivered to a
    /// rank FSM and not yet retired, bucketed per shard-local NDA: the
    /// completion-routing tag stamped onto outbound completion messages.
    /// Instruction ids are *not* monotonic per shard (fair-share
    /// arbitration interleaves ops) and the FSM retires out of launch
    /// order (buffered-write drain), so each bucket is a small unordered
    /// vector scanned linearly — bounded by the FSM queue depth.
    completion_tags: Vec<Vec<(u64, OpHandle)>>,
    launch_events: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Cross-boundary ingress FIFO: a flat arena the front-end's egress
    /// buffer is swapped into at barriers (see [`crate::exchange`]).
    pub(crate) inbox: FlatFifo<(Cycle, ShardInbound)>,
    /// Outbound fill completions produced this window.
    pub(crate) fills_out: Vec<FillMsg>,
    /// Outbound instruction completions produced this window.
    pub(crate) completions_out: Vec<CompletionMsg>,
    /// Captured launch deliveries `(cycle, shard-local NDA, instr id)`
    /// when `params.record_events` (trace capture; not snapshot state).
    // chopim-lint: allow(snapshot) -- diagnostic event log (record_events); capture sessions never span a snapshot
    pub(crate) launch_log: Vec<(Cycle, u32, u64)>,
    /// Captured instruction retirements `(cycle, instr id)` when
    /// `params.record_events` (trace capture; not snapshot state).
    // chopim-lint: allow(snapshot) -- diagnostic event log (record_events); capture sessions never span a snapshot
    pub(crate) completion_log: Vec<(Cycle, u64)>,
    /// Per-shard policy RNG: seeded from `(seed, channel)` so the draw
    /// stream is independent of every other shard and of the order in
    /// which shards run a window.
    policy_rng: StdRng,
    /// Fault-injection counters and flags (see [`FaultState`]).
    fault: FaultState,
    // chopim-lint: allow(snapshot) -- ShardParams config copy; resume reconstructs every shard from the same config
    params: ShardParams,
    pub(crate) now: Cycle,
    ticks_executed: u64,
    cycles_skipped: u64,
    ff_streak: u32,
    ff_backoff: u32,
    /// Wake-hint computation throttle for a saturated MC (see the
    /// monolithic engine's `mc_hint_backoff`; per-shard now).
    hint_backoff: u32,
    hint_penalty: u32,
}

impl ChannelShard {
    /// Start (or stop) recording launch deliveries and completions into
    /// the shard's trace logs (see [`ShardParams::record_events`]).
    pub(crate) fn set_record_events(&mut self, on: bool) {
        self.params.record_events = on;
    }

    /// True when every op handle the shard holds (launch slab, FSM
    /// completion tags, undelivered inbox launches) satisfies `ok`
    /// (snapshot decode validates restored handles through this).
    #[cold]
    pub(crate) fn handles_ok(&self, ok: &dyn Fn(OpHandle) -> bool) -> bool {
        self.launches.slots.iter().flatten().all(|lf| ok(lf.tag))
            && self
                .completion_tags
                .iter()
                .flatten()
                .all(|&(_, tag)| ok(tag))
            && self.inbox.live().iter().all(|(_, item)| match item {
                ShardInbound::Launch { tag, .. } => ok(*tag),
                ShardInbound::Tx(_) => true,
            })
    }

    /// Build the shard for `channel_idx`, owning `ndas` (paired with
    /// their global indexes, in rank order) behind `channel`.
    /// Build the shard for channel `channel_idx` from configuration
    /// alone: the channel device, its host MC (scheduler and page
    /// policy applied), and the rank controllers for every NDA rank
    /// living on this channel. Constructing the shard-internal parts
    /// here keeps `HostMc`/`NdaRankController` out of the front-end's
    /// vocabulary — the front-end hands over config, not machinery.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        channel_idx: usize,
        dram: &DramConfig,
        scheduler: SchedulerKind,
        page_policy: PagePolicy,
        nda_ranks: &[(usize, usize)],
        nda_queue_cap: usize,
        seed: u64,
        params: ShardParams,
    ) -> Self {
        let mut mc = HostMc::new(
            dram.ranks_per_channel,
            dram.bankgroups,
            dram.banks_per_group,
            dram.timing.refi,
        );
        mc.set_scheduler(scheduler);
        mc.set_page_policy(page_policy);
        let ndas: Vec<(usize, NdaRankController)> = nda_ranks
            .iter()
            .enumerate()
            .filter(|&(_, &(ch, _))| ch == channel_idx)
            .map(|(g, &(ch, r))| {
                (
                    g,
                    NdaRankController::new(ch, r, dram.banks_per_group, nda_queue_cap),
                )
            })
            .collect();
        Self::new(
            channel_idx,
            Channel::new(dram),
            mc,
            ndas,
            nda_queue_cap,
            seed,
            params,
        )
    }

    fn new(
        channel_idx: usize,
        channel: Channel,
        mc: HostMc,
        ndas: Vec<(usize, NdaRankController)>,
        queue_cap: usize,
        seed: u64,
        params: ShardParams,
    ) -> Self {
        let ranks = channel.config().ranks_per_channel;
        let mut local_of_rank = vec![None; ranks];
        let mut global_idx = Vec::with_capacity(ndas.len());
        let mut ctls = Vec::with_capacity(ndas.len());
        for (local, (gidx, ctl)) in ndas.into_iter().enumerate() {
            local_of_rank[ctl.rank()] = Some(local);
            global_idx.push(gidx);
            ctls.push(ctl);
        }
        let n = ctls.len();
        let plan = params.faults;
        let death_local = if plan.rank_death_cycle > 0 {
            global_idx
                .iter()
                .position(|&g| g == plan.rank_death_nda as usize)
        } else {
            None
        };
        let fault = FaultState {
            active: !plan.is_empty(),
            death_local,
            death_processed: false,
            col_reads: 0,
            instrs_retired: 0,
            completions_sent: 0,
            poisoned: vec![false; n],
            dead: vec![false; n],
            transient_faults: 0,
            fsm_hangs: 0,
            completions_dropped: 0,
            completions_delayed: 0,
            rank_deaths: 0,
        };
        Self {
            channel_idx,
            channel,
            mc,
            shadows: (0..n).map(|_| NdaFsm::new(queue_cap)).collect(),
            ndas: ctls,
            nda_poke: vec![false; n],
            local_of_rank,
            global_idx,
            launches: LaunchSlab::default(),
            completion_tags: (0..n).map(|_| Vec::new()).collect(),
            launch_events: BinaryHeap::new(),
            inbox: FlatFifo::default(),
            fills_out: Vec::new(),
            completions_out: Vec::new(),
            launch_log: Vec::new(),
            completion_log: Vec::new(),
            policy_rng: StdRng::seed_from_u64(
                (seed ^ 0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((channel_idx as u64).wrapping_mul(0xa24b_aed4_963e_e407)),
            ),
            fault,
            params,
            now: 0,
            ticks_executed: 0,
            cycles_skipped: 0,
            ff_streak: 0,
            ff_backoff: 0,
            hint_backoff: 0,
            hint_penalty: 0,
        }
    }

    /// The channel index this shard simulates.
    pub(crate) fn channel_idx(&self) -> usize {
        self.channel_idx
    }

    /// Shard-local NDA index of `rank`.
    ///
    /// # Panics
    ///
    /// Panics when the rank has no NDA (launches only target NDA ranks).
    pub(crate) fn local_of(&self, rank: usize) -> usize {
        self.local_of_rank[rank].expect("rank has an NDA")
    }

    /// `(ticks executed, cycles skipped)` diagnostics for this shard.
    pub(crate) fn tick_stats(&self) -> (u64, u64) {
        (self.ticks_executed, self.cycles_skipped)
    }

    /// True while every host-side shadow FSM matches its rank's FSM.
    pub(crate) fn fsm_in_sync(&self) -> bool {
        self.ndas
            .iter()
            .zip(&self.shadows)
            .all(|(n, s)| n.fsm().fingerprint() == s.fingerprint())
    }

    /// Ingress-arena high-water mark (sizing telemetry).
    pub(crate) fn inbox_high_water(&self) -> usize {
        self.inbox.high_water()
    }

    /// Run the shard up to (exclusive) `target`, fast-forwarding idle
    /// stretches when enabled. Messages produced land in the outboxes;
    /// the caller exchanges them at the window barrier.
    pub(crate) fn run_to(&mut self, target: Cycle) {
        while self.now < target {
            self.tick_cycle();
            self.now += 1;
            self.maybe_skip(target);
        }
    }

    /// One shard cycle at `self.now`: launch deliveries, ingress pops,
    /// the host MC, then the rank NDA controllers — the same intra-cycle
    /// order the monolithic engine used for one channel.
    fn tick_cycle(&mut self) {
        let now = self.now;
        self.ticks_executed += 1;

        // 0. Permanent rank death fires at its planned cycle. The
        // horizon folds the death cycle in, so every engine variant
        // (naive or fast-forwarding) executes this tick
        // at exactly the same cycle.
        if self.fault.active && !self.fault.death_processed {
            if let Some(local) = self.fault.death_local {
                if now >= self.params.faults.rank_death_cycle {
                    self.process_rank_death(local, now);
                }
            }
        }

        // 1. Launch deliveries whose control writes completed.
        while let Some(&Reverse((t, id))) = self.launch_events.peek() {
            if t > now {
                break;
            }
            self.launch_events.pop();
            let lf = self.launches.get_mut(id).expect("launch record");
            lf.writes_remaining -= 1;
            if lf.writes_remaining == 0 {
                let lf = self.launches.remove(id).expect("present");
                if self.fault.active && self.fault.dead[lf.nda_local] {
                    // Delivery to a dead rank: fail the instruction
                    // immediately so the front-end can re-shard it.
                    self.completions_out.push((
                        now + self.params.completion_latency,
                        lf.instr.id,
                        self.global_idx[lf.nda_local],
                        lf.tag,
                        COMPLETION_RANK_DEAD,
                    ));
                    continue;
                }
                if self.params.record_events {
                    self.launch_log
                        .push((now, lf.nda_local as u32, lf.instr.id));
                }
                self.nda_poke[lf.nda_local] = true;
                match self.ndas[lf.nda_local].launch(lf.instr.clone()) {
                    Ok(()) => {
                        self.completion_tags[lf.nda_local].push((lf.instr.id, lf.tag));
                        self.shadows[lf.nda_local]
                            .launch(lf.instr)
                            .unwrap_or_else(|_| panic!("shadow queue overflow"));
                    }
                    // Under fault recovery, optimistic credit return on
                    // timeout makes queue overflow reachable: fail the
                    // launch gracefully (the runtime retries it) instead
                    // of bringing the machine down.
                    Err(_) if self.fault.active => {
                        self.completions_out.push((
                            now + self.params.completion_latency,
                            lf.instr.id,
                            self.global_idx[lf.nda_local],
                            lf.tag,
                            COMPLETION_FAILED,
                        ));
                    }
                    Err(_) => panic!("NDA queue overflow"),
                }
            }
        }

        // 2. Ingress: deliver due messages into the MC, head-of-line.
        while let Some((t, item)) = self.inbox.front_mut() {
            if *t > now {
                break;
            }
            match item {
                ShardInbound::Launch {
                    id,
                    nda_local,
                    instr,
                    writes,
                    tag,
                } => {
                    self.launches.insert(
                        *id,
                        LaunchInFlight {
                            instr: instr.clone(),
                            nda_local: *nda_local,
                            writes_remaining: *writes,
                            tag: *tag,
                        },
                    );
                    self.inbox.pop_front();
                }
                ShardInbound::Tx(tx) => {
                    if self.mc.try_push_hinted(*tx, &self.channel, now) {
                        self.inbox.pop_front();
                    } else {
                        // MC full: retry next cycle (keeps order).
                        *t = now + 1;
                        break;
                    }
                }
            }
        }

        // 3. Host memory controller (priority on the channel).
        self.mc_cycle(now);

        // 4. NDA controllers (one per rank, independent command paths).
        self.nda_cycle(now);

        // 5. Replicated-FSM equality check.
        if self.params.verify_fsm && now.is_multiple_of(1024) {
            assert!(
                self.fsm_in_sync(),
                "replicated FSMs diverged at cycle {now} (channel {})",
                self.channel_idx
            );
        }
    }

    /// Kill shard-local NDA `local` at `now`: every instruction it holds
    /// (queued, running, or awaiting write-drain) fails with
    /// [`COMPLETION_RANK_DEAD`] so the front-end quarantines the rank
    /// and re-shards the work; the FSM and its shadow are aborted
    /// identically so the replicated-FSM fingerprints stay equal.
    #[cold]
    fn process_rank_death(&mut self, local: usize, now: Cycle) {
        self.fault.death_processed = true;
        self.fault.dead[local] = true;
        self.fault.rank_deaths += 1;
        self.nda_poke[local] = false;
        let gidx = self.global_idx[local];
        let latency = self.params.completion_latency;
        for (id, tag) in self.completion_tags[local].drain(..) {
            self.completions_out
                .push((now + latency, id, gidx, tag, COMPLETION_RANK_DEAD));
        }
        self.ndas[local].abort_all();
        self.shadows[local].abort_all();
    }

    fn mc_cycle(&mut self, now: Cycle) {
        // In fast-forward mode a valid wake-up hint proves the whole
        // controller tick is a no-op; the naive loop evaluates every
        // cycle (reference behavior).
        if self.params.fast_forward {
            if let Some(h) = self.mc.wake_hint() {
                if now < h {
                    return;
                }
            }
        }
        let issued = self.mc.tick(&mut self.channel, now);
        if issued.is_none() && self.params.fast_forward {
            // Idle tick: compute and cache the wake-up so the following
            // no-op ticks are skipped outright — unless this channel's
            // recent hints all expired immediately (a saturated
            // controller is ready again within a cycle or two), in which
            // case back off before scanning again.
            if self.hint_backoff > 0 {
                self.hint_backoff -= 1;
            } else {
                let h = self.mc.next_event_cycle(&self.channel, now);
                if h <= now + 1 {
                    let p = (self.hint_penalty * 2).clamp(2, 32);
                    self.hint_penalty = p;
                    self.hint_backoff = p;
                } else {
                    self.hint_penalty = 0;
                }
            }
        }
        if let Some(iss) = issued {
            if self.fault.active && iss.cmd.kind == CommandKind::Rd {
                // Host column read: draw the bit-flip/ECC streams
                // (host-side uncorrectable errors are counted only).
                self.fault.col_read(
                    &self.params.faults,
                    self.channel_idx,
                    &mut self.channel.stats,
                    None,
                );
            }
            // A host *row* command (ACT/PRE/PREA/REF) changed its target
            // rank's bank state: the rank's NDA plan may have changed
            // shape and become ready *earlier*, so its cached wake-up
            // must be re-derived. Column commands only push timing
            // registers forward — they can delay the NDA but never make
            // it ready sooner, so the (conservative) hint stays sound.
            if !matches!(iss.cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                if let Some(local) = self.local_of_rank[iss.cmd.rank] {
                    self.ndas[local].invalidate_hint();
                }
            }
            if let Issued {
                data,
                completed: Some(tx),
                ..
            } = iss
            {
                match tx.meta {
                    TxMeta::CoreRead { core, req } => {
                        // Packetized responses pay the return-path
                        // serialization latency too.
                        let ready = data.end.expect("read") + self.params.packetized_latency;
                        self.fills_out.push((ready, core, req));
                    }
                    TxMeta::Launch { launch } => {
                        self.launch_events
                            .push(Reverse((data.end.expect("write"), launch)));
                    }
                    TxMeta::CoreWrite => {}
                }
            }
        }
    }

    fn nda_cycle(&mut self, now: Cycle) {
        // The write-throttle decision is passed lazily so policy coins
        // are drawn only for actual write attempts — which also makes
        // idle and timing-blocked cycles RNG-free, a precondition for
        // skipping them in fast-forward mode.
        let Self {
            channel_idx,
            ndas,
            nda_poke,
            shadows,
            mc,
            channel,
            policy_rng,
            fault,
            params,
            completions_out,
            completion_tags,
            completion_log,
            global_idx,
            ..
        } = self;
        for i in 0..ndas.len() {
            // In fast-forward mode, offer the controller a cycle only
            // when it could act: skip idle FSMs (until a launch pokes
            // them) and timing-blocked ones inside their cached wake-up
            // window. Both skips are exact — the controller would
            // evaluate to the same state without side effects. The naive
            // loop evaluates every controller every cycle, preserving
            // the reference behavior the lockstep tests compare against.
            if params.fast_forward && !nda_poke[i] {
                match ndas[i].desired_access() {
                    None => continue,
                    Some(_) => {
                        if let Some(h) = ndas[i].ready_hint() {
                            if now < h {
                                continue;
                            }
                        }
                    }
                }
            }
            let poked = nda_poke[i];
            nda_poke[i] = false;
            let rank = ndas[i].rank();
            let oldest = mc.oldest_read_rank();
            let policy = params.policy;
            let rng = &mut *policy_rng;
            let result = ndas[i].tick(channel, now, || policy.allow_write(oldest, rank, rng));
            if fault.active {
                if let NdaTickResult::Issued(cmd) = result {
                    if cmd.kind == CommandKind::Rd {
                        // NDA column read: an uncorrectable bit-flip
                        // poisons this NDA's next retirement.
                        fault.col_read(&params.faults, *channel_idx, &mut channel.stats, Some(i));
                    }
                }
            }
            if let NdaTickResult::Issued(cmd) = result {
                // An NDA *row* command changed bank state under the host
                // scheduler: a queued transaction's plan may now be
                // ready earlier than the cached wake-up assumed. NDA
                // column commands only move timing registers forward
                // (pure delay), so the host hint stays sound.
                if !matches!(cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                    mc.invalidate_wake_hint();
                }
            }
            // Mirror onto the host-side shadow FSM. The controller
            // re-derives its desired access (normalizing FSM state)
            // exactly on launch-poke cycles and after column grants; the
            // shadow performs the same `next_access` calls at the same
            // points — anything more frequent is redundant, anything
            // less would let the fingerprints drift.
            if poked {
                let _ = shadows[i].next_access();
            }
            if let NdaTickResult::Issued(cmd) = result {
                if matches!(cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                    let acc = shadows[i]
                        .next_access()
                        .expect("shadow must want an access too");
                    debug_assert_eq!(
                        (acc.write, acc.row, acc.col),
                        (cmd.kind == CommandKind::Wr, cmd.row, cmd.col),
                        "shadow diverged from NDA controller"
                    );
                    shadows[i].commit(acc);
                    let _ = shadows[i].next_access();
                }
            }
            // Completions (both sides pop identically). The host learns
            // of each one `completion_latency` cycles later — the
            // status-poll pipeline that also bounds the engine's
            // lookahead window.
            while let Some(id) = ndas[i].fsm_mut().pop_completed() {
                let sid = shadows[i].pop_completed();
                debug_assert_eq!(sid, Some(id));
                if params.record_events {
                    completion_log.push((now, id));
                }
                // Retirement is out of launch order (buffered-write
                // drain), so scan the NDA's small tag bucket.
                let tags = &mut completion_tags[i];
                let at = tags
                    .iter()
                    .position(|&(tid, _)| tid == id)
                    .expect("tagged instruction");
                let (_, tag) = tags.swap_remove(at);
                let mut deliver = now + params.completion_latency;
                let mut status = COMPLETION_OK;
                if fault.active
                    && !fault.retire(&params.faults, *channel_idx, i, &mut deliver, &mut status)
                {
                    continue; // completion message dropped in transit
                }
                completions_out.push((deliver, id, global_idx[i], tag, status));
            }
        }
    }

    /// Earliest cycle at or after `self.now` (the first unexecuted
    /// cycle) at which any component of this shard could act, assuming
    /// no other agent touches it first. Conservative answers only waste
    /// a wake-up; no component may act strictly before its horizon.
    pub(crate) fn horizon(&mut self) -> Cycle {
        let now = self.now;
        if self.nda_poke.iter().any(|&p| p) {
            return now;
        }
        let mut h = Cycle::MAX;
        // A pending rank death is a shard event: folding its cycle here
        // (and never skipping past it) is what guarantees every engine
        // variant executes the death tick at exactly the planned cycle.
        if self.fault.active && !self.fault.death_processed && self.fault.death_local.is_some() {
            let d = self.params.faults.rank_death_cycle;
            if d <= now {
                return now;
            }
            h = d;
        }
        if let Some(&Reverse((t, _))) = self.launch_events.peek() {
            h = h.min(t);
        }
        if let Some(&(t, _)) = self.inbox.front() {
            h = h.min(t);
        }
        if h <= now {
            return now;
        }
        h = h.min(self.mc.next_event_cycle(&self.channel, now));
        if h <= now {
            return now;
        }
        for nda in &self.ndas {
            let Some(acc) = nda.desired_access() else {
                continue;
            };
            // A valid timing hint covers writes too: the controller
            // short-circuits before any policy evaluation until then.
            if let Some(hint) = nda.ready_hint() {
                if hint > now {
                    h = h.min(hint);
                    continue;
                }
            }
            if acc.write {
                let oldest = self.mc.oldest_read_rank();
                match self
                    .params
                    .policy
                    .deterministic_decision(oldest, nda.rank())
                {
                    // Stochastic policies flip a coin per attempt: every
                    // cycle with a pending write must execute.
                    None => return now,
                    // Deterministically throttled: the decision can only
                    // change when the read queue does, which is an event.
                    Some(false) => continue,
                    Some(true) => {}
                }
            }
            h = h.min(nda.next_event_cycle(&self.channel, now));
            if h <= now {
                return now;
            }
        }
        h.max(now)
    }

    /// Leap from `self.now` to `target`, applying exactly the state
    /// changes the naive loop would have made over the provably idle
    /// stretch: deterministically throttled NDA writes accumulate their
    /// per-cycle stall counts, and the periodic FSM spot-check keeps its
    /// coverage. DRAM timing registers and the idle histograms are
    /// absolute-time state and need no per-cycle work.
    pub(crate) fn skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now);
        self.cycles_skipped += target - self.now;
        for i in 0..self.ndas.len() {
            let Some(acc) = self.ndas[i].desired_access() else {
                continue;
            };
            if acc.write {
                let oldest = self.mc.oldest_read_rank();
                let decision = self
                    .params
                    .policy
                    .deterministic_decision(oldest, self.ndas[i].rank());
                if decision == Some(false) {
                    // The naive loop evaluates (and counts) the
                    // throttled attempt each cycle timing allows the
                    // write. The cached `ready_hint` is only a lower
                    // bound, so recompute the exact ready time.
                    let from = self.ndas[i].next_event_cycle(&self.channel, self.now);
                    self.ndas[i].write_throttle_stalls += target.saturating_sub(from);
                }
            }
        }
        if self.params.verify_fsm && self.now.next_multiple_of(1024) < target {
            assert!(
                self.fsm_in_sync(),
                "replicated FSMs diverged in [{}, {}) (channel {})",
                self.now,
                target,
                self.channel_idx
            );
        }
        self.now = target;
    }

    /// In fast-forward mode, leap to the shard's next event horizon
    /// (never past `limit`), with the same busy-streak backoff the
    /// monolithic engine used: executing a skippable cycle is always
    /// sound; only skipping a cycle with work would not be.
    fn maybe_skip(&mut self, limit: Cycle) {
        if !self.params.fast_forward || self.now >= limit {
            return;
        }
        if self.ff_backoff > 0 {
            self.ff_backoff -= 1;
            return;
        }
        let h = self.horizon().min(limit);
        if h > self.now {
            self.skip_to(h);
            self.ff_streak = 0;
        } else {
            self.ff_streak = (self.ff_streak + 1).min(6);
            self.ff_backoff = (1u32 << self.ff_streak) >> 1;
        }
    }

    // ---- snapshot codec -------------------------------------------------

    /// Serialize all mutable shard state (snapshot support). Structural
    /// fields derived from the configuration (`local_of_rank`,
    /// `global_idx`, `params`) and the trace logs are not stored; the
    /// fast-forward backoffs and the launch slab's `base` anchor *are*,
    /// verbatim, so a resumed shard replays the exact tick/skip sequence.
    #[cold]
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.varint(self.channel_idx as u64);
        self.channel.encode_state(w);
        self.mc.encode_state(w);
        w.varint(self.ndas.len() as u64);
        for nda in &self.ndas {
            nda.encode_state(w);
        }
        for shadow in &self.shadows {
            shadow.encode_state(w);
        }
        for &p in &self.nda_poke {
            w.bool(p);
        }
        w.varint(self.launches.base);
        w.varint(self.launches.slots.len() as u64);
        for slot in &self.launches.slots {
            match slot {
                None => w.bool(false),
                Some(lf) => {
                    w.bool(true);
                    encode_instr(&lf.instr, w);
                    w.varint(lf.nda_local as u64);
                    w.varint(u64::from(lf.writes_remaining));
                    encode_handle(lf.tag, w);
                }
            }
        }
        for tags in &self.completion_tags {
            w.varint(tags.len() as u64);
            for &(id, tag) in tags {
                w.varint(id);
                encode_handle(tag, w);
            }
        }
        let mut events: Vec<(Cycle, u64)> =
            self.launch_events.iter().map(|&Reverse(e)| e).collect();
        events.sort_unstable();
        w.varint(events.len() as u64);
        for (t, id) in events {
            w.varint(t);
            w.varint(id);
        }
        w.varint(self.inbox.high_water() as u64);
        w.varint(self.inbox.len() as u64);
        for (t, item) in self.inbox.live() {
            w.varint(*t);
            item.encode(w);
        }
        w.varint(self.fills_out.len() as u64);
        for &(t, core, req) in &self.fills_out {
            w.varint(t);
            w.varint(core as u64);
            w.varint(req);
        }
        w.varint(self.completions_out.len() as u64);
        for &(t, id, gidx, tag, status) in &self.completions_out {
            w.varint(t);
            w.varint(id);
            w.varint(gidx as u64);
            encode_handle(tag, w);
            w.u8(status);
        }
        for s in self.policy_rng.state() {
            w.u64(s);
        }
        w.varint(self.now);
        w.varint(self.ticks_executed);
        w.varint(self.cycles_skipped);
        w.varint(u64::from(self.ff_streak));
        w.varint(u64::from(self.ff_backoff));
        w.varint(u64::from(self.hint_backoff));
        w.varint(u64::from(self.hint_penalty));
        // v2: fault-plane state (counters are stream keys — restoring
        // them verbatim is what keeps resume-under-faults bit-identical).
        w.varint(self.fault.col_reads);
        w.varint(self.fault.instrs_retired);
        w.varint(self.fault.completions_sent);
        w.varint(self.fault.transient_faults);
        w.varint(self.fault.fsm_hangs);
        w.varint(self.fault.completions_dropped);
        w.varint(self.fault.completions_delayed);
        w.varint(self.fault.rank_deaths);
        for &p in &self.fault.poisoned {
            w.bool(p);
        }
        for &d in &self.fault.dead {
            w.bool(d);
        }
        w.bool(self.fault.death_processed);
    }

    /// Overwrite this (freshly constructed) shard from bytes written by
    /// [`encode_state`](Self::encode_state).
    #[cold]
    pub(crate) fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.varint_usize()? != self.channel_idx {
            return Err(CodecError::ConfigMismatch);
        }
        self.channel.decode_state(r)?;
        self.mc.decode_state(r)?;
        let n = self.ndas.len();
        if r.varint_usize()? != n {
            return Err(CodecError::ConfigMismatch);
        }
        for nda in self.ndas.iter_mut() {
            nda.decode_state(r)?;
        }
        for shadow in self.shadows.iter_mut() {
            shadow.decode_state(r)?;
        }
        for p in self.nda_poke.iter_mut() {
            *p = r.bool()?;
        }
        let base = r.varint()?;
        let n_slots = r.varint_usize()?;
        let mut slots = VecDeque::with_capacity(n_slots.min(r.remaining()));
        for _ in 0..n_slots {
            slots.push_back(if r.bool()? {
                let instr = decode_instr(r)?;
                let nda_local = r.varint_usize()?;
                if nda_local >= n {
                    return Err(CodecError::Corrupt("launch NDA index out of range"));
                }
                Some(LaunchInFlight {
                    instr,
                    nda_local,
                    writes_remaining: r.varint_u32()?,
                    tag: decode_handle(r)?,
                })
            } else {
                None
            });
        }
        self.launches = LaunchSlab { base, slots };
        for tags in self.completion_tags.iter_mut() {
            tags.clear();
            let k = r.varint_usize()?;
            tags.reserve(k.min(r.remaining()));
            for _ in 0..k {
                tags.push((r.varint()?, decode_handle(r)?));
            }
        }
        self.launch_events.clear();
        let k = r.varint_usize()?;
        for _ in 0..k {
            let t = r.varint()?;
            let id = r.varint()?;
            self.launch_events.push(Reverse((t, id)));
        }
        let high_water = r.varint_usize()?;
        let k = r.varint_usize()?;
        let mut items = Vec::with_capacity(k.min(r.remaining()));
        for _ in 0..k {
            let t = r.varint()?;
            items.push((t, ShardInbound::decode(r, n)?));
        }
        self.inbox = FlatFifo::restore(items, high_water);
        let k = r.varint_usize()?;
        self.fills_out.clear();
        self.fills_out.reserve(k.min(r.remaining()));
        for _ in 0..k {
            self.fills_out
                .push((r.varint()?, r.varint_usize()?, r.varint()?));
        }
        let k = r.varint_usize()?;
        self.completions_out.clear();
        self.completions_out.reserve(k.min(r.remaining()));
        for _ in 0..k {
            let entry = (
                r.varint()?,
                r.varint()?,
                r.varint_usize()?,
                decode_handle(r)?,
                r.u8()?,
            );
            if entry.4 > COMPLETION_RANK_DEAD {
                return Err(CodecError::Corrupt("completion status"));
            }
            self.completions_out.push(entry);
        }
        let mut rng_state = [0u64; 4];
        for s in rng_state.iter_mut() {
            *s = r.u64()?;
        }
        self.policy_rng = StdRng::from_state(rng_state);
        self.now = r.varint()?;
        self.ticks_executed = r.varint()?;
        self.cycles_skipped = r.varint()?;
        self.ff_streak = r.varint_u32()?;
        self.ff_backoff = r.varint_u32()?;
        self.hint_backoff = r.varint_u32()?;
        self.hint_penalty = r.varint_u32()?;
        self.fault.col_reads = r.varint()?;
        self.fault.instrs_retired = r.varint()?;
        self.fault.completions_sent = r.varint()?;
        self.fault.transient_faults = r.varint()?;
        self.fault.fsm_hangs = r.varint()?;
        self.fault.completions_dropped = r.varint()?;
        self.fault.completions_delayed = r.varint()?;
        self.fault.rank_deaths = r.varint()?;
        for p in self.fault.poisoned.iter_mut() {
            *p = r.bool()?;
        }
        for d in self.fault.dead.iter_mut() {
            *d = r.bool()?;
        }
        self.fault.death_processed = r.bool()?;
        Ok(())
    }

    /// Fold this shard's injected-fault counters into `fr` (report
    /// support; ECC counts flow through the channel's `DramStats`).
    #[cold]
    pub(crate) fn add_fault_counts(&self, fr: &mut crate::report::FaultReport) {
        fr.transient_faults += self.fault.transient_faults;
        fr.fsm_hangs += self.fault.fsm_hangs;
        fr.completions_dropped += self.fault.completions_dropped;
        fr.completions_delayed += self.fault.completions_delayed;
        fr.rank_deaths += self.fault.rank_deaths;
    }
}
