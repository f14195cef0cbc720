//! Launch arbitration: the ready index, QoS virtual time, credit
//! waitlists, the retry wake heap, and [`Runtime::next_launches`].
//!
//! The one writer of arbitration state: other modules report events
//! through its functions, and only the snapshot codec touches the
//! fields directly. It decides from op gating state alone and never
//! names op payloads (`chopim-lint`'s boundary pass enforces that).

use std::cmp::Reverse;

use chopim_dram::perfcount::{self, Counter};

use super::{OpHandle, PendingLaunch, QosClass, Runtime, Session, SessionState};

/// Where a session currently lives in the ready index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum SchedState {
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

/// Virtual-time charge per released launch at weight 1. Weights divide
/// this, so even the maximum weight (1024) still charges 1024 per launch
/// — virtual time strictly advances and no batch tenant can be starved
/// by a heavier batch peer.
const QUANTUM: u64 = 1 << 20;

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
}

impl Runtime {
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
    /// idle→busy floor lives at op arrival instead — see `arrival_floor`.
    pub(super) fn ready_notify(&mut self, s: usize) {
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
                            let target = Self::redirect(alive, head.nda_idx);
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
                && deps_done_in(&self.sessions, &op.deps)
            {
                let head = op.pending.front().expect("nonempty");
                let barrier_ok = !op.barrier || head.chunk <= op.released_chunks;
                let target = Self::redirect(&self.alive, head.nda_idx);
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
                        let target = Self::redirect(alive, head.nda_idx);
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

    /// An op is about to join session `s`. On an idle → busy arrival,
    /// catch the session's virtual time up to its band clock so a
    /// long-idle tenant cannot cash in service it never contended for.
    /// (Wakes from credit parks keep their earned lead — see
    /// `ready_notify`.) `push_op` calls this before counting the op live.
    pub(super) fn arrival_floor(&mut self, s: usize) {
        let ss = &mut self.sessions[s];
        if ss.live_ops == 0 {
            ss.vtime = ss.vtime.max(self.vnow[ss.qos.band()]);
        }
    }

    /// Wake every credit-parked session: a quarantine changed the
    /// redirect targets, so each must re-classify against the survivor
    /// set.
    pub(super) fn wake_credit_parked(&mut self) {
        for n in 0..self.waitlists.len() {
            self.credit_returned(n);
        }
    }

    /// Earliest retry wake-up on the wake heap. Stale entries only make
    /// the answer conservative; `pre_stage` drains them.
    pub(super) fn next_retry_wake(&self) -> Option<u64> {
        self.wake.peek().map(|&Reverse((t, _))| t)
    }

    /// Rebuild the ready index from restored op state (snapshot resume):
    /// the index is derived, so it is rebuilt rather than serialized.
    ///
    /// Every session is classified against infinite queue space:
    /// sessions whose candidate is retry-held get exact wake-ups; the
    /// rest of the stageable ones enter Ready. A Ready entry that proves
    /// credit-blocked at the next real staging pass re-parks itself —
    /// premature entries cost executed cycles, never events, so the
    /// resumed report stays bit-identical.
    #[cold]
    pub(super) fn rebuild_ready_index(&mut self) {
        for ss in &mut self.sessions {
            ss.sched = SchedState::Untracked;
            ss.heap_stamp = 0;
        }
        self.ready[0].clear();
        self.ready[1].clear();
        self.wake.clear();
        for wl in &mut self.waitlists {
            wl.clear();
        }
        for s in 0..self.sessions.len() {
            if self
                .classify_and_park(s, &|_| usize::MAX, self.clock)
                .is_some()
            {
                self.ready_notify(s);
            }
        }
    }
}

/// True when every op in `deps` has retired. Takes the session table
/// rather than `&Runtime` so `classify_and_park` can call it while it
/// holds the waitlists mutably.
fn deps_done_in(sessions: &[SessionState], deps: &[OpHandle]) -> bool {
    deps.iter()
        .all(|&d| sessions[d.sess as usize].ops[d.idx as usize].done)
}
