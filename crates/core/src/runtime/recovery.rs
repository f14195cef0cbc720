//! Fault recovery (`docs/FAULTS.md`): conclusion and the failure
//! cascade, retries with capped backoff, deadlines, and rank quarantine
//! with launch redirection. Without a fault plan no NDA is quarantined,
//! so `redirect` returns its argument.

use super::{OpHandle, OpStatus, PendingLaunch, Runtime};

impl Runtime {
    /// Configure the retry policy (called once by the system from its
    /// `ChopimConfig`).
    pub(crate) fn configure_recovery(
        &mut self,
        retry_limit: u32,
        retry_backoff: u64,
        retry_backoff_cap: u64,
    ) {
        self.retry_limit = retry_limit;
        self.retry_backoff = retry_backoff.max(1);
        self.retry_backoff_cap = retry_backoff_cap.max(self.retry_backoff);
    }

    /// Quarantine NDA `nda` permanently (rank-death completion):
    /// subsequent launches re-shard across surviving ranks. Idempotent.
    #[cold]
    pub(crate) fn quarantine(&mut self, nda: usize) {
        if self.alive[nda] {
            self.alive[nda] = false;
            self.counters.ranks_quarantined += 1;
            self.wake_credit_parked();
        }
    }

    /// The NDA `nda` launches should target: `nda` itself while alive,
    /// else the next surviving NDA (wrapping). With every NDA dead the
    /// original index is returned and the launch fails its retries out.
    pub(super) fn redirect(alive: &[bool], nda: usize) -> usize {
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
    pub(super) fn apply_recovery_opts(
        &mut self,
        h: OpHandle,
        deadline: Option<u64>,
        fallback_host: bool,
    ) {
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
        if let Some(t) = self.next_retry_wake() {
            wake = wake.min(t);
        }
        (wake != u64::MAX).then(|| wake.max(now))
    }
}
