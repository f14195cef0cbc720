//! Op requests, splitting into per-rank instructions, completion, and
//! retirement: `submit_request` is the one way in, `retire` the one way
//! out.

use std::collections::VecDeque;

use chopim_mapping::color::Color;
use chopim_nda::isa::{NdaInstr, Opcode};

use super::{
    ArrayData, LaunchOpts, MatId, OpHandle, OpKind, OpState, OpStatus, PendingLaunch, Runtime,
    Session, Sharing, VecId,
};

/// What a requested op launches — one call surface shared by
/// [`OpBuilder`] and [`JobGraph`] nodes. Fully serializable, so queued
/// jobs survive snapshots.
#[derive(Debug, Clone)]
pub(super) enum RequestKind {
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
pub(super) struct OpRequest {
    pub(super) kind: RequestKind,
    pub(super) opts: LaunchOpts,
    /// Explicit DAG edges to already-submitted ops (any session).
    pub(super) deps: Vec<OpHandle>,
    /// Session program order (`false` = gated by `deps` alone).
    pub(super) ordered: bool,
}

impl OpRequest {
    pub(super) fn new(kind: RequestKind) -> Self {
        Self {
            kind,
            opts: LaunchOpts::default(),
            deps: Vec::new(),
            ordered: true,
        }
    }
}

/// A request split into per-rank instructions: what a splitter hands
/// `push_op`. The chunk table counts launches per barrier chunk.
struct Split {
    kind: OpKind,
    pending: VecDeque<PendingLaunch>,
    chunk_sizes: Vec<u32>,
    instr_base: u64,
}

impl Runtime {
    pub(super) fn take_instr_ids(&mut self, count: u64) -> u64 {
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
    pub(super) fn submit_request(&mut self, sess: Session, mut req: OpRequest) -> OpHandle {
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
        let failed_dep = op
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
        self.arrival_floor(sess.id as usize);
        let ss = &mut self.sessions[sess.id as usize];
        if !op.ordered {
            ss.unordered_live += 1;
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
    pub(super) fn base_color(&self, inputs: &[VecId], output: Option<VecId>) -> Option<Color> {
        output
            .or_else(|| inputs.first().copied())
            .map(|v| self.arrays[v.0].color)
    }

    /// True when input `v` needs a realignment copy to reach `base`.
    /// Private arrays hold a copy per NDA and are never copied. Both the
    /// copy insertion and the admission cost read this predicate.
    pub(super) fn needs_copy(&self, v: VecId, base: Color) -> bool {
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
    pub(super) fn retire(&mut self, h: OpHandle, now: u64) {
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
