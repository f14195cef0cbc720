//! The batched executor: [`JobGraph`] admission control, the per-tenant
//! job queue, and [`Ticket`]s. Admitted nodes go through the same
//! `submit_request` as an [`OpBuilder`](super::OpBuilder).

use chopim_nda::isa::Opcode;

use super::ops::{OpRequest, RequestKind};
use super::{
    LaunchOpts, MatId, OpHandle, Runtime, Session, SubmitError, TenantLimits, TenantReport, Ticket,
    VecId,
};

#[derive(Debug, Clone)]
pub(super) struct JobNode {
    /// The op; `req.deps` holds the node's `after_op` edges.
    pub(super) req: OpRequest,
    /// Intra-graph parents (indices of earlier nodes), appended to
    /// `req.deps` at admission.
    pub(super) parents: Vec<u32>,
}

/// A declarative batch of ops submitted as one unit through the
/// executor ([`Runtime::submit_job`]): nodes plus DAG edges, resolved
/// into real submissions at admission time. Building a graph performs no
/// runtime work, so graphs can be held in the bounded admission queue
/// and admitted later (queued graphs serialize into snapshots).
#[derive(Debug, Clone, Default)]
pub struct JobGraph {
    pub(super) nodes: Vec<JobNode>,
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
pub(super) enum JobState {
    Queued(JobGraph),
    Admitted { base: u32, end: u32 },
}

#[derive(Debug, Clone)]
pub(super) struct JobRecord {
    pub(super) state: JobState,
    pub(super) enqueued_at: u64,
}

impl Runtime {
    /// True while job admissions are pending: the front-end horizon must
    /// not skip past the next executed cycle while they drain.
    pub(crate) fn has_pending_admissions(&self) -> bool {
        !self.admit_pending.is_empty()
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
    pub(super) fn drain_admissions(&mut self, s: usize, now: u64) {
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
}
