//! The runtime's section of a CHSS snapshot (`docs/SNAPSHOT_FORMAT.md`):
//! `encode_state`, `decode_state`, and their helpers. Derived indexes
//! are rebuilt on decode, not serialized.

use std::collections::VecDeque;

use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
use chopim_mapping::color::{Color, Region, SystemRow};
use chopim_nda::isa::Opcode;
use chopim_nda::snapshot::{decode_instr, decode_layout, encode_instr, encode_layout};

use super::arbiter::SchedState;
use super::executor::{JobNode, JobRecord, JobState};
use super::ops::{OpRequest, RequestKind};
use super::{
    ArrayData, JobGraph, LaunchOpts, MatId, OpHandle, OpKind, OpState, OpStatus, PendingLaunch,
    QosClass, Runtime, SessionState, TenantLimits, TenantReport, VecId,
};

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
}

impl QosClass {
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

impl Runtime {
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
        // The reverse-dependency edges, live-op gauges, and ready index
        // are likewise derived — rebuild rather than serialize them.
        let mut dep_edges: Vec<(OpHandle, OpHandle)> = Vec::new();
        for (s, ss) in self.sessions.iter_mut().enumerate() {
            ss.live_ops = ss.ops.iter().filter(|o| !o.done).count() as u32;
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
        self.rebuild_ready_index();
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
