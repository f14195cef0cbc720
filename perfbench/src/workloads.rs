//! The benchmark's three fixed workloads, built from the public
//! `chopim-core` API.
//!
//! They are defined here rather than taken from the experiment crate's
//! perf matrix so that editing that matrix cannot change what the
//! benchmark measures. Every workload is a closed loop: a resident
//! stream submits its next op only when the previous one completes, and
//! an SVRG segment is driven to completion before the next is
//! submitted. Inputs are a pure function of the seed; the machine
//! itself also takes the seed (host-core address streams, policy
//! coins).

use std::sync::{Arc, Mutex};

use chopim_core::prelude::*;

/// Cycles per `run` call on the streaming workloads: the unit the
/// traced run times as one `system.slice`.
const SLICE_CYCLES: u64 = 5_000;

/// Cycles of the naive-loop/fast-loop equivalence prefix on the
/// streaming workloads.
const PREFIX_CYCLES: u64 = 20_000;

/// SVRG epochs in the equivalence prefix.
const PREFIX_EPOCHS: usize = 2;

/// `colocated_8ch`: the AXPY-rows macro stream's input size.
const COLO_ROWS: usize = 64;
const COLO_D: usize = 16_384;
const COLO_ROWS_PER_INSTR: usize = 8;
const COLO_REP_CYCLES: u64 = 300_000;

/// `fleet_1k`: sessions, shared vectors, elements per vector.
const FLEET_TENANTS: usize = 1000;
const FLEET_VECTORS: usize = 16;
const FLEET_ELEMS: usize = 4096;
const FLEET_SCALE: f32 = 0.99;
const FLEET_REP_CYCLES: u64 = 300_000;

/// `svrg_epochs`: samples x features, epochs per rep, step size.
const SVRG_N: usize = 96;
const SVRG_D: usize = 256;
const SVRG_ROWS_PER_INSTR: usize = 8;
const SVRG_EPOCHS: usize = 200;
const SVRG_LR: f32 = 0.1;
/// Cycle cap for one SVRG segment; an op still live after this counts
/// as a failed check.
const SVRG_SEGMENT_CAP: u64 = 5_000_000;
/// Reduced-gradient tolerance against the f64 reference, relative to
/// `sum_i |alpha_i * X_ij|` for each feature `j`.
const SVRG_TOL: f64 = 1e-4;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Colocated8ch,
    Fleet1k,
    SvrgEpochs,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Colocated8ch, Kind::Fleet1k, Kind::SvrgEpochs];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Colocated8ch => "colocated_8ch",
            Kind::Fleet1k => "fleet_1k",
            Kind::SvrgEpochs => "svrg_epochs",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One line stating the input size and what the loop is.
    pub fn describe(self) -> String {
        match self {
            Kind::Colocated8ch => format!(
                "8 channels (16 NDA ranks), mix0's 8 cores, AXPY-rows stream {COLO_ROWS}x{COLO_D}; \
                 {COLO_REP_CYCLES} cycles per rep in {SLICE_CYCLES}-cycle slices; closed loop, 1 stream"
            ),
            Kind::Fleet1k => format!(
                "8 channels, host idle, {FLEET_TENANTS} SCAL sessions over {FLEET_VECTORS} vectors \
                 of {FLEET_ELEMS}; {FLEET_REP_CYCLES} cycles per rep in {SLICE_CYCLES}-cycle slices; \
                 closed loop, {FLEET_TENANTS} streams"
            ),
            Kind::SvrgEpochs => format!(
                "2 channels x 4 ranks, no refresh, SVRG host profile, queue cap 32; X {SVRG_N}x{SVRG_D}; \
                 {SVRG_EPOCHS} epochs per rep, one slice each; closed loop, segments driven to completion"
            ),
        }
    }
}

/// Deterministic input generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, on a 2^-24 grid.
    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32;
        lo + (hi - lo) * u
    }

    fn vec(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }
}

/// The inputs a workload hands the machine.
enum Inputs {
    Colocated {
        x: Vec<f32>,
        alphas: Vec<f32>,
        /// Per feature: `sum_i alpha_i * X_ij` and `sum_i |alpha_i *
        /// X_ij|`, in f64 — the reference for one completed op.
        col_sum: Vec<f64>,
        col_abs: Vec<f64>,
    },
    Fleet {
        vectors: Vec<Vec<f32>>,
    },
    Svrg {
        x: Vec<f32>,
        labels: Vec<f32>,
        w0: Vec<f32>,
    },
}

/// A workload with its seed-generated inputs.
pub struct Workload {
    pub kind: Kind,
    seed: u64,
    inputs: Inputs,
}

/// Every op a rep submitted, in submission order.
type OpLog = Arc<Mutex<Vec<OpHandle>>>;

/// One rep's machine-side state between spawn and the output check.
pub struct Live {
    ops: OpLog,
    state: State,
}

enum State {
    Colocated {
        stream: StreamId,
        a_pvt: VecId,
    },
    Fleet {
        streams: Vec<StreamId>,
        vecs: Vec<VecId>,
    },
    Svrg(Box<SvrgState>),
}

struct SvrgState {
    sess: Session,
    x: MatId,
    w: VecId,
    y: VecId,
    v: VecId,
    a_pvt: VecId,
    g: VecId,
    w_cur: Vec<f32>,
    /// Per epoch: the weights it used and the reduced gradient it
    /// produced, checked after the rep.
    epochs: Vec<(Vec<f32>, Vec<f32>)>,
    /// A segment that did not finish within its cap.
    stuck: Option<String>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = Rng(seed ^ 0x6368_6f70_696d_6265);
        let inputs = match kind {
            Kind::Colocated8ch => {
                let x = rng.vec(COLO_ROWS * COLO_D, -1.0, 1.0);
                let alphas = rng.vec(COLO_ROWS, 0.005, 0.015);
                let mut col_sum = vec![0.0f64; COLO_D];
                let mut col_abs = vec![0.0f64; COLO_D];
                for (row, &a) in x.chunks_exact(COLO_D).zip(&alphas) {
                    for (j, &xv) in row.iter().enumerate() {
                        let t = f64::from(a) * f64::from(xv);
                        col_sum[j] += t;
                        col_abs[j] += t.abs();
                    }
                }
                Inputs::Colocated {
                    x,
                    alphas,
                    col_sum,
                    col_abs,
                }
            }
            Kind::Fleet1k => Inputs::Fleet {
                vectors: (0..FLEET_VECTORS)
                    .map(|_| rng.vec(FLEET_ELEMS, -1.0, 1.0))
                    .collect(),
            },
            Kind::SvrgEpochs => Inputs::Svrg {
                x: rng.vec(SVRG_N * SVRG_D, -1.0, 1.0),
                labels: (0..SVRG_N)
                    .map(|_| if rng.next_u64() & 1 == 0 { -1.0 } else { 1.0 })
                    .collect(),
                w0: rng.vec(SVRG_D, -0.1, 0.1),
            },
        };
        Workload { kind, seed, inputs }
    }

    /// The machine configuration, with every engine knob that reads the
    /// environment pinned explicitly.
    pub fn config(&self, fast_forward: bool) -> ChopimConfig {
        let mut cfg = ChopimConfig::default();
        match self.kind {
            Kind::Colocated8ch => {
                cfg.dram = DramConfig::table_ii().with_channels(8);
                cfg.mix = MixId::new(0);
            }
            Kind::Fleet1k => cfg.dram = DramConfig::table_ii().with_channels(8),
            Kind::SvrgEpochs => {
                cfg.dram = DramConfig::table_ii()
                    .with_ranks(4)
                    .with_timing(TimingParams::ddr4_2400_no_refresh());
                cfg.custom_profiles = Some(vec![chopim_ml::SvrgTimeModel::svrg_host_profile()]);
                cfg.nda_queue_cap = 32;
            }
        }
        cfg.seed = self.seed;
        cfg.fast_forward = fast_forward;
        cfg.sim_threads = 1;
        cfg.fixed_window = false;
        cfg.trace_path = None;
        cfg.faults = FaultPlan::NONE;
        cfg
    }

    /// Slices per rep: `run` calls on the streaming workloads, epochs on
    /// `svrg_epochs`.
    pub fn slices_per_rep(&self) -> usize {
        match self.kind {
            Kind::Colocated8ch => (COLO_REP_CYCLES / SLICE_CYCLES) as usize,
            Kind::Fleet1k => (FLEET_REP_CYCLES / SLICE_CYCLES) as usize,
            Kind::SvrgEpochs => SVRG_EPOCHS,
        }
    }

    /// Allocate and initialise the operands and spawn the sessions and
    /// streams.
    pub fn spawn(&self, sys: &mut ChopimSystem) -> Live {
        let ops: OpLog = Arc::default();
        let state = match &self.inputs {
            Inputs::Colocated { x, alphas, .. } => {
                let xs = sys.runtime.matrix(COLO_ROWS, COLO_D);
                sys.runtime.write_matrix(xs, x);
                let a_pvt = sys.runtime.vector(COLO_D, Sharing::Private);
                let alphas = alphas.clone();
                let log = ops.clone();
                let sess = sys.runtime.default_session();
                let stream = sys.spawn_stream(sess, move |rt, s| {
                    let h = s
                        .axpy_rows(rt, a_pvt, alphas.clone(), xs, COLO_ROWS_PER_INSTR)
                        .submit();
                    log.lock().expect("op log lock").push(h);
                    h
                });
                State::Colocated { stream, a_pvt }
            }
            Inputs::Fleet { vectors } => {
                let vecs: Vec<VecId> = vectors
                    .iter()
                    .map(|data| {
                        let v = sys.runtime.vector(FLEET_ELEMS, Sharing::Shared);
                        sys.runtime.write_vector(v, data);
                        v
                    })
                    .collect();
                let streams = (0..FLEET_TENANTS)
                    .map(|t| {
                        let sess = sys.runtime.create_session();
                        sys.runtime.set_qos(sess, fleet_qos(t));
                        let x = vecs[t % FLEET_VECTORS];
                        let log = ops.clone();
                        sys.spawn_stream(sess, move |rt, s| {
                            let h = s
                                .elementwise(rt, Opcode::Scal, vec![FLEET_SCALE], vec![], Some(x))
                                .submit();
                            log.lock().expect("op log lock").push(h);
                            h
                        })
                    })
                    .collect();
                State::Fleet { streams, vecs }
            }
            Inputs::Svrg { x, w0, .. } => {
                let xm = sys.runtime.matrix(SVRG_N, SVRG_D);
                sys.runtime.write_matrix(xm, x);
                let w = sys.runtime.vector(SVRG_D, Sharing::Shared);
                sys.runtime.write_vector(w, w0);
                State::Svrg(Box::new(SvrgState {
                    sess: sys.runtime.create_session(),
                    x: xm,
                    w,
                    y: sys.runtime.vector(SVRG_N, Sharing::Shared),
                    v: sys.runtime.vector(SVRG_N, Sharing::Shared),
                    a_pvt: sys.runtime.vector(SVRG_D, Sharing::Private),
                    g: sys.runtime.vector(SVRG_D, Sharing::Shared),
                    w_cur: w0.clone(),
                    epochs: Vec::with_capacity(SVRG_EPOCHS),
                    stuck: None,
                }))
            }
        };
        Live { ops, state }
    }

    /// Advance one slice: `SLICE_CYCLES` of `run` on the streaming
    /// workloads, one summarization epoch on `svrg_epochs`.
    pub fn step(&self, sys: &mut ChopimSystem, live: &mut Live) {
        match (&mut live.state, &self.inputs) {
            (State::Svrg(st), Inputs::Svrg { labels, .. }) => {
                if st.stuck.is_none() {
                    svrg_epoch(sys, st, labels, &live.ops);
                }
            }
            _ => sys.run(SLICE_CYCLES),
        }
    }

    /// Run the equivalence prefix with the naive (`fast_forward =
    /// false`) or the event-horizon loop and return its report.
    pub fn prefix_report(&self, fast_forward: bool) -> SimReport {
        let mut sys = ChopimSystem::new(self.config(fast_forward));
        let mut live = self.spawn(&mut sys);
        match self.kind {
            Kind::SvrgEpochs => {
                for _ in 0..PREFIX_EPOCHS {
                    self.step(&mut sys, &mut live);
                }
            }
            _ => sys.run(PREFIX_CYCLES),
        }
        sys.report()
    }

    /// `(submitted, concluded other than Completed)` over the rep's ops.
    pub fn op_counts(&self, sys: &ChopimSystem, live: &Live) -> (u64, u64) {
        let ops = live.ops.lock().expect("op log lock");
        let failed = ops
            .iter()
            .filter(|&&h| sys.runtime.op_status(h).is_some_and(OpStatus::is_failure))
            .count();
        (ops.len() as u64, failed as u64)
    }

    /// Check the rep's functional outputs against references computed
    /// here from the inputs; returns one message per problem.
    pub fn check(&self, sys: &ChopimSystem, live: &Live) -> Vec<String> {
        let eps = f64::from(f32::EPSILON);
        let mut problems = Vec::new();
        match (&live.state, &self.inputs) {
            (
                State::Colocated { stream, a_pvt },
                Inputs::Colocated {
                    col_sum, col_abs, ..
                },
            ) => {
                // Each completed op adds sum_i alpha_i X_i into the
                // per-NDA private copies; their sum is the accumulator.
                // Tolerance: the recursive-summation bound, k * eps *
                // sum|terms| for k = completions * rows additions.
                let c = sys.stream_completions(*stream) as f64;
                if c == 0.0 {
                    problems.push("colocated_8ch: no AXPY-rows op completed".into());
                }
                let ndas = sys.runtime.nda_ranks().len();
                for j in 0..COLO_D {
                    let got: f64 = (0..ndas)
                        .map(|n| f64::from(sys.runtime.read_private(*a_pvt, n)[j]))
                        .sum();
                    let want = c * col_sum[j];
                    let tol = c * COLO_ROWS as f64 * eps * c * col_abs[j];
                    if (got - want).abs() > tol {
                        problems.push(format!(
                            "colocated_8ch: accumulator[{j}] = {got}, reference {want} (tol {tol:e})"
                        ));
                        break;
                    }
                }
            }
            (State::Fleet { streams, vecs }, Inputs::Fleet { vectors }) => {
                // Vector k holds its initial data scaled once per
                // completed SCAL on it; each f32 multiply rounds by at
                // most eps/2.
                let mut scaled = [0u64; FLEET_VECTORS];
                for (t, &s) in streams.iter().enumerate() {
                    scaled[t % FLEET_VECTORS] += sys.stream_completions(s);
                }
                if scaled.iter().all(|&c| c == 0) {
                    problems.push("fleet_1k: no SCAL op completed".into());
                }
                let a = f64::from(FLEET_SCALE);
                for (k, (&v, init)) in vecs.iter().zip(vectors).enumerate() {
                    let c = scaled[k];
                    let factor = a.powi(i32::try_from(c).expect("completions fit i32"));
                    let tol = (c as f64 + 1.0) * eps;
                    let data = sys.runtime.read_vector(v);
                    if let Some(i) = (0..FLEET_ELEMS).find(|&i| {
                        let want = f64::from(init[i]) * factor;
                        (f64::from(data[i]) - want).abs() > tol * want.abs()
                    }) {
                        problems.push(format!(
                            "fleet_1k: vector {k}[{i}] = {}, reference {} after {c} scalings",
                            data[i],
                            f64::from(init[i]) * factor
                        ));
                    }
                }
            }
            (State::Svrg(st), Inputs::Svrg { x, labels, .. }) => {
                if let Some(why) = &st.stuck {
                    problems.push(why.clone());
                }
                for (e, (w, grad)) in st.epochs.iter().enumerate() {
                    if let Some(msg) = svrg_gradient_error(x, labels, w, grad) {
                        problems.push(format!("svrg_epochs: epoch {e}: {msg}"));
                        break;
                    }
                }
            }
            _ => unreachable!("state and inputs come from the same workload"),
        }
        problems
    }
}

/// The deterministic QoS class of fleet tenant `t`: every 32nd is
/// latency-sensitive, the rest are batch with weights rotating through
/// {1, 2, 4}.
fn fleet_qos(t: usize) -> QosClass {
    if t.is_multiple_of(32) {
        QosClass::LatencySensitive
    } else {
        QosClass::Batch {
            weight: [1, 2, 4][t % 3],
        }
    }
}

/// Drive `h` to completion; false if it is still live after the cap.
fn drive_done(sys: &mut ChopimSystem, h: OpHandle) -> bool {
    sys.drive(h, SVRG_SEGMENT_CAP);
    sys.runtime.op_done(h)
}

/// One SVRG summarization epoch (the Fig. 8 kernel): GEMV `y = X w`,
/// XMY `v = labels * y`, host sigmoid, SCAL by `1/n`, then the
/// per-sample AXPY-rows into private accumulators, reduced on the host;
/// the host then steps `w` against the reduced gradient.
fn svrg_epoch(sys: &mut ChopimSystem, st: &mut SvrgState, labels: &[f32], ops: &OpLog) {
    let submit = |h: OpHandle| {
        ops.lock().expect("op log lock").push(h);
        h
    };
    let rt = &mut sys.runtime;
    rt.write_vector(st.v, labels);
    let g1 = submit(st.sess.gemv(rt, st.y, st.x, st.w).submit());
    let g2 = submit(
        st.sess
            .elementwise(rt, Opcode::Xmy, vec![], vec![st.v, st.y], Some(st.v))
            .after(g1)
            .submit(),
    );
    if !drive_done(sys, g2) {
        st.stuck = Some("svrg_epochs: GEMV+XMY segment did not finish".into());
        return;
    }
    sys.runtime.host_sigmoid(st.v);
    let scale = 1.0 / SVRG_N as f32;
    let g3 = submit(
        st.sess
            .elementwise(
                &mut sys.runtime,
                Opcode::Scal,
                vec![scale],
                vec![],
                Some(st.v),
            )
            .submit(),
    );
    if !drive_done(sys, g3) {
        st.stuck = Some("svrg_epochs: SCAL segment did not finish".into());
        return;
    }
    let alphas = sys.runtime.read_vector(st.v).to_vec();
    sys.runtime.clear_private(st.a_pvt);
    let g4 = submit(
        st.sess
            .axpy_rows(
                &mut sys.runtime,
                st.a_pvt,
                alphas,
                st.x,
                SVRG_ROWS_PER_INSTR,
            )
            .no_barrier()
            .submit(),
    );
    if !drive_done(sys, g4) {
        st.stuck = Some("svrg_epochs: AXPY-rows segment did not finish".into());
        return;
    }
    sys.runtime.host_reduce(st.g, st.a_pvt);
    let grad = sys.runtime.read_vector(st.g).to_vec();
    let w_used = st.w_cur.clone();
    for (w, g) in st.w_cur.iter_mut().zip(&grad) {
        *w -= SVRG_LR * g;
    }
    sys.runtime.write_vector(st.w, &st.w_cur);
    st.epochs.push((w_used, grad));
}

/// Compare one epoch's reduced gradient with an f64 reference of the
/// same kernel: `alpha_i = sigmoid(label_i * X_i . w) / n`, `g_j =
/// sum_i alpha_i X_ij`.
fn svrg_gradient_error(x: &[f32], labels: &[f32], w: &[f32], grad: &[f32]) -> Option<String> {
    let mut reference = vec![0.0f64; SVRG_D];
    let mut bound = vec![0.0f64; SVRG_D];
    for (row, &label) in x.chunks_exact(SVRG_D).zip(labels) {
        let margin: f64 = row
            .iter()
            .zip(w)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let alpha = 1.0 / (1.0 + (-f64::from(label) * margin).exp()) / SVRG_N as f64;
        for (j, &xv) in row.iter().enumerate() {
            reference[j] += alpha * f64::from(xv);
            bound[j] += (alpha * f64::from(xv)).abs();
        }
    }
    (0..SVRG_D).find_map(|j| {
        let err = (f64::from(grad[j]) - reference[j]).abs();
        (err > SVRG_TOL * bound[j]).then(|| {
            format!(
                "g[{j}] = {}, reference {} (error {err:e} > {SVRG_TOL:e} x {:e})",
                grad[j], reference[j], bound[j]
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svrg_inputs(seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        match Workload::new(Kind::SvrgEpochs, seed).inputs {
            Inputs::Svrg { x, labels, w0 } => (x, labels, w0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(svrg_inputs(7), svrg_inputs(7));
        assert_ne!(svrg_inputs(7).0, svrg_inputs(8).0);
    }

    #[test]
    fn gradient_check_accepts_the_reference_and_flags_an_error() {
        let (x, labels, w) = svrg_inputs(3);
        let mut grad = vec![0.0f32; SVRG_D];
        for (row, &label) in x.chunks_exact(SVRG_D).zip(&labels) {
            let margin: f32 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
            let alpha = 1.0 / (1.0 + (-label * margin).exp()) / SVRG_N as f32;
            for (g, xv) in grad.iter_mut().zip(row) {
                *g += alpha * xv;
            }
        }
        assert_eq!(svrg_gradient_error(&x, &labels, &w, &grad), None);
        grad[17] *= 1.01;
        let msg = svrg_gradient_error(&x, &labels, &w, &grad).expect("a 1% error is flagged");
        assert!(msg.starts_with("g[17]"), "{msg}");
    }

    #[test]
    fn every_workload_passes_its_check_on_the_prefix() {
        for kind in Kind::ALL {
            let w = Workload::new(kind, 5);
            let mut sys = ChopimSystem::new(w.config(true));
            let mut live = w.spawn(&mut sys);
            // Long enough for a colocated AXPY-rows op (~150k cycles)
            // to complete.
            let steps = if kind == Kind::SvrgEpochs { 4 } else { 40 };
            for _ in 0..steps {
                w.step(&mut sys, &mut live);
            }
            assert_eq!(
                w.check(&sys, &live),
                Vec::<String>::new(),
                "{}",
                kind.name()
            );
            let (submitted, failed) = w.op_counts(&sys, &live);
            assert!(submitted > 0 && failed == 0, "{}", kind.name());
        }
    }
}
