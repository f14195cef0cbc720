//! Property tests of the QoS-class arbiter and the batched submission
//! executor through the full simulated machine.
//!
//! The indexed scheduler's central claim — that the ready-index pick is
//! always the pick a naive scan over *all* sessions would make — is
//! enforced inside `Runtime::next_launches` itself: in debug builds
//! every staged pick is re-derived by a full-scan oracle
//! (`debug_assert_eq!`) whenever the machine has ≤ 64 sessions. Every
//! randomized case in this suite therefore pins the O(active) index
//! against the O(sessions) reference scan on top of the properties it
//! asserts explicitly:
//!
//! * DAG edges still gate staging under mixed QoS classes;
//! * weighted batch tenants receive launch shares proportional to their
//!   weights (within a bound), and nobody starves — not even a weight-1
//!   tenant against a weight-1024 one;
//! * latency-sensitive tenants wait no longer for their first launch
//!   than the batch tenants they preempt;
//! * the whole QoS schedule is bit-identical across the naive and
//!   fast-forward loops;
//! * executor admission control: in-flight caps admit, the bounded
//!   queue parks in FIFO order, overflow rejects deterministically with
//!   `QueueFull`, and rejection leaves the session able to resubmit;
//! * a graph's cost counts its realignment copies, and a graph that can
//!   never fit under the cap is refused with `ExceedsCap`;
//! * `OpBuilder` chains and `JobGraph` nodes are one submission path:
//!   the same op set through either produces bit-identical reports.

use chopim_core::prelude::*;
use proptest::prelude::*;

fn sys_with(scheduler: SchedulerKind, seed: u64) -> ChopimSystem {
    ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        mix: MixId::new(4),
        scheduler,
        seed,
        ..ChopimConfig::default()
    })
}

fn scheduler_of(pick: bool) -> SchedulerKind {
    if pick {
        SchedulerKind::Fcfs
    } else {
        SchedulerKind::FrFcfs
    }
}

/// A machine whose per-rank NDA queues are shallow enough that every
/// launch slot is contended: with credits this scarce the weighted
/// arbiter — not queue drain order — decides who advances, which is
/// the regime the fairness properties are about.
fn contended_sys(scheduler: SchedulerKind, seed: u64) -> ChopimSystem {
    ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        scheduler,
        seed,
        nda_queue_cap: 1,
        ..ChopimConfig::default()
    })
}

fn class_of(tag: u8) -> QosClass {
    match tag % 4 {
        0 => QosClass::LatencySensitive,
        1 => QosClass::Batch { weight: 1 },
        2 => QosClass::Batch { weight: 4 },
        _ => QosClass::Batch { weight: 16 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random op graphs across three sessions with random QoS classes:
    /// whatever the class mix, graph shape, scheduler, or seed, the
    /// machine quiesces and no op's first launch is staged before every
    /// declared parent has retired. (And, per the debug oracle, every
    /// arbitration pick along the way equals the full-scan pick.)
    #[test]
    fn prop_qos_dag_respects_dependencies(
        seed in 0u64..1000,
        fcfs in any::<bool>(),
        classes in prop::collection::vec(any::<u8>(), 3),
        shape in prop::collection::vec((0u8..3, any::<bool>(), any::<bool>()), 4..10),
    ) {
        let mut sys = sys_with(scheduler_of(fcfs), seed);
        let s0 = sys.runtime.default_session();
        let s1 = sys.runtime.create_session();
        let s2 = sys.runtime.create_session();
        let sessions = [s0, s1, s2];
        for (s, &tag) in sessions.iter().zip(&classes) {
            sys.runtime.set_qos(*s, class_of(tag));
        }
        let src = sys.runtime.vector(2048, Sharing::Shared);
        sys.runtime.write_vector(src, &vec![1.0; 2048]);

        let mut handles: Vec<OpHandle> = Vec::new();
        for (i, &(which, unordered, dep_near)) in shape.iter().enumerate() {
            let sess = sessions[which as usize % sessions.len()];
            let out = sys.runtime.vector(2048, Sharing::Shared);
            let mut b = sess
                .elementwise(&mut sys.runtime, Opcode::Axpy, vec![0.5], vec![src], Some(out))
                .granularity_lines(64);
            if let Some(&prev) = handles.last() {
                if dep_near {
                    b = b.after(prev);
                }
            }
            if i >= 2 {
                b = b.after(handles[i / 2]);
            }
            if unordered {
                b = b.unordered();
            }
            handles.push(b.submit());
        }

        let used = sys.drive(Waitable::Quiescent, 400_000_000);
        prop_assert!(used < 400_000_000, "graph did not quiesce");
        prop_assert!(sys.runtime.quiescent());

        for (i, &(_, _, dep_near)) in shape.iter().enumerate() {
            let child = handles[i];
            let mut parents = Vec::new();
            if i >= 1 && dep_near {
                parents.push(handles[i - 1]);
            }
            if i >= 2 {
                parents.push(handles[i / 2]);
            }
            let staged = sys.runtime.op_first_staged_at(child).expect("staged");
            for p in parents {
                let retired = sys.runtime.op_finished_at(p).expect("parent finished");
                prop_assert!(
                    staged >= retired,
                    "op {i} staged at {staged} before parent retired at {retired}"
                );
            }
        }
    }

    /// Two backlogged batch tenants streaming the identical chunked
    /// workload with weights `1` and `w`: the deficit scheduler must
    /// hand the heavier tenant a proportionally larger launch share.
    /// Completions normalized by weight must agree within a factor of
    /// 2.5, and the light tenant must never starve.
    #[test]
    fn prop_weighted_fairness_within_bound(
        seed in 0u64..1000,
        fcfs in any::<bool>(),
        wsel in 0u8..3,
    ) {
        let w = [2u32, 4, 8][wsel as usize];
        let mut sys = contended_sys(scheduler_of(fcfs), seed);
        let sa = sys.runtime.default_session();
        let sb = sys.runtime.create_session();
        sys.runtime.set_qos(sa, QosClass::Batch { weight: 1 });
        sys.runtime.set_qos(sb, QosClass::Batch { weight: w });
        let xa = sys.runtime.vector(1 << 13, Sharing::Shared);
        let xb = sys.runtime.vector(1 << 13, Sharing::Shared);
        let st_a = sys.spawn_stream(sa, move |rt, s| {
            s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(xa))
                .granularity_lines(8)
                .no_barrier()
                .submit()
        });
        let st_b = sys.spawn_stream(sb, move |rt, s| {
            s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(xb))
                .granularity_lines(8)
                .no_barrier()
                .submit()
        });
        sys.run(200_000);
        let (a, b) = (sys.stream_completions(st_a), sys.stream_completions(st_b));
        prop_assert!(a > 0, "weight-1 tenant starved against weight-{w}: {a} vs {b}");
        prop_assert!(b > a, "weight-{w} tenant should outrun weight-1: {a} vs {b}");
        let (na, nb) = (a as f64, b as f64 / w as f64);
        prop_assert!(
            na.max(nb) <= 2.5 * na.min(nb),
            "weight-normalized completions diverged: {a} vs {b} (weight {w})"
        );
    }
}

/// The starvation limit case: a weight-1 tenant sharing the machine
/// with a weight-1024 one. The deficit charge keeps the light tenant's
/// virtual time finitely behind, so it must still complete work.
#[test]
fn extreme_weight_ratio_does_not_starve() {
    let mut sys = contended_sys(SchedulerKind::FrFcfs, 3);
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    sys.runtime.set_qos(sa, QosClass::Batch { weight: 1 });
    sys.runtime.set_qos(sb, QosClass::Batch { weight: 1024 });
    let xa = sys.runtime.vector(1 << 13, Sharing::Shared);
    let xb = sys.runtime.vector(1 << 13, Sharing::Shared);
    let st_a = sys.spawn_stream(sa, move |rt, s| {
        s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(xa))
            .granularity_lines(8)
            .no_barrier()
            .submit()
    });
    let st_b = sys.spawn_stream(sb, move |rt, s| {
        s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(xb))
            .granularity_lines(8)
            .no_barrier()
            .submit()
    });
    sys.run(200_000);
    let (a, b) = (sys.stream_completions(st_a), sys.stream_completions(st_b));
    assert!(a > 0, "weight-1 tenant starved: {a} vs {b}");
    assert!(b > 0, "heavy tenant made no progress: {a} vs {b}");
}

/// A latency-sensitive tenant contending with three batch tenants: the
/// strict band priority must show up in the metering — the LS tenant's
/// mean launch wait may not exceed any batch tenant's, and batch
/// tenants must still progress (no starvation across bands, since ops
/// fully staged stop competing for the launch slot).
#[test]
fn latency_sensitive_waits_less_than_batch() {
    let mut sys = sys_with(SchedulerKind::FrFcfs, 5);
    let ls = sys.runtime.default_session();
    sys.runtime.set_qos(ls, QosClass::LatencySensitive);
    let x = sys.runtime.vector(1 << 13, Sharing::Shared);
    sys.spawn_stream(ls, move |rt, s| {
        s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(x))
            .granularity_lines(8)
            .no_barrier()
            .submit()
    });
    for _ in 0..3 {
        let s = sys.runtime.create_session();
        sys.runtime.set_qos(s, QosClass::Batch { weight: 4 });
        let v = sys.runtime.vector(1 << 13, Sharing::Shared);
        sys.spawn_stream(s, move |rt, sess| {
            sess.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(v))
                .granularity_lines(8)
                .no_barrier()
                .submit()
        });
    }
    sys.run(200_000);
    let report = sys.report();
    assert_eq!(report.tenants.len(), 4);
    let mean_wait = |t: &TenantReport| t.launch_wait_cycles as f64 / t.ops_completed.max(1) as f64;
    let ls_t = &report.tenants[0];
    assert!(ls_t.ops_completed > 0, "LS tenant completed nothing");
    for batch in &report.tenants[1..] {
        assert!(
            batch.ops_completed > 0,
            "batch tenant {} starved by the LS band",
            batch.session
        );
        assert!(
            mean_wait(ls_t) <= mean_wait(batch),
            "LS mean launch wait {} exceeds batch tenant {}'s {}",
            mean_wait(ls_t),
            batch.session,
            mean_wait(batch)
        );
    }
}

/// Run a 12-tenant mixed-class streaming fleet on a 4-channel machine
/// under one engine mode and return the finalized report.
fn fleet_report(seed: u64, classes: &[u8], ff: bool) -> SimReport {
    let mut cfg = ChopimConfig {
        dram: DramConfig::table_ii().with_channels(4),
        seed,
        ..ChopimConfig::default()
    };
    cfg.fast_forward = ff;
    let mut sys = ChopimSystem::new(cfg);
    let n = 1 << 12;
    let vecs: Vec<VecId> = (0..6)
        .map(|_| sys.runtime.vector(n, Sharing::Shared))
        .collect();
    let data: Vec<f32> = (0..n).map(|i| (i % 51) as f32 * 0.1 - 2.0).collect();
    for &v in &vecs {
        sys.runtime.write_vector(v, &data);
    }
    for (t, &tag) in classes.iter().enumerate() {
        let s = if t == 0 {
            sys.runtime.default_session()
        } else {
            sys.runtime.create_session()
        };
        sys.runtime.set_qos(s, class_of(tag));
        let x = vecs[t % vecs.len()];
        sys.spawn_stream(s, move |rt, sess| {
            sess.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(x))
                .submit()
        });
    }
    sys.run(20_000);
    sys.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The QoS schedule is an engine-mode invariant: the naive and
    /// fast-forward loops must produce bit-identical reports (tenant
    /// metering included) for a random mixed-class fleet.
    #[test]
    fn prop_qos_schedule_is_engine_mode_invariant(
        seed in 0u64..1000,
        classes in prop::collection::vec(any::<u8>(), 12),
    ) {
        let oracle = fleet_report(seed, &classes, true);
        prop_assert!(!oracle.tenants.is_empty());
        let naive = fleet_report(seed, &classes, false);
        prop_assert_eq!(
            &oracle, &naive,
            "naive loop diverged from the fast path (seed {})", seed
        );
    }
}

/// Admission control end to end: a cap-1 session with a depth-2 queue
/// admits the first job, parks the next two in FIFO order, rejects the
/// fourth with `QueueFull`, drains the queue as ops retire, and meters
/// every step in `SimReport.tenants`.
#[test]
fn executor_cap_queue_reject_and_drain() {
    let mut sys = sys_with(SchedulerKind::FrFcfs, 9);
    let s = sys.runtime.create_session();
    sys.runtime.set_tenant_limits(
        s,
        TenantLimits {
            max_inflight_ops: 1,
            queue_depth: 2,
        },
    );
    let x = sys.runtime.vector(1 << 13, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; 1 << 13]);
    let job = || {
        let mut g = JobGraph::new();
        g.elementwise(Opcode::Scal, vec![0.5], vec![], Some(x));
        g
    };
    let t1 = sys.runtime.submit_job(s, job()).expect("admitted");
    let t2 = sys.runtime.submit_job(s, job()).expect("queued");
    let t3 = sys.runtime.submit_job(s, job()).expect("queued");
    assert!(sys.runtime.ticket_admitted(t1));
    assert!(!sys.runtime.ticket_admitted(t2) && !sys.runtime.ticket_admitted(t3));
    assert_eq!(
        sys.runtime.submit_job(s, job()),
        Err(SubmitError::QueueFull)
    );

    // Drive until t2 is admitted: FIFO means t3 must still be parked at
    // that instant (the cap re-admits exactly one job).
    let mut budget = 0u64;
    while !sys.runtime.ticket_admitted(t2) {
        sys.run(500);
        budget += 500;
        assert!(budget < 5_000_000, "queued job never admitted");
    }
    assert!(
        sys.runtime.ticket_done(t1),
        "cap-1: t2 admitted implies t1 retired"
    );
    assert!(
        !sys.runtime.ticket_admitted(t3),
        "FIFO admission violated: t3 admitted alongside t2"
    );

    // A rejected submit leaves the session fully functional: once the
    // queue has drained, the same graph is accepted.
    while !sys.runtime.ticket_done(t3) {
        sys.run(500);
        budget += 500;
        assert!(budget < 5_000_000, "queue never drained");
    }
    let t4 = sys
        .runtime
        .submit_job(s, job())
        .expect("resubmit after drain");
    while !sys.runtime.ticket_done(t4) {
        sys.run(500);
        budget += 500;
        assert!(budget < 5_000_000, "resubmitted job never finished");
    }
    sys.run(1_000);
    let report = sys.report();
    let meter = report
        .tenants
        .iter()
        .find(|t| t.session == 1)
        .expect("tenant meter");
    assert_eq!(meter.jobs_rejected, 1);
    assert_eq!(meter.ops_completed, 4);
    assert_eq!(meter.ops_submitted, 4);
    assert!(
        meter.admission_wait_cycles > 0,
        "queued jobs must accrue wait"
    );
}

/// With the default zero-depth queue, exceeding the in-flight cap is an
/// immediate deterministic reject — no silent queueing.
#[test]
fn executor_zero_depth_queue_rejects_immediately() {
    let mut sys = sys_with(SchedulerKind::FrFcfs, 11);
    let s = sys.runtime.create_session();
    sys.runtime.set_tenant_limits(
        s,
        TenantLimits {
            max_inflight_ops: 1,
            queue_depth: 0,
        },
    );
    let x = sys.runtime.vector(1 << 12, Sharing::Shared);
    let mut g = JobGraph::new();
    g.elementwise(Opcode::Scal, vec![2.0], vec![], Some(x));
    let t1 = sys.runtime.submit_job(s, g).expect("admitted");
    let mut g = JobGraph::new();
    g.elementwise(Opcode::Scal, vec![2.0], vec![], Some(x));
    assert_eq!(sys.runtime.submit_job(s, g), Err(SubmitError::QueueFull));
    let mut budget = 0u64;
    while !sys.runtime.ticket_done(t1) {
        sys.run(500);
        budget += 500;
        assert!(budget < 5_000_000, "admitted job never finished");
    }
}

/// Drive `sys` in 500-cycle steps until `done` holds (bounded).
fn run_until(sys: &mut ChopimSystem, what: &str, done: impl Fn(&Runtime) -> bool) {
    let mut budget = 0u64;
    while !done(&sys.runtime) {
        sys.run(500);
        budget += 500;
        assert!(budget < 5_000_000, "{what}");
    }
}

/// A graph that costs more than the in-flight cap could never be
/// admitted and would block the session's FIFO queue forever: it is
/// refused at submission, and a graph at the cap still runs.
#[test]
fn executor_rejects_graph_over_cap() {
    let mut sys = sys_with(SchedulerKind::FrFcfs, 13);
    let s = sys.runtime.create_session();
    sys.runtime.set_tenant_limits(
        s,
        TenantLimits {
            max_inflight_ops: 2,
            queue_depth: 1,
        },
    );
    let x = sys.runtime.vector(1 << 12, Sharing::Shared);
    let graph = |nodes: usize| {
        let mut g = JobGraph::new();
        for _ in 0..nodes {
            g.elementwise(Opcode::Scal, vec![0.5], vec![], Some(x));
        }
        g
    };
    assert_eq!(
        sys.runtime.submit_job(s, graph(3)),
        Err(SubmitError::ExceedsCap)
    );
    let t = sys.runtime.submit_job(s, graph(2)).expect("fits the cap");
    assert!(sys.runtime.ticket_admitted(t));
    run_until(&mut sys, "graph at the cap never retired", |rt| {
        rt.ticket_done(t)
    });
    let report = sys.report();
    let meter = &report.tenants[1];
    assert_eq!((meter.jobs_rejected, meter.ops_completed), (1, 2));
}

/// Admission counts the realignment copies a graph inserts, as
/// `TenantLimits::max_inflight_ops` documents: a one-node AXPY whose
/// input has another color costs two live ops.
#[test]
fn executor_counts_realignment_copies() {
    let mut sys = sys_with(SchedulerKind::FrFcfs, 17);
    let n = 1 << 12;
    let x = sys.runtime.vector_colored(n, Sharing::Shared, Color(1));
    let y = sys.runtime.vector_colored(n, Sharing::Shared, Color(5));
    let z = sys.runtime.vector(n, Sharing::Shared);
    let mixed = || {
        let mut g = JobGraph::new();
        g.elementwise(Opcode::Axpy, vec![2.0], vec![x], Some(y));
        g
    };
    let s = sys.runtime.create_session();
    let limits = |max_inflight_ops| TenantLimits {
        max_inflight_ops,
        queue_depth: 1,
    };
    sys.runtime.set_tenant_limits(s, limits(1));
    assert_eq!(
        sys.runtime.submit_job(s, mixed()),
        Err(SubmitError::ExceedsCap)
    );
    assert_eq!(
        sys.runtime.realignment_copies, 0,
        "a refused graph inserts nothing"
    );

    // Cap 2 with one builder op live: the graph's cost of 2 does not fit
    // beside it, so the graph queues until that op retires.
    sys.runtime.set_tenant_limits(s, limits(2));
    let live = s
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![0.5], vec![], Some(z))
        .submit();
    let t = sys.runtime.submit_job(s, mixed()).expect("queue has room");
    assert!(
        !sys.runtime.ticket_admitted(t),
        "copy must count toward the cap"
    );
    run_until(&mut sys, "queued graph never retired", |rt| {
        rt.ticket_done(t)
    });
    assert!(sys.runtime.op_done(live));
    assert_eq!(sys.runtime.realignment_copies, 1);
    let report = sys.report();
    assert_eq!(report.tenants[1].ops_submitted, 3);
}

/// One op set submitted through `OpBuilder` or as one `JobGraph`: a
/// realigned elementwise with non-default launch options, a gemv, and
/// an unordered axpy-rows macro op (4 samples per instruction) gated on
/// the gemv by an explicit edge. Returns the report and every result.
fn op_set_run(as_graph: bool, fast_forward: bool) -> (SimReport, Vec<Vec<f32>>) {
    let mut cfg = ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        mix: MixId::new(2),
        seed: 23,
        ..ChopimConfig::default()
    };
    cfg.fast_forward = fast_forward;
    let mut sys = ChopimSystem::new(cfg);
    let rt = &mut sys.runtime;
    let (n, rows, cols) = (1 << 12, 32, 256);
    let x = rt.vector_colored(n, Sharing::Shared, Color(1));
    let y = rt.vector_colored(n, Sharing::Shared, Color(5));
    let a = rt.matrix(rows, cols);
    let gx = rt.vector(cols, Sharing::Shared);
    let gy = rt.vector(rows, Sharing::Shared);
    let a_pvt = rt.vector(cols, Sharing::Private);
    let data = |len: usize, k: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * k) % 29) as f32 * 0.125 - 1.5)
            .collect()
    };
    rt.write_vector(x, &data(n, 3));
    rt.write_vector(y, &data(n, 7));
    rt.write_matrix(a, &data(rows * cols, 5));
    rt.write_vector(gx, &data(cols, 11));
    let alphas = data(rows, 13);
    let opts = LaunchOpts {
        granularity_lines: Some(4),
        barrier_per_chunk: false,
    };
    let s = rt.create_session();
    if as_graph {
        let mut g = JobGraph::new();
        let axpy = g.elementwise(Opcode::Axpy, vec![0.5], vec![x], Some(y));
        g.opts(axpy, opts);
        let gemv = g.gemv(gy, a, gx);
        let rows_op = g.axpy_rows(a_pvt, alphas, a, 4);
        g.after(rows_op, gemv).unordered(rows_op);
        rt.submit_job(s, g).expect("default limits admit");
    } else {
        let _ = s
            .elementwise(rt, Opcode::Axpy, vec![0.5], vec![x], Some(y))
            .opts(opts)
            .submit();
        let gemv = s.gemv(rt, gy, a, gx).submit();
        let _ = s
            .axpy_rows(rt, a_pvt, alphas, a, 4)
            .after(gemv)
            .unordered()
            .submit();
    }
    sys.run(300_000);
    assert!(sys.runtime.quiescent(), "op set must retire in the window");
    assert_eq!(sys.runtime.realignment_copies, 1);
    let rt = &sys.runtime;
    let mut results = vec![rt.read_vector(y).to_vec(), rt.read_vector(gy).to_vec()];
    results.extend((0..rt.nda_ranks().len()).map(|r| rt.read_private(a_pvt, r).to_vec()));
    (sys.report(), results)
}

#[test]
fn builder_and_job_graph_submit_identically() {
    for fast_forward in [false, true] {
        let built = op_set_run(false, fast_forward);
        let graphed = op_set_run(true, fast_forward);
        assert_eq!(
            built, graphed,
            "builder and job-graph submission diverged (fast_forward {fast_forward})"
        );
    }
}
