//! Recovery liveness properties: under any fault plan that leaves at
//! least one healthy NDA rank, every submitted op must reach exactly
//! one terminal [`OpStatus`] — no lost ops, no livelock — and the
//! retry backoff must never exceed its configured cap.

use chopim_core::prelude::*;
use proptest::prelude::*;

fn faulted_sys(plan: FaultPlan, retry_limit: u32, backoff: u64, cap: u64) -> ChopimSystem {
    ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        faults: plan,
        retry_limit,
        retry_backoff: backoff,
        retry_backoff_cap: cap,
        instr_timeout: 8_000,
        ..ChopimConfig::default()
    })
}

/// Submit a small op graph on `sys`: a chain of elementwise ops plus a
/// couple of explicit `.after()` edges, some with deadlines, one with a
/// host fallback. Returns every handle.
fn submit_graph(sys: &mut ChopimSystem, n: usize, with_deadline: bool) -> Vec<OpHandle> {
    let len = 1 << 12;
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    let data: Vec<f32> = (0..len).map(|i| (i % 17) as f32 - 8.0).collect();
    sys.runtime.write_vector(x, &data);
    sys.runtime.write_vector(y, &data);
    let sess = sys.runtime.default_session();
    let mut handles = Vec::new();
    for i in 0..n {
        let mut b = sess
            .elementwise(&mut sys.runtime, Opcode::Axpy, vec![0.5], vec![x], Some(y))
            .opts(LaunchOpts {
                granularity_lines: Some(8),
                barrier_per_chunk: i % 2 == 0,
            });
        if let Some(&dep) = handles.get(i.wrapping_sub(2)) {
            b = b.after(dep);
        }
        if with_deadline && i % 3 == 0 {
            b = b.deadline(40_000_000);
        }
        if i == n - 1 {
            b = b.fallback_host();
        }
        handles.push(b.submit());
    }
    handles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fault seeds and periods (every class enabled, one rank
    /// dead mid-run, three survivors): all ops terminal, backoff capped.
    #[test]
    fn prop_all_ops_terminal_under_faults(
        seed in 0u64..1_000,
        transient in 30u64..400,
        hang in 30u64..400,
        drop in 30u64..400,
        delay in 30u64..400,
        death_nda in 0u32..4,
        n_ops in 3usize..8,
        with_deadline in any::<bool>(),
    ) {
        let plan = FaultPlan {
            seed,
            dram_bit_flip_period: 200,
            uncorrectable_pct: 10,
            nda_transient_period: transient,
            nda_hang_period: hang,
            nda_hang_cycles: 150,
            completion_drop_period: drop,
            completion_delay_period: delay,
            completion_delay_cycles: 64,
            rank_death_cycle: 5_000,
            rank_death_nda: death_nda,
        };
        let cap = 2_048;
        let mut sys = faulted_sys(plan, 4, 64, cap);
        let handles = submit_graph(&mut sys, n_ops, with_deadline);
        sys.drive(Waitable::all_of(handles.iter().copied()), 60_000_000);
        for (i, &h) in handles.iter().enumerate() {
            prop_assert!(sys.runtime.op_done(h), "op {i} never reached a terminal state");
            prop_assert!(sys.runtime.op_status(h).is_some(), "op {i} done without a status");
        }
        let r = sys.report();
        prop_assert!(
            r.faults.max_retry_backoff <= cap,
            "backoff {} exceeded cap {cap}",
            r.faults.max_retry_backoff
        );
        // Terminal-state accounting must agree with the per-op statuses.
        let failed = handles.iter().filter(|&&h| {
            sys.runtime.op_status(h).is_some_and(OpStatus::is_failure)
        }).count() as u64;
        prop_assert_eq!(
            failed,
            r.faults.ops_failed + r.faults.ops_timed_out + r.faults.ops_dep_failed,
            "per-op failure statuses disagree with the report counters"
        );
    }

    /// A rank death alone (no other fault class): work re-shards onto
    /// the survivors and every op still completes successfully.
    #[test]
    fn prop_rank_death_reshards(
        seed in 0u64..1_000,
        death_nda in 0u32..4,
        n_ops in 2usize..6,
    ) {
        let plan = FaultPlan {
            seed,
            rank_death_cycle: 3_000,
            rank_death_nda: death_nda,
            ..FaultPlan::NONE
        };
        let mut sys = faulted_sys(plan, 4, 64, 2_048);
        let handles = submit_graph(&mut sys, n_ops, false);
        sys.drive(Waitable::all_of(handles.iter().copied()), 60_000_000);
        for (i, &h) in handles.iter().enumerate() {
            prop_assert!(
                sys.runtime.op_status(h) == Some(OpStatus::Completed),
                "op {i} should complete on the surviving ranks, got {:?}",
                sys.runtime.op_status(h)
            );
        }
        let r = sys.report();
        prop_assert_eq!(r.faults.rank_deaths, 1);
        prop_assert!(!sys.runtime.nda_alive(death_nda as usize));
    }
}

/// A hopeless op (every completion a transient failure) exhausts its
/// retry budget: `Failed` without a fallback, `Completed` via the host
/// with one, and downstream `.after()` edges cascade to `DepFailed`.
#[test]
fn retry_exhaustion_fallback_and_cascade() {
    let plan = FaultPlan {
        seed: 1,
        nda_transient_period: 1, // every retirement faults
        ..FaultPlan::NONE
    };
    let mut sys = faulted_sys(plan, 2, 32, 256);
    let len = 1 << 10;
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; len]);
    let sess = sys.runtime.default_session();
    let doomed = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let dependent = sess
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![2.0], vec![], Some(y))
        .after(doomed)
        .unordered()
        .submit();
    let saved = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .fallback_host()
        .submit();
    sys.drive(Waitable::all_of([doomed, dependent, saved]), 40_000_000);
    assert_eq!(sys.runtime.op_status(doomed), Some(OpStatus::Failed));
    assert_eq!(sys.runtime.op_status(dependent), Some(OpStatus::DepFailed));
    assert_eq!(sys.runtime.op_status(saved), Some(OpStatus::Completed));
    let r = sys.report();
    assert!(r.faults.ops_failed >= 1);
    assert!(r.faults.ops_dep_failed >= 1);
    assert_eq!(r.faults.host_fallbacks, 1);
    // Submitting behind an already-failed dependency aborts immediately.
    let late = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .after(doomed)
        .unordered()
        .submit();
    assert_eq!(sys.runtime.op_status(late), Some(OpStatus::DepFailed));
}

/// A deadline shorter than the op can possibly meet times it out even
/// on a fault-free machine (the deadline machinery must not depend on
/// the fault plane being active), a generous deadline is harmless, and
/// an op submitted after the timed-out one concludes `DepFailed`.
#[test]
fn deadlines_work_without_faults() {
    let mut sys = faulted_sys(FaultPlan::NONE, 3, 64, 4_096);
    let len = 1 << 12;
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; len]);
    let sess = sys.runtime.default_session();
    let tight = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .deadline(10)
        .submit();
    let loose = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .deadline(40_000_000)
        .submit();
    sys.drive(Waitable::all_of([tight, loose]), 40_000_000);
    assert_eq!(sys.runtime.op_status(tight), Some(OpStatus::TimedOut));
    assert_eq!(sys.runtime.op_status(loose), Some(OpStatus::Completed));
    let r = sys.report();
    assert_eq!(r.faults.ops_timed_out, 1);
    // Everything else in the fault report stays zero on an empty plan.
    assert_eq!(r.faults.transient_faults, 0);
    assert_eq!(r.faults.instr_retries, 0);
    assert_eq!(r.dram.ecc_corrected, 0);
    // Submitting behind the timed-out op aborts at once on an empty
    // plan too: the cascade does not depend on the fault plane.
    let late = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .after(tight)
        .submit();
    assert_eq!(sys.runtime.op_status(late), Some(OpStatus::DepFailed));
}
