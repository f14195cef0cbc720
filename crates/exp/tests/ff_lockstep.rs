//! Lockstep equivalence of the event-horizon fast-forward: for every
//! scenario in the shared perf matrix, running with `fast_forward`
//! enabled must produce a `SimReport` bit-identical to the naive
//! cycle-by-cycle loop.
//!
//! This is the contract that makes the fast path trustworthy: skipping is
//! only legal across cycles in which *every* component is provably idle,
//! so any divergence — a missed refresh, a misplaced launch packet, an
//! off-by-one stall count — shows up as a report mismatch. The matrix is
//! the same `chopim_exp::perf_matrix` the `chopim-perf` harness measures,
//! so the equivalence job always covers exactly what the perf gate gates.
//!
//! CI runs this across 2 seeds x all matrix scenarios (the `equivalence`
//! job); `CHOPIM_BENCH_CYCLES` scales the window for the weekly long run.

use chopim_core::prelude::*;
use chopim_exp::{bench_window, perf_matrix, run_scenario, ScenarioSpec, Workload};

fn window() -> u64 {
    bench_window(30_000)
}

fn assert_lockstep(name: &str, spec: &ScenarioSpec, seed: u64) {
    let mut naive = spec.clone();
    naive.seed = seed;
    naive.cfg.fast_forward = false;
    let mut fast = spec.clone();
    fast.seed = seed;
    fast.cfg.fast_forward = true;
    let naive_report = run_scenario(&naive);
    let fast_report = run_scenario(&fast);
    assert_eq!(
        naive_report, fast_report,
        "fast-forward diverged from the naive loop on `{name}` (seed {seed})"
    );
}

fn run_matrix_entry(name: &str) {
    let matrix = perf_matrix(window());
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == name)
        .expect("scenario in matrix");
    for seed in [1, 7] {
        assert_lockstep(name, spec, seed);
    }
}

/// Every matrix entry has a dedicated test below; this guards against a
/// new scenario being added to the matrix without lockstep coverage.
#[test]
fn matrix_is_fully_covered() {
    let names: Vec<&str> = perf_matrix(1).iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        vec![
            "host_only",
            "host_idle",
            "nda_only",
            "colocated_svrg",
            "colocated_mix",
            "rank_partitioned",
            "wide_host_8ch",
            "wide_colocated_8ch",
            "wide_host_16ch",
            "wide_colocated_16ch",
            "multi_tenant_2sess",
            "multi_tenant_qos",
            "multi_tenant_1k",
            "faulty_colocated_8ch"
        ],
        "new matrix scenario: add a lockstep test for it"
    );
}

#[test]
fn lockstep_host_only() {
    run_matrix_entry("host_only");
}

#[test]
fn lockstep_host_idle() {
    run_matrix_entry("host_idle");
}

#[test]
fn lockstep_nda_only() {
    run_matrix_entry("nda_only");
}

#[test]
fn lockstep_colocated_svrg() {
    run_matrix_entry("colocated_svrg");
}

#[test]
fn lockstep_colocated_mix() {
    run_matrix_entry("colocated_mix");
}

#[test]
fn lockstep_rank_partitioned() {
    run_matrix_entry("rank_partitioned");
}

#[test]
fn lockstep_wide_host_8ch() {
    run_matrix_entry("wide_host_8ch");
}

#[test]
fn lockstep_wide_colocated_8ch() {
    run_matrix_entry("wide_colocated_8ch");
}

#[test]
fn lockstep_wide_host_16ch() {
    run_matrix_entry("wide_host_16ch");
}

#[test]
fn lockstep_wide_colocated_16ch() {
    run_matrix_entry("wide_colocated_16ch");
}

#[test]
fn lockstep_multi_tenant_2sess() {
    run_matrix_entry("multi_tenant_2sess");
}

/// 32 mixed-QoS streaming tenants: the debug-build arbitration oracle is
/// active at this scale, so this point pins the ready index against a
/// full-scan re-derivation of every pick on top of naive/fast identity.
#[test]
fn lockstep_multi_tenant_qos() {
    let matrix = perf_matrix(window().min(20_000));
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == "multi_tenant_qos")
        .expect("scenario in matrix");
    for seed in [1, 7] {
        assert_lockstep(name, spec, seed);
    }
}

/// The thousand-tenant headline point, windowed down: the ready index,
/// per-NDA waitlists, and the finished-op stream pump all carry real
/// load here, and the fast path must still skip bit-identically.
#[test]
fn lockstep_multi_tenant_1k() {
    let matrix = perf_matrix(window().min(12_000));
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == "multi_tenant_1k")
        .expect("scenario in matrix");
    assert_lockstep(name, spec, 1);
}

#[test]
fn lockstep_faulty_colocated_8ch() {
    run_matrix_entry("faulty_colocated_8ch");
}

/// The two-session dependency-graph scenario (cross-session `.after()`
/// edges, an `unordered` op, then two fair-share streams): the DAG
/// stager's launch gating feeds the fast-forward horizon, so skipping
/// must stay exact under multi-tenant submission too.
#[test]
fn lockstep_dag_two_sessions() {
    let window = window().min(20_000);
    for seed in [1, 7] {
        let mk = |ff: bool| {
            let mut cfg = ChopimConfig {
                mix: MixId::new(2),
                ..ChopimConfig::default()
            };
            cfg.fast_forward = ff;
            chopim_exp::run_two_session_dag(cfg, window, seed)
        };
        assert_eq!(
            mk(false),
            mk(true),
            "fast-forward diverged from the naive loop on the two-session DAG (seed {seed})"
        );
    }
}

/// Stochastic write throttling draws a coin per attempted write; the
/// horizon logic must refuse to skip any cycle where a draw could occur
/// so the RNG stream stays aligned.
#[test]
fn lockstep_stochastic_policy() {
    let mut spec = ScenarioSpec::with_window(window().min(20_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.policy = WriteIssuePolicy::stochastic(1, 4);
    spec.workload = Workload::elementwise(Opcode::Copy, 1 << 15);
    assert_lockstep("stochastic", &spec, 3);
}

/// Packetized mode routes everything through the ingress queue; its
/// serialization delays are part of the horizon.
#[test]
fn lockstep_packetized() {
    let mut spec = ScenarioSpec::with_window(window().min(20_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.packetized_latency = 8;
    spec.workload = Workload::elementwise(Opcode::Axpy, 1 << 15);
    assert_lockstep("packetized", &spec, 5);
}

/// Non-default cross-boundary pipeline depths (delayed ingress, a
/// shrunken lookahead window) must preserve naive/fast bit-identity
/// just like the default schedule.
#[test]
fn lockstep_boundary_latencies() {
    let mut spec = ScenarioSpec::with_window(window().min(15_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.ingress_latency = 6;
    spec.cfg.completion_latency = 5;
    spec.workload = Workload::elementwise(Opcode::Axpy, 1 << 15);
    assert_lockstep("boundary_latencies", &spec, 11);
}

/// Closed-page + FCFS ablation modes exercise the eager-precharge branch
/// of the controller horizon.
#[test]
fn lockstep_closed_page_fcfs() {
    let mut spec = ScenarioSpec::with_window(window().min(20_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.scheduler = SchedulerKind::Fcfs;
    spec.cfg.page_policy = PagePolicy::Closed;
    spec.workload = Workload::elementwise(Opcode::Dot, 1 << 15);
    assert_lockstep("closed_page_fcfs", &spec, 9);
}

/// `completion_latency = 1` shrinks the lookahead window to a single
/// cycle, so the front-end and every shard meet at a barrier each cycle:
/// the in-window fast-forward never gets room to skip, and the global
/// idle leap is the only skip left to keep exact.
#[test]
fn lockstep_single_cycle_window() {
    let mut spec = ScenarioSpec::with_window(window().min(3_000));
    spec.cfg.mix = MixId::new(4);
    spec.cfg.completion_latency = 1;
    spec.workload = Workload::elementwise(Opcode::Copy, 1 << 14);
    assert_lockstep("single_cycle_window", &spec, 13);
}
