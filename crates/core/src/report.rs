//! Simulation metrics: the quantities the paper's figures plot.

use chopim_dram::{Cycle, DramStats, IdleHistogram};

use crate::energy::EnergyReport;

/// Metrics for one simulation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// DRAM cycles simulated.
    pub cycles: Cycle,
    /// CPU cycles simulated.
    pub cpu_cycles: u64,
    /// Aggregate host IPC (sum over cores), the paper's host metric.
    pub host_ipc: f64,
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Bytes moved by NDAs (rank-internal).
    pub nda_bytes: u64,
    /// NDA bandwidth in GB/s.
    pub nda_bw_gbs: f64,
    /// Host bandwidth in GB/s (all host-issued traffic incl. launches).
    pub host_bw_gbs: f64,
    /// Core-attributable bandwidth in GB/s (excludes NDA launch packets).
    pub core_bw_gbs: f64,
    /// Fraction of host-idle rank bandwidth the NDAs captured (the
    /// "NDA BW Utilization" axis of Figs. 10-13; 1.0 = idealized).
    pub nda_bw_utilization: f64,
    /// Idle-gap histogram per global rank (Fig. 2).
    pub idle_histograms: Vec<IdleHistogram>,
    /// Raw DRAM counters.
    pub dram: DramStats,
    /// Host row-buffer hit rate over column commands.
    pub host_row_hit_rate: f64,
    /// Mean host read latency (cycles, arrival to data).
    pub avg_read_latency: f64,
    /// Energy/power breakdown.
    pub energy: EnergyReport,
    /// NDA instructions completed.
    pub nda_instrs_completed: u64,
    /// Cycles NDA writes were held back by the issue policy, summed over
    /// rank controllers. Included here so the fast-forward lockstep tests
    /// verify the bulk stall accounting of skipped throttled windows.
    pub nda_write_throttle_stalls: u64,
    /// Fault-injection and recovery counters (all zero when the
    /// [`FaultPlan`](chopim_dram::FaultPlan) is empty). Part of the
    /// report's `PartialEq`, so the lockstep suites also pin the fault
    /// schedule and the recovery decisions bit-identically.
    pub faults: FaultReport,
    /// Per-tenant metering, one entry per session in session order
    /// (session 0 is the implicit default session). Part of the report's
    /// `PartialEq`: the lockstep suites pin admission decisions and the
    /// per-tenant stall/wait split bit-identically.
    pub tenants: Vec<TenantReport>,
}

/// Per-tenant (per-session) executor metering for one simulation window.
///
/// Cycle accounting splits an op's resident time at its first launch:
/// `cycles_resident = launch_wait_cycles + service_cycles` for completed
/// ops. Ops never staged by window end accrue only `launch_wait`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Session id this row meters.
    // chopim-lint: allow(snapshot) -- positional: tenant_reports re-stamps it from the vector index; decode_meter writes 0
    pub session: u32,
    /// Ops submitted (runtime-inserted realignment copies included).
    pub ops_submitted: u64,
    /// Ops that reached the `Completed` terminal state.
    pub ops_completed: u64,
    /// Ops that reached a non-`Completed` terminal state (failed, timed
    /// out, dep-failed — host fallbacks count as completed).
    pub ops_failed: u64,
    /// Job graphs refused at submission: `QueueFull` (admission
    /// backpressure) or `ExceedsCap` (the graph can never fit).
    pub jobs_rejected: u64,
    /// Cycles terminal ops spent live (submission to conclusion), summed.
    pub cycles_resident: u64,
    /// Cycles admitted job graphs spent queued behind the in-flight cap.
    pub admission_wait_cycles: u64,
    /// Cycles terminal ops waited from submission to first launch
    /// (arbitration + dependency + credit stalls).
    pub launch_wait_cycles: u64,
    /// Cycles terminal ops spent from first launch to conclusion.
    pub service_cycles: u64,
}

/// Injected-fault and recovery accounting for one simulation window.
///
/// The injection side (transient faults, hangs, dropped/delayed
/// completions, rank deaths) is summed over shards; the recovery side
/// (retries, timeouts, terminal op failures, quarantines, host
/// fallbacks) comes from the runtime. ECC corrected/uncorrectable
/// counts live in [`DramStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Transient NDA compute faults injected (failed completions).
    pub transient_faults: u64,
    /// NDA FSM hangs injected (completion deferred by the hang time).
    pub fsm_hangs: u64,
    /// Completion messages dropped in transit.
    pub completions_dropped: u64,
    /// Completion messages delayed in transit.
    pub completions_delayed: u64,
    /// Permanent rank deaths fired.
    pub rank_deaths: u64,
    /// Instruction launches retried after a failure or timeout.
    pub instr_retries: u64,
    /// In-flight instructions that hit the launch timeout.
    pub instr_timeouts: u64,
    /// Ops concluded `Failed` (retry budget exhausted, no host fallback).
    pub ops_failed: u64,
    /// Ops concluded `TimedOut` (per-op deadline expired).
    pub ops_timed_out: u64,
    /// Ops aborted `DepFailed` (a dependency concluded unsuccessfully).
    pub ops_dep_failed: u64,
    /// Ops re-executed on the host after exhausting their retry budget.
    pub host_fallbacks: u64,
    /// NDAs quarantined after a rank-death completion.
    pub ranks_quarantined: u64,
    /// Largest retry backoff applied (cycles) — bounded by the
    /// configured cap, which the recovery property suite asserts.
    pub max_retry_backoff: u64,
}

impl SimReport {
    /// Combined idle histogram over all ranks.
    pub fn idle_histogram_total(&self) -> IdleHistogram {
        let mut h = IdleHistogram::new();
        for r in &self.idle_histograms {
            h.merge(r);
        }
        h
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles            : {}", self.cycles)?;
        writeln!(f, "host IPC (agg)    : {:.3}", self.host_ipc)?;
        writeln!(f, "host BW           : {:.2} GB/s", self.host_bw_gbs)?;
        writeln!(f, "NDA BW            : {:.2} GB/s", self.nda_bw_gbs)?;
        writeln!(f, "NDA BW utilization: {:.3}", self.nda_bw_utilization)?;
        writeln!(f, "row hit rate      : {:.3}", self.host_row_hit_rate)?;
        writeln!(f, "avg read latency  : {:.1} cycles", self.avg_read_latency)?;
        writeln!(f, "turnarounds       : {}", self.dram.turnarounds)?;
        write!(f, "avg power         : {:.2} W", self.energy.avg_power_w())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let r = SimReport::default();
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn histogram_merge() {
        let mut a = IdleHistogram::new();
        a.record_busy(10);
        let mut b = IdleHistogram::new();
        b.record_gap(5);
        let r = SimReport {
            idle_histograms: vec![a, b],
            ..Default::default()
        };
        assert_eq!(r.idle_histogram_total().total(), 15);
    }
}
