//! Per-layer metrics of one traced rep, derived from the engine's
//! simulator-work counters and the report, each with the base it is
//! normalised by.

use chopim_core::SimReport;
use chopim_dram::perfcount::{Counter, NUM_COUNTERS};

use crate::stats::ratio;
use crate::Metric;

/// Everything one traced rep measured that the derivation needs.
pub struct RepCounts<'a> {
    /// Engine counters for the rep, summed over every scope.
    pub counters: [u64; NUM_COUNTERS],
    pub report: &'a SimReport,
    /// DRAM commands in the rep's captured command stream.
    pub commands: u64,
    /// NDA instruction launches in the captured stream.
    pub launches: u64,
    /// `ChopimSystem::tick_stats()`: cycles executed one by one and
    /// cycles leapt, summed over the front-end and every shard.
    pub ticks: (u64, u64),
}

impl RepCounts<'_> {
    fn c(&self, c: Counter) -> f64 {
        self.counters[c as usize] as f64
    }

    /// The deterministic per-layer metrics, each noted with its base
    /// (host-time ones are added by the caller from spans).
    pub fn metrics(&self) -> Vec<Metric> {
        let r = self.report;
        let kcycles = r.cycles as f64 / 1000.0;
        let per_k = format!("per {kcycles} kcycles simulated");
        let cmds = self.commands as f64;
        let per_cmd = format!("per {} DRAM commands", self.commands);
        let launches = self.launches as f64;
        let per_launch = format!("per {} NDA launches", self.launches);
        let barriers = self.c(Counter::Barriers);
        let per_barrier = format!("per {barriers} barriers");
        let passes = self.c(Counter::SchedPasses);
        let (sched_hit, sched_miss) = (
            self.c(Counter::SchedMemoHit),
            self.c(Counter::SchedMemoMiss),
        );
        let (nda_hit, nda_miss) = (self.c(Counter::NdaMemoHit), self.c(Counter::NdaMemoMiss));
        let (ticks, skipped) = (self.ticks.0 as f64, self.ticks.1 as f64);
        let ops: u64 = r
            .tenants
            .iter()
            .map(|t| t.ops_completed + t.ops_failed)
            .sum();
        let wait: u64 = r.tenants.iter().map(|t| t.launch_wait_cycles).sum();
        let service: u64 = r.tenants.iter().map(|t| t.service_cycles).sum();
        let per_op = format!("per {ops} concluded ops");
        let m = |name, value, unit, base: &str| Metric {
            name,
            value,
            unit,
            note: base.to_string(),
        };
        vec![
            m(
                "system.skipped_frac",
                ratio(skipped, ticks + skipped),
                "ratio",
                &format!("of {} component-cycles", ticks + skipped),
            ),
            m(
                "system.fe_ticks_per_kcycle",
                ratio(ticks, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "exchange.barriers_per_kcycle",
                ratio(barriers, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "exchange.windows_per_barrier",
                ratio(self.c(Counter::WindowsExecuted), barriers),
                "count",
                &per_barrier,
            ),
            m(
                "exchange.msgs_per_barrier",
                ratio(self.c(Counter::MessagesExchanged), barriers),
                "count",
                &per_barrier,
            ),
            m(
                "exchange.horizon_leap_cycles",
                self.c(Counter::HorizonLeapCycles),
                "cycles",
                "leapt by shards at barriers, per rep",
            ),
            m(
                "sched.passes_per_kcycle",
                ratio(passes, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "sched.entries_per_pass",
                ratio(self.c(Counter::SchedEntriesScanned), passes),
                "count",
                &format!("per {passes} scheduler passes"),
            ),
            m(
                "sched.memo_hit_ratio",
                ratio(sched_hit, sched_hit + sched_miss),
                "ratio",
                &format!("of {} memo lookups", sched_hit + sched_miss),
            ),
            m(
                "sched.avg_read_latency",
                r.avg_read_latency,
                "cycles",
                "mean over host reads completed",
            ),
            m(
                "dram.ready_at_per_cmd",
                ratio(self.c(Counter::ReadyAt), cmds),
                "count",
                &per_cmd,
            ),
            m(
                "dram.plan_access_per_cmd",
                ratio(self.c(Counter::PlanAccess), cmds),
                "count",
                &per_cmd,
            ),
            m(
                "dram.turnarounds_per_kcycle",
                ratio(r.dram.turnarounds as f64, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "dram.acts_per_kcycle",
                ratio(r.dram.acts as f64, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "dram.host_row_hit_rate",
                r.host_row_hit_rate,
                "ratio",
                "of host column commands",
            ),
            m(
                "nda.memo_hit_ratio",
                ratio(nda_hit, nda_hit + nda_miss),
                "ratio",
                &format!("of {} memo lookups", nda_hit + nda_miss),
            ),
            m(
                "nda.bw_utilization",
                r.nda_bw_utilization,
                "ratio",
                "of host-idle rank cycles",
            ),
            m(
                "nda.instrs_per_kcycle",
                ratio(r.nda_instrs_completed as f64, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "nda.write_throttle_stalls_per_kcycle",
                ratio(r.nda_write_throttle_stalls as f64, kcycles),
                "1/kcycle",
                &per_k,
            ),
            m(
                "runtime.sessions_scanned_per_launch",
                ratio(self.c(Counter::SchedSessionsScanned), launches),
                "count",
                &per_launch,
            ),
            m(
                "runtime.ready_index_ops_per_launch",
                ratio(self.c(Counter::ReadyIndexOps), launches),
                "count",
                &per_launch,
            ),
            m(
                "runtime.launch_wait_cycles_per_op",
                ratio(wait as f64, ops as f64),
                "cycles",
                &per_op,
            ),
            m(
                "runtime.service_cycles_per_op",
                ratio(service as f64, ops as f64),
                "cycles",
                &per_op,
            ),
            // `+ 0.0` turns the empty sum (-0.0) of a host-idle machine into 0.
            m("host.ipc", r.host_ipc + 0.0, "IPC", "summed over cores"),
            m(
                "host.core_bw_gbs",
                r.core_bw_gbs,
                "GB/s",
                "over simulated time",
            ),
        ]
    }
}

/// Sum a `perfcount::snapshot_scoped()` table over its scopes.
pub fn sum_scopes(scoped: &[(usize, [u64; NUM_COUNTERS])]) -> [u64; NUM_COUNTERS] {
    let mut total = [0u64; NUM_COUNTERS];
    for (_, row) in scoped {
        for (t, v) in total.iter_mut().zip(row) {
            *t += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use chopim_core::TenantReport;

    use super::*;

    fn value(ms: &[Metric], name: &str) -> f64 {
        ms.iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    fn base(ms: &[Metric], name: &str) -> String {
        ms.iter().find(|m| m.name == name).unwrap().note.clone()
    }

    #[test]
    fn ratios_use_their_bases() {
        let mut report = SimReport {
            cycles: 20_000,
            nda_instrs_completed: 50,
            ..SimReport::default()
        };
        report.dram.turnarounds = 30;
        report.tenants = vec![
            TenantReport {
                ops_completed: 3,
                launch_wait_cycles: 60,
                service_cycles: 300,
                ..TenantReport::default()
            },
            TenantReport {
                ops_completed: 1,
                ops_failed: 1,
                launch_wait_cycles: 40,
                service_cycles: 100,
                ..TenantReport::default()
            },
        ];
        let mut counters = [0u64; NUM_COUNTERS];
        counters[Counter::Barriers as usize] = 1000;
        counters[Counter::WindowsExecuted as usize] = 4000;
        counters[Counter::SchedPasses as usize] = 200;
        counters[Counter::SchedEntriesScanned as usize] = 1000;
        counters[Counter::SchedMemoHit as usize] = 3;
        counters[Counter::SchedMemoMiss as usize] = 1;
        counters[Counter::ReadyAt as usize] = 500;
        counters[Counter::SchedSessionsScanned as usize] = 90;
        let rep = RepCounts {
            counters,
            report: &report,
            commands: 250,
            launches: 30,
            ticks: (15_000, 45_000),
        };
        let ms = rep.metrics();
        assert_eq!(value(&ms, "system.skipped_frac"), 0.75);
        assert_eq!(value(&ms, "system.fe_ticks_per_kcycle"), 750.0);
        assert_eq!(value(&ms, "exchange.barriers_per_kcycle"), 50.0);
        assert_eq!(value(&ms, "exchange.windows_per_barrier"), 4.0);
        assert_eq!(value(&ms, "sched.passes_per_kcycle"), 10.0);
        assert_eq!(value(&ms, "sched.entries_per_pass"), 5.0);
        assert_eq!(value(&ms, "sched.memo_hit_ratio"), 0.75);
        assert_eq!(value(&ms, "dram.ready_at_per_cmd"), 2.0);
        assert_eq!(value(&ms, "dram.turnarounds_per_kcycle"), 1.5);
        assert_eq!(value(&ms, "nda.instrs_per_kcycle"), 2.5);
        assert_eq!(value(&ms, "runtime.sessions_scanned_per_launch"), 3.0);
        // Per-op costs divide by every concluded op, failed ones too.
        assert_eq!(value(&ms, "runtime.launch_wait_cycles_per_op"), 20.0);
        assert_eq!(value(&ms, "runtime.service_cycles_per_op"), 80.0);
        assert_eq!(base(&ms, "dram.ready_at_per_cmd"), "per 250 DRAM commands");
        assert_eq!(
            base(&ms, "sched.entries_per_pass"),
            "per 200 scheduler passes"
        );
        assert_eq!(
            base(&ms, "exchange.barriers_per_kcycle"),
            "per 20 kcycles simulated"
        );
    }

    #[test]
    fn a_layer_with_no_work_reports_zero_not_nan() {
        let report = SimReport::default();
        let rep = RepCounts {
            counters: [0; NUM_COUNTERS],
            report: &report,
            commands: 0,
            launches: 0,
            ticks: (0, 0),
        };
        for m in rep.metrics() {
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
    }

    #[test]
    fn scopes_sum_per_counter() {
        let mut a = [0u64; NUM_COUNTERS];
        let mut b = [0u64; NUM_COUNTERS];
        a[Counter::ReadyAt as usize] = 2;
        b[Counter::ReadyAt as usize] = 5;
        b[Counter::Barriers as usize] = 1;
        let total = sum_scopes(&[(0, a), (3, b)]);
        assert_eq!(total[Counter::ReadyAt as usize], 7);
        assert_eq!(total[Counter::Barriers as usize], 1);
    }
}
