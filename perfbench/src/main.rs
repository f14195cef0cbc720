//! The repository benchmark.
//!
//! ```sh
//! perfbench --workload <colocated_8ch|fleet_1k|svrg_epochs> --seed <n> \
//!     --seconds <s> --trace <0|1> [--untraced-rate <cycles/s>] [--spans-out <path>]
//! ```
//!
//! One run builds the workload's machine from scratch again and again
//! (a *rep*: set-up, a fixed simulated length driven in slices, report)
//! until `--seconds` have passed, checks every rep's outputs, and prints
//! a table followed by one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` needs the `perf-counters` build and reports the
//! per-layer metrics (see `README.md`).

mod layers;
mod spans;
mod stats;
mod workloads;

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use chopim_core::{ChopimSystem, SimReport};
use chopim_dram::perfcount;
use chopim_dram::trace::{decode_trace, replay};

use layers::RepCounts;
use spans::Spans;
use stats::{median, percentile, quantile};
use workloads::{Kind, Workload};

/// Environment variables that would silently change what is measured:
/// the engine knobs `ChopimConfig::default()` reads, and the
/// experiment crates' window override.
const REFUSED_ENV: [&str; 5] = [
    "CHOPIM_SIM_THREADS",
    "CHOPIM_FIXED_WINDOW",
    "CHOPIM_TRACE",
    "CHOPIM_FAULTS",
    "CHOPIM_BENCH_CYCLES",
];

/// Reps per run at least, however long they take: medians need three.
const MIN_REPS: usize = 3;

/// Set-ups per run at least, counting the reps' own: `setup_s` is the
/// median of these.
const MIN_SETUPS: usize = 25;

const FACTS: [&str; 3] = [
    "the model is unvalidated: the repository holds no hardware reference, so no error figure is given",
    "statistics start on a cold machine at cycle 0: empty queues, closed rows, cold cores",
    "host-time metrics carry the noise of a shared machine; simulated metrics are exact for a fixed seed",
];

/// Refuse to run when any of [`REFUSED_ENV`] is set (`get` reads one
/// variable).
fn refuse_knobs(get: impl Fn(&str) -> Option<OsString>) -> Result<(), String> {
    let set: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|v| get(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins these knobs itself; unset them",
            set.join(", ")
        ))
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    untraced_rate: Option<f64>,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut untraced_rate, mut spans_out) = (None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&val).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--untraced-rate" => {
                let r: f64 = val.parse().map_err(|_| bad("expected a number"))?;
                if !(r.is_finite() && r > 0.0) {
                    return Err(bad("expected a positive rate"));
                }
                untraced_rate = Some(r);
            }
            "--spans-out" => spans_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spans_out.is_some() && trace != Some(true) {
        return Err("--spans-out needs --trace 1".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        untraced_rate,
        spans_out,
    })
}

/// One rep's measurements and check results.
struct Rep {
    /// Simulated cycles.
    cycles: u64,
    setup_s: f64,
    drive_s: f64,
    wall_s: f64,
    problems: Vec<String>,
    /// `(submitted, concluded other than Completed)`.
    ops: (u64, u64),
    traced: Option<TracedRep>,
}

struct TracedRep {
    layers: Vec<Metric>,
    replay_ns_per_cmd: f64,
}

impl Rep {
    fn sim_cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.drive_s
    }
}

/// Build the machine, drive one rep, report, and check the outputs.
/// The first rep's report is kept in `first`; every later rep must
/// report identically (only that one report is kept, so memory does not
/// grow with the number of reps).
fn run_rep(
    w: &Workload,
    spans: &mut Spans,
    run: u32,
    traced: bool,
    first: &mut Option<SimReport>,
) -> Rep {
    if traced {
        perfcount::reset();
    }
    let root = spans.open("rep", None, run);
    let s = spans.open("setup.new", Some(root), run);
    let mut sys = ChopimSystem::new(w.config(true));
    if traced {
        sys.enable_trace_capture();
    }
    let new_s = spans.close(s);
    let s = spans.open("setup.spawn", Some(root), run);
    let mut live = w.spawn(&mut sys);
    let spawn_s = spans.close(s);
    let mut drive_s = 0.0;
    for _ in 0..w.slices_per_rep() {
        let s = spans.open("system.slice", Some(root), run);
        w.step(&mut sys, &mut live);
        drive_s += spans.close(s);
    }
    let s = spans.open("report", Some(root), run);
    let report = sys.report();
    spans.close(s);
    let wall_s = spans.close(root);

    let mut problems = w.check(&sys, &live);
    match first {
        Some(f) if *f != report => {
            problems.push("report differs from rep 0's (nondeterminism)".into())
        }
        Some(_) => {}
        None => *first = Some(report.clone()),
    }
    let ops = w.op_counts(&sys, &live);
    let traced = traced.then(|| traced_rep(&mut sys, &report, spans, run, &mut problems));
    Rep {
        cycles: report.cycles,
        setup_s: new_s + spawn_s,
        drive_s,
        wall_s,
        problems,
        ops,
        traced,
    }
}

/// The traced rep's extra work: read the counters, replay the captured
/// command stream through the device model alone, and check that the
/// replay reproduces the report's DRAM statistics.
fn traced_rep(
    sys: &mut ChopimSystem,
    report: &SimReport,
    spans: &mut Spans,
    run: u32,
    problems: &mut Vec<String>,
) -> TracedRep {
    let counters = layers::sum_scopes(&perfcount::snapshot_scoped());
    let ticks = sys.tick_stats();
    let bytes = sys.trace_bytes();
    let mut out = TracedRep {
        layers: Vec::new(),
        replay_ns_per_cmd: 0.0,
    };
    let trace = match decode_trace(&bytes) {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("captured trace does not decode: {e}"));
            return out;
        }
    };
    let s = spans.open("dram.replay", None, run);
    let outcome = replay(&sys.cfg.dram, &trace);
    let replay_s = spans.close(s);
    match outcome {
        Ok(o) => {
            if o.stats != report.dram {
                problems.push(format!(
                    "trace replay DramStats differ from the report: {:?} vs {:?}",
                    o.stats, report.dram
                ));
            }
            out.replay_ns_per_cmd = stats::ratio(replay_s * 1e9, o.commands as f64);
            out.layers = RepCounts {
                counters,
                report,
                commands: o.commands,
                launches: o.launches,
                ticks,
            }
            .metrics();
        }
        Err(e) => problems.push(format!("trace replay failed: {e}")),
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One reported metric, with a note for the table (sample count, or
/// the base of a ratio).
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).expect("at least MIN_REPS samples")
}

/// Exits 0 whenever a result line was printed, including one whose
/// checks failed (`"correct": false`); nonzero when no result could be
/// produced.
fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    refuse_knobs(|v| std::env::var_os(v))?;
    let args = parse_args(std::env::args().skip(1))?;
    if args.trace != perfcount::ENABLED {
        return Err(format!(
            "--trace {} needs the build {} the perf-counters feature",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        ));
    }
    let w = Workload::new(args.kind, args.seed);
    println!(
        "# perfbench {} seed {} ({})",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("# {}", args.kind.describe());
    for fact in FACTS {
        println!("# {fact}");
    }

    // Output check 1: the naive loop and the event-horizon loop must
    // produce the same report on a prefix of the workload.
    let prefix_ok = w.prefix_report(false) == w.prefix_report(true);
    if !prefix_ok {
        println!("! naive-loop and fast-loop reports differ on the prefix");
    }

    let mut spans = Spans::new();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first = None;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let run = u32::try_from(reps.len()).expect("rep count fits u32");
        reps.push(run_rep(&w, &mut spans, run, args.trace, &mut first));
        if !args.trace {
            // Untraced runs need only the rep's own spans; keeping them
            // all would make peak RSS grow with the number of reps.
            spans.clear();
        }
    }
    let first = first.expect("at least one rep ran");
    for (i, rep) in reps.iter().enumerate() {
        for p in &rep.problems {
            println!("! rep {i}: {p}");
        }
    }
    let runs = reps.len() as u64 + 1;
    let failed_runs =
        reps.iter().filter(|r| !r.problems.is_empty()).count() as u64 + u64::from(!prefix_ok);
    let ops_submitted: u64 = reps.iter().map(|r| r.ops.0).sum();
    let ops_failed: u64 = reps.iter().map(|r| r.ops.1).sum();
    let attempted = ops_submitted + runs;
    let failed = ops_failed + failed_runs;

    // Host-time noise on a shared machine comes mostly as bursts in which
    // reps run faster. The slow quartile of the reps tracks the machine's
    // base speed and repeats better across runs than the median does
    // (measurements in README.md), so the rate is the lower quartile of
    // the per-rep rates and `wall_s` the upper quartile of rep times.
    let rates: Vec<f64> = reps.iter().map(Rep::sim_cycles_per_s).collect();
    let rate = quantile(&rates, 25.0).expect("at least MIN_REPS reps");
    let per_rep: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("# sim_cycles_per_s by rep: {}", per_rep.join(" "));
    let metrics = if args.trace {
        traced_metrics(&reps, &spans, rate, args.untraced_rate)?
    } else {
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let n = reps.len();
        // More set-ups, so the set-up median rests on enough samples.
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        while setups.len() < MIN_SETUPS {
            let t = Instant::now();
            let mut sys = ChopimSystem::new(w.config(true));
            let live = w.spawn(&mut sys);
            setups.push(t.elapsed().as_secs_f64());
            drop((live, sys));
        }
        vec![
            metric(
                "sim_cycles_per_s",
                rate,
                "cycles/s",
                format!(
                    "lower quartile of {n} reps of {} cycles; median {}",
                    first.cycles,
                    med(&rates)
                ),
            ),
            metric(
                "wall_s",
                quantile(&walls, 75.0).expect("at least MIN_REPS reps"),
                "s",
                format!("upper quartile of {n} reps; median {}", med(&walls)),
            ),
            metric(
                "setup_s",
                med(&setups),
                "s",
                format!("median of {} set-ups", setups.len()),
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MiB", "VmHWM of the run"),
            metric("nda_bw_gbs", first.nda_bw_gbs, "GB/s", "simulated"),
        ]
    };

    let failed_frac = failed as f64 / attempted as f64;
    println!("{:<40} {:>22} {:<10} note", "metric", "value", "unit");
    for m in &metrics {
        println!("{:<40} {:>22} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    // Both builds print this line; run.py checks that they agree.
    println!(
        "# simulated: nda_bw_gbs {} GB/s, host_ipc {} IPC",
        first.nda_bw_gbs,
        first.host_ipc + 0.0
    );
    println!(
        "{:<40} {:>22} {:<10} ({ops_failed} ops not Completed + {failed_runs} failed runs) / \
         ({ops_submitted} ops + {runs} runs)",
        "failed_frac", failed_frac, "ratio"
    );

    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans.to_jsonl())
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        json += &format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json += "}}";
    println!("{json}");
    Ok(())
}

/// The per-layer metrics of a traced run.
fn traced_metrics(
    reps: &[Rep],
    spans: &Spans,
    traced_rate: f64,
    untraced_rate: Option<f64>,
) -> Result<Vec<Metric>, String> {
    let ms = |name| -> Vec<f64> { spans.durations_s(name).iter().map(|s| s * 1e3).collect() };
    let slices = ms("system.slice");
    let p90 = percentile(&slices, 90.0).ok_or_else(|| {
        format!(
            "{} slices support no p90 (needs {} beyond it)",
            slices.len(),
            stats::MIN_BEYOND
        )
    })?;
    let n = reps.len();
    let mut out = vec![
        metric(
            "setup.new_ms",
            med(&ms("setup.new")),
            "ms",
            format!("median of {n} reps"),
        ),
        metric(
            "setup.spawn_ms",
            med(&ms("setup.spawn")),
            "ms",
            format!("median of {n} reps"),
        ),
        metric(
            "system.slice_ms.p50",
            med(&slices),
            "ms",
            format!("{} slices", slices.len()),
        ),
        metric(
            "system.slice_ms.p90",
            p90,
            "ms",
            format!(
                "{} slices; highest supported percentile p{}",
                slices.len(),
                stats::highest_supported(slices.len()).expect("p90 is supported")
            ),
        ),
        metric(
            "system.slice_samples",
            slices.len() as f64,
            "count",
            "slices timed",
        ),
        metric(
            "dram.replay_ns_per_cmd",
            med(&reps
                .iter()
                .filter_map(|r| r.traced.as_ref().map(|t| t.replay_ns_per_cmd))
                .collect::<Vec<_>>()),
            "ns",
            format!("median of {n} replays"),
        ),
    ];
    let layer_sets: Vec<&[Metric]> = reps
        .iter()
        .filter_map(|r| r.traced.as_ref().map(|t| t.layers.as_slice()))
        .filter(|l| !l.is_empty())
        .collect();
    let first = layer_sets
        .first()
        .ok_or("no traced rep produced per-layer counts")?;
    for (i, lm) in first.iter().enumerate() {
        let values: Vec<f64> = layer_sets.iter().map(|set| set[i].value).collect();
        out.push(metric(lm.name, med(&values), lm.unit, lm.note.clone()));
    }
    if let Some(untraced) = untraced_rate {
        out.push(metric(
            "trace.overhead",
            untraced / traced_rate,
            "ratio",
            format!("untraced {untraced} / traced {traced_rate} cycles/s"),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn every_engine_knob_in_the_environment_is_refused() {
        assert_eq!(refuse_knobs(|_| None), Ok(()));
        for knob in REFUSED_ENV {
            let err = refuse_knobs(|v| (v == knob).then(|| OsString::from("1"))).unwrap_err();
            assert!(err.contains(knob), "{err}");
        }
        // Set but empty still counts as set.
        let err = refuse_knobs(|v| (v == "CHOPIM_TRACE").then(OsString::new)).unwrap_err();
        assert!(err.contains("CHOPIM_TRACE"));
        // Unrelated variables pass.
        assert!(refuse_knobs(|v| (v == "CHOPIM_SWEEP_THREADS").then(|| "8".into())).is_ok());
    }

    #[test]
    fn arguments_parse_and_validate() {
        let a = args("--workload fleet_1k --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.kind, Kind::Fleet1k);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_1k --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet_1k --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet_1k --seed 1 --seconds 1").is_err());
        assert!(args("--workload fleet_1k --seed").is_err());
        let spans = "--workload fleet_1k --seed 1 --seconds 1 --spans-out s.jsonl --trace";
        assert!(args(&format!("{spans} 0")).is_err());
        assert!(args(&format!("{spans} 1")).is_ok());
    }
}
