#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <colocated_8ch|fleet_1k|svrg_epochs> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). This
script builds it twice from source, without and with the engine's
perf-counters feature, into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs the matching build. `--trace 0` prints the end-to-end metrics;
`--trace 1` first runs the untraced build for a third of the time to get the
untraced simulation rate, then the traced build, and prints the per-layer
metrics including trace.overhead. The last line of standard output is
one JSON object; everything before it is a human-readable table.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("colocated_8ch", "fleet_1k", "svrg_epochs")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(target_dir: Path, traced: bool) -> Path:
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"),
           "--target-dir", str(target_dir)]
    if traced:
        cmd += ["--features", "perf-counters"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return target_dir / "release" / "perfbench"


def run_bench(exe: Path, args: list) -> tuple:
    """Run one build; return (human lines, result object)."""
    proc = subprocess.run([str(exe)] + args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{exe.name} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def simulated(human: list) -> str:
    """The `# simulated:` line a run prints."""
    lines = [l for l in human if l.startswith("# simulated:")]
    if len(lines) != 1:
        raise RuntimeError("no '# simulated:' line in the benchmark output")
    return lines[0]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not 1 <= a.seconds <= 60:
        p.error("--seconds must be 1..60")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        # Build both variants on every run (a no-op once built), so the
        # first run of a checkout pays for both builds.
        plain = build(target / "plain", traced=False)
        traced = build(target / "traced", traced=True)
        common = ["--workload", a.workload, "--seed", str(a.seed)]
        if a.trace == 0:
            human, result = run_bench(plain, common + ["--seconds", str(a.seconds), "--trace", "0"])
        else:
            human0, base = run_bench(
                plain, common + ["--seconds", str(max(1, a.seconds // 3)), "--trace", "0"])
            rate = base["metrics"]["sim_cycles_per_s"]["value"]
            spans = target / f"spans-{a.workload}-seed{a.seed}.jsonl"
            human, result = run_bench(traced, common + [
                "--seconds", str(a.seconds), "--trace", "1",
                "--untraced-rate", repr(rate), "--spans-out", str(spans)])
            # Simulated metrics are exact: both builds must agree on them.
            agree = simulated(human0) == simulated(human)
            if not agree:
                human.append("! simulated metrics differ between the untraced and traced builds")
            human = human0 + human
            result["attempted"] += base["attempted"] + 1
            result["failed"] += base["failed"] + (0 if agree else 1)
            result["correct"] = result["correct"] and base["correct"] and agree
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    print("\n".join(human))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
