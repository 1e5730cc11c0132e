"""Benchmark for unravel: run one workload for a fixed time, print its metrics.

    python3 bench/run.py --workload atom --seed 0 --seconds 55 --trace 0

Run from the repository root.  A workload is a round of CLI invocations
(``workloads.WORKLOADS``).  The load is a closed loop: one invocation at a
time, each in a fresh Python process (``worker.py``) with
``UNRAVEL_THREADS`` unset, so the package uses one worker, and BLAS threads
capped at the core count.  Rounds repeat until the next one would overrun
``--seconds``.  Each invocation's outputs are checked after its timed call.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
medians over the rounds, and for set-up time over the invocations, each
timed from spawning its process to its CLI call.  Round times are reported
in units of a reference loop timed in the same processes (``worker.py``),
because the host's speed drifts between runs.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics from the
traced ones.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts invocations.  A run record with the machine, the software and every
sample goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; no invocation starts or runs past these.
LAST_START_S = 140.0
DEADLINE_S = 170.0


def monotonic() -> float:
    # The worker reads the same system-wide clock, so set-up time can span both.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("UNRAVEL_THREADS", None)
    cores = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    return env


def run_one(invocation: str, seed: int, traced: bool, index: int, env: dict,
            started: float) -> dict:
    """Start one worker process and return its sample."""
    out_dir = OUT / f"{invocation}-seed{seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--invocation", invocation,
           "--seed", str(seed), "--out", str(out_dir), "--trace", str(int(traced))]
    spawned = monotonic()
    timeout = max(5.0, DEADLINE_S - (spawned - started))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sample = {"problems": [f"invocation killed after {timeout:.0f} s"]}
    else:
        try:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample = {"problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sample["invocation"] = invocation
    sample["traced"] = traced
    sample["elapsed_s"] = monotonic() - spawned
    if "ready" in sample:
        sample["setup_s"] = sample.pop("ready") - spawned
    return sample


def run_record(args) -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    env = worker_env()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {var: env[var] for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def complete(rounds, traced: bool) -> list[list[dict]]:
    """The rounds of one kind in which every invocation was measured."""
    return [r for r in rounds if r[0]["traced"] == traced and all("wall_s" in s for s in r)]


def round_wall(rounds) -> float:
    return median(sum(s["wall_s"] for s in r) for r in rounds)


def round_wall_ref(rounds) -> float:
    """Median over rounds of the round's time in reference-loop times."""
    return median(
        sum(s["wall_s"] for s in r) / statistics.fmean(t for s in r for t in s["ref_s"])
        for r in rounds
    )


def end_to_end(rounds, traj_steps: int) -> dict:
    measured = complete(rounds, traced=False)
    invocations = [s for r in rounds for s in r]
    wall_ref = round_wall_ref(measured)
    return {
        "wall_ref": wall_ref,
        "traj_steps_per_ref": traj_steps / wall_ref if wall_ref else 0.0,
        "setup_s": median(s.get("setup_s") for r in measured for s in r),
        "peak_rss_mib": median(max(s["peak_rss_kib"] for s in r) / 1024.0 for r in measured),
        "ok_ops": sum(not s["problems"] for s in invocations) / len(invocations),
    }


def per_layer(rounds) -> dict:
    from tracing import layer_metrics

    traced = [r for r in complete(rounds, traced=True) if all("layers" in s for s in r)]
    untraced = complete(rounds, traced=False)
    per_round = [layer_metrics([s["layers"] for s in r]) for r in traced]
    keys = sorted({k for m in per_round for k in m})
    metrics = {k: median(m.get(k) for m in per_round) for k in keys}
    invocations = [s for r in rounds for s in r]
    metrics["failed_ops"] = sum(bool(s["problems"]) for s in invocations) / len(invocations)
    metrics["trace.overhead_s"] = (
        round_wall(traced) - round_wall(untraced) if traced and untraced else 0.0
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "unravel" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import INVOCATIONS, WORKLOADS

    kinds = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    record = run_record(args)
    env = worker_env()
    started = monotonic()
    rounds: list[list[dict]] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append([
            run_one(kind, args.seed, traced, len(rounds), env, started) for kind in kinds
        ])
        elapsed = monotonic() - started
        longest = max(sum(s["elapsed_s"] for s in r) for r in rounds)
        both_kinds = not args.trace or len(rounds) >= 2
        if (both_kinds and elapsed + longest > args.seconds) or elapsed + longest > LAST_START_S:
            break

    samples = [s for r in rounds for s in r]
    failed = sum(bool(s["problems"]) for s in samples)
    digests = {(s["invocation"], s["digest"]) for s in samples if not s["problems"]}
    correct = failed == 0 and len(digests) == len(kinds)
    if len(digests) > len(kinds):
        print("outputs differ between invocations with the same inputs", file=sys.stderr)
    if args.trace:
        values = per_layer(rounds)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(rounds, sum(INVOCATIONS[k].traj_steps for k in kinds))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        # Only a traced invocation that failed leaves metrics uncomputed.
        correct = False
        print(f"metrics not computed, reported as 0: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": metrics}

    for s in samples:
        if not s["problems"]:
            s.pop("cli_output", None)
    record["samples"] = samples
    record["result"] = result
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for s in samples:
        kind = "traced" if s["traced"] else "untraced"
        status = "ok" if not s["problems"] else "FAILED: " + "; ".join(map(str, s["problems"]))
        wall = f"{s['wall_s']:.3f} s" if "wall_s" in s else "-"
        print(f"{s['invocation']} seed {args.seed} [{kind}] wall {wall}: {status}")
    untraced = complete(rounds, traced=False)
    if untraced:
        print(f"  untraced medians: round {round_wall(untraced):.3f} s, reference loop "
              f"{median(t for r in untraced for s in r for t in s['ref_s']):.3f} s")
    absent = sorted({a for s in samples for a in s.get("absent", [])})
    if absent:
        print(f"absent bindings (reported as 0): {', '.join(absent)}")
    hook_errors = sorted({e for s in samples for e in s.get("hook_errors", [])})
    if hook_errors:
        print(f"counters not taken: {'; '.join(hook_errors)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  ({len(rounds)} rounds)")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
