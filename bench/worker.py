"""One benchmark invocation in a fresh process.

Imports ``unravel`` from the checkout's ``src``, writes the invocation's
inputs, calls ``unravel.cli.main`` once (traced or not), checks the outputs
outside the timed region, and prints one JSON line with the measurements.
A reference loop is timed right before and right after the call.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Iterations of the reference loop, about 0.15 s on the machine in README.md.
REFERENCE_STEPS = 4000


def reference_s() -> float:
    """Time of a fixed loop of the kind of work the invocations do: a
    2-vector and a 256-lane array stepped and normalised with numpy from
    Python.  The host's speed drifts by more than the benchmark's bounds
    over minutes; timed in this process right before and right after the
    CLI call, this loop measures that speed from outside the program."""
    import numpy as np

    m = np.array([[0.5, 0.1j], [0.2, -0.5]])
    x = np.array([1.0, 0.0], dtype=complex)
    lanes = np.ones((256, 2), dtype=complex) / np.sqrt(2.0)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        x = m @ x
        x /= np.linalg.norm(x)
        lanes = lanes + 1e-3 * (lanes @ m.T)
        lanes /= np.linalg.norm(lanes, axis=1, keepdims=True)
    return time.perf_counter() - start


def output_digest(out_dir: Path) -> str:
    """Digest of every file the invocation wrote, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "model.json":
            digest.update(path.relative_to(out_dir).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--invocation", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import unravel.cli
    import workloads

    if not Path(unravel.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"unravel imported from {unravel.__file__}, not from {ROOT / 'src'}")
    args.out.mkdir(parents=True, exist_ok=True)
    argv = workloads.make_argv(args.invocation, args.seed, args.out)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    reference_before = reference_s()
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            exit_code = unravel.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a traceback is a failed invocation
        exit_code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference_after = reference_s()
    if tracer is not None:
        tracer.restore()

    problems = [error] if error else workloads.check_outputs(
        args.invocation, args.seed, args.out, exit_code
    )
    result = {
        "ready": ready,
        "wall_s": wall,
        "ref_s": [reference_before, reference_after],
        "peak_rss_kib": rss_kib,
        "exit_code": exit_code,
        "problems": problems,
        "cli_output": captured.getvalue()[-2000:],
        "digest": output_digest(args.out),
    }
    if tracer is not None:
        from tracing import layer_parts, span_totals

        result["layers"] = layer_parts(tracer, args.out)
        result["spans"] = span_totals(tracer.spans)
        result["absent"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        spans_path = BENCH / "out" / f"{args.invocation}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "parent", "start", "end"],
            "names": names,
            "spans": [[index[n], p, s, e] for n, p, s, e in tracer.spans],
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
