"""False-alarm rate of the ensemble-check gate on exact samples (untimed).

    python3 bench/gate_false_alarms.py

Draws pure states exactly from the Haar measure on C^N, whose mean state is
I/N, so every "failure" is a false alarm.  For N = 2, 3 and 4 it counts how
often ``ensemble_summary(...).passed()`` (trace distance within 3 jackknife
standard errors) rejects a sample at one record time.  For contrast it also
counts rejections by the benchmark's element-wise z-check (``workloads.py``),
a Bonferroni bound at family-wise rate 1e-3 fixed in advance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from unravel import ensemble_summary  # noqa: E402
from workloads import z_scores  # noqa: E402

TRIALS = 200
SAMPLES = 512
SEED = 0


def haar_states(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    psi = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def main() -> int:
    rng = np.random.default_rng(SEED)
    print(f"{TRIALS} trials x {SAMPLES} Haar samples, one record time, seed {SEED}")
    print("N  gate false alarms   z-check false alarms   mean gate ratio")
    for n in (2, 3, 4):
        reference = (np.eye(n) / n)[None]
        gate_fail = z_fail = 0
        ratios = []
        for _ in range(TRIALS):
            psi = haar_states(rng, SAMPLES, n)[:, None, :]
            summary = ensemble_summary(np.zeros(1), psi, reference)
            gate_fail += not summary.passed()
            ratios.append(summary.trace_distances[0] / (3.0 * summary.standard_errors[0]))
            z, bound = z_scores(psi, reference)
            z_fail += bool(z.max() > bound)
        print(f"{n}  {gate_fail:4d}/{TRIALS} ({100 * gate_fail / TRIALS:5.1f}%)"
              f"   {z_fail:4d}/{TRIALS} ({100 * z_fail / TRIALS:5.1f}%)"
              f"          {np.mean(ratios):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
