"""The benchmark's workloads: CLI inputs made from a seed, and output checks.

A workload is a round of ``unravel.cli.main`` invocations, run one after
another.  Each invocation's inputs are the argv list and, for the
multichannel invocations, a model JSON file written into the invocation's
output directory.  The same seed always yields the
same inputs.  The checks run after the timed call and return a list of
problems, empty when the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Every statistical check below is a Bonferroni bound fixed before any data
# is seen: over all its comparisons it raises a false alarm at most this often.
FAMILY_WISE_RATE = 1e-3
# Tolerance on the length of the Bloch vectors written by figures mode.
BLOCH_TOL = 1e-9
# Tolerance on the norm of the states written by trajectories mode; the CSV
# carries 17 significant digits, so a correct state is far inside it.
NORM_TOL = 1e-9
# Below this spectral norm of the moment matrix the invariant unraveling
# falls back to u = 0 (``unravel.unravelings.MOMENT_FLOOR``).
MOMENT_FLOOR = 1e-9
# A direction of the increment covariance whose eigenvalue is at most
# NULL_EIG carries no noise; the recorded noise along it must stay below
# NULL_TOL, far above rounding and far below a standard deviation.
NULL_EIG = 1e-10
NULL_TOL = 1e-4

MODEL_DIM = 4
MODEL_CHANNELS = 3
U_NORM = 0.8
MULTI_DT = 1e-3


@dataclass(frozen=True)
class Invocation:
    """One named CLI invocation and the work it does."""

    name: str
    n_traj: int
    steps: int
    ensembles: int = 1
    record_stride: int = 1

    @property
    def traj_steps(self) -> int:
        return self.ensembles * self.n_traj * self.steps

    @property
    def n_rec(self) -> int:
        return -(-self.steps // self.record_stride)


INVOCATIONS = {
    w.name: w
    for w in (
        # ensemble-check's default stride, steps // 20
        Invocation("atom_check", n_traj=1024, steps=2500, record_stride=125),
        Invocation("atom_figures", n_traj=1, steps=2500, ensembles=5),
        Invocation("multichannel_fixed", n_traj=1024, steps=2000, record_stride=100),
        Invocation("multichannel_invariant", n_traj=32, steps=125, record_stride=5),
    )
}
# Each workload's round, in the order it runs.
WORKLOADS = {
    "atom": ("atom_check", "atom_figures"),
    "multichannel": ("multichannel_fixed", "multichannel_invariant"),
}


def random_model(seed: int) -> dict:
    """N=4, K=3 model as a model-file object: Hermitian Gaussian H and
    complex Gaussian Lindblad operators scaled by 1/sqrt(2N)."""
    rng = np.random.default_rng(seed)
    n = MODEL_DIM
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    hamiltonian = 0.5 * (a + a.conj().T)
    lindblads = [
        (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0 * n)
        for _ in range(MODEL_CHANNELS)
    ]
    return {
        "dim": n,
        "hamiltonian": to_pairs(hamiltonian),
        "lindblads": [to_pairs(c) for c in lindblads],
    }


def random_u(seed: int) -> np.ndarray:
    """Complex symmetric K x K correlation matrix of spectral norm 0.8."""
    rng = np.random.default_rng([seed, 1])
    a = rng.normal(size=(MODEL_CHANNELS, MODEL_CHANNELS))
    b = rng.normal(size=(MODEL_CHANNELS, MODEL_CHANNELS))
    u = (a + a.T) + 1j * (b + b.T)
    return u * (U_NORM / np.linalg.norm(u, ord=2))


def to_pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def from_pairs(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def make_argv(name: str, seed: int, out_dir: Path) -> list[str]:
    """Write the invocation's input files into ``out_dir`` and return its argv."""
    w = INVOCATIONS[name]
    common = ["--seed", str(seed), "--output-dir", str(out_dir), "--n-traj", str(w.n_traj)]
    if name == "atom_check":
        return [
            "--mode", "ensemble-check", "--model", "atom", "--gamma", "1", "--omega", "10",
            "--unraveling", "invariant_plus", "--dt", "1e-4", "--t-max", "0.25",
        ] + common
    if name == "atom_figures":
        return ["--mode", "figures", "--gamma", "1", "--omega", "10", "--dt", "1e-4",
                "--t-max", "0.25", "--seed", str(seed), "--output-dir", str(out_dir)]
    model_path = out_dir / "model.json"
    model_path.write_text(json.dumps(random_model(seed)))
    argv = [
        "--mode", "trajectories", "--combined", "--model", str(model_path),
        "--dt", repr(MULTI_DT), "--t-max", repr(w.steps * MULTI_DT),
        "--record-stride", str(w.record_stride),
    ] + common
    if name == "multichannel_fixed":
        return argv + ["--unraveling", "fixed", "--u-json", json.dumps(to_pairs(random_u(seed)))]
    return argv + ["--unraveling", "invariant", "--sign", "1"]


# ----------------------------------------------------------------- checks


def check_outputs(name: str, seed: int, out_dir: Path, exit_code) -> list[str]:
    """Problems found in one invocation's outputs; empty when correct."""
    w = INVOCATIONS[name]
    if name == "atom_check":
        return _check_summary(w, out_dir, exit_code)
    if exit_code != 0:
        return [f"exit code {exit_code!r}, expected 0"]
    if name == "atom_figures":
        return _check_figures(w, out_dir)
    return _check_trajectories(w, seed, out_dir)


def distance_bound(n_traj: int, n_times: int) -> float:
    """Trace-distance bound for an N=2 ensemble mean of ``n_traj`` pure states.

    For a qubit the distance is half the Bloch-vector error, whose three
    components have variances summing to at most 1/n_traj; in the Gaussian
    limit its square times 4 n_traj is then dominated by a chi-square with
    3 degrees of freedom.  Bonferroni over ``n_times`` record times.
    """
    return math.sqrt(chi2_3_isf(FAMILY_WISE_RATE / n_times) / (4.0 * n_traj))


def chi2_3_isf(p: float) -> float:
    """Upper ``p`` quantile of the chi-square distribution with 3 degrees of
    freedom, whose survival function is erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2)."""
    lo, hi = 0.0, 1000.0
    for _ in range(200):
        x = 0.5 * (lo + hi)
        tail = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
        lo, hi = (x, hi) if tail > p else (lo, x)
    return 0.5 * (lo + hi)


def _check_summary(w: Invocation, out_dir: Path, exit_code) -> list[str]:
    # The program's own 3-s.e. jackknife gate raises false alarms at a high
    # rate (see README.md), so its verdict is recorded, not required.  The
    # check is that the exit code agrees with the verdict and that every
    # distance lies within an independent bound.
    if exit_code not in (0, 1):
        return [f"exit code {exit_code!r}, expected 0 or 1"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        times = np.asarray(summary["times"], dtype=float)
        dist = np.asarray(summary["trace_distance"], dtype=float)
        err = np.asarray(summary["stderr"], dtype=float)
        passed = summary["passed"]
        n_traj = summary["n_trajectories"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    if not (times.shape == dist.shape == err.shape == (w.n_rec,)):
        problems.append(f"summary.json has {times.shape} times, expected {w.n_rec}")
        return problems
    if not all(np.isfinite(a).all() for a in (times, dist, err)):
        problems.append("summary.json holds non-finite entries")
        return problems
    if n_traj != w.n_traj:
        problems.append(f"n_trajectories {n_traj}, expected {w.n_traj}")
    if passed is not bool(np.all(dist <= 3.0 * err + 1e-12)):
        problems.append("'passed' disagrees with the recorded distances")
    if (exit_code == 0) is not passed:
        problems.append(f"exit code {exit_code} disagrees with passed={passed}")
    bound = distance_bound(w.n_traj, w.n_rec - 1)
    if dist.max() > bound:
        problems.append(f"trace distance {dist.max():.4g} exceeds the bound {bound:.4g}")
    return problems


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.asarray(rows[1:], dtype=float)


def _check_figures(w: Invocation, out_dir: Path) -> list[str]:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        files = [entry["file"] for entry in manifest["scenarios"].values()]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    if len(files) != w.ensembles:
        return [f"manifest lists {len(files)} scenarios, expected {w.ensembles}"]
    problems = []
    for name in files:
        try:
            header, data = _read_csv(out_dir / name)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        if header != ["t", "x", "y", "z", "re_J", "im_J"] or data.shape != (w.n_rec, 6):
            problems.append(f"{name}: header {header}, shape {data.shape}")
        elif not np.isfinite(data).all():
            problems.append(f"{name}: non-finite values")
        else:
            length = np.linalg.norm(data[:, 1:4], axis=1)
            if np.abs(length - 1.0).max() > BLOCH_TOL:
                problems.append(f"{name}: Bloch length off by {np.abs(length - 1).max():.3g}")
    return problems


def _check_trajectories(w: Invocation, seed: int, out_dir: Path) -> list[str]:
    try:
        header, data = _read_csv(out_dir / "trajectories.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"trajectories.csv unreadable: {exc}"]
    n, k = MODEL_DIM, MODEL_CHANNELS
    if len(header) != 2 + 2 * n + 2 * k or data.shape[0] != w.n_traj * w.n_rec:
        return [f"trajectories.csv has {len(header)} columns and {data.shape[0]} rows"]
    if not np.isfinite(data).all():
        return ["trajectories.csv holds non-finite values"]
    data = data.reshape(w.n_traj, w.n_rec, -1)
    if not (data[:, :, 0] == np.arange(w.n_traj)[:, None]).all():
        return ["trajectory_index column is out of order"]
    times = data[0, :, 1]
    psi = data[:, :, 2 : 2 + 2 * n : 2] + 1j * data[:, :, 3 : 3 + 2 * n : 2]
    currents = data[:, :, 2 + 2 * n :: 2] + 1j * data[:, :, 3 + 2 * n :: 2]
    norm_err = np.abs(np.linalg.norm(psi, axis=2) - 1.0).max()
    if norm_err > NORM_TOL:
        return [f"state norms off by {norm_err:.3g}"]
    model = random_model(seed)
    cs = np.stack([from_pairs(c) for c in model["lindblads"]])
    states = psi.reshape(-1, n)
    if w.name == "multichannel_fixed":
        u = np.broadcast_to(random_u(seed), (len(states), k, k))
    else:
        u = invariant_u(cs, states)
    z, bound, leak = increment_z_scores(
        cs, u, states, currents.reshape(-1, k), MULTI_DT, np.random.default_rng([seed, 2])
    )
    if leak > NULL_TOL:
        return [f"recorded noise {leak:.3g} along a direction the {w.name} u leaves silent"]
    if z.max() > bound:
        return [f"recorded increments do not fit the {w.name} u: z {z.max():.2f} > {bound:.2f}"]
    rho0 = np.outer(psi[0, 0], psi[0, 0].conj())
    reference = master_reference(model, rho0, times[1:])
    z, bound = z_scores(psi[:, 1:], reference)
    if z.max() > bound:
        t_worst = times[1 + np.unravel_index(np.argmax(z), z.shape)[0]]
        return [f"mean state z-score {z.max():.2f} > {bound:.2f} at t={t_worst:g}"]
    return []


def invariant_u(cs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``u`` of ``--unraveling invariant --sign 1`` at each state: M / ||M||
    with M_jk = <{c_j - <c_j>, c_k - <c_k>}> / 2, or 0 where ||M|| is tiny.

    ``cs`` has shape (K, N, N) and ``psi`` (P, N); returns (P, K, K).
    """
    c_psi = np.einsum("kij,pj->pki", cs, psi)
    s = np.einsum("pi,pki->pk", psi.conj(), c_psi)
    second = np.einsum("pi,jil,pkl->pjk", psi.conj(), cs, c_psi)  # <c_j c_k>
    m = 0.5 * (second + second.transpose(0, 2, 1)) - s[:, :, None] * s[:, None, :]
    norm = np.linalg.svd(m, compute_uv=False)[:, 0]
    scale = np.where(norm > MOMENT_FLOOR, 1.0 / np.maximum(norm, MOMENT_FLOOR), 0.0)
    return m * scale[:, None, None]


def increment_z_scores(cs, u, psi, currents, dt: float, rng: np.random.Generator):
    """z-scores of the noise increments recovered from a record against ``u``.

    Row p of a trajectories CSV holds the pre-step state psi_p and the
    current J_p = u_p s_p^* + s_p + dxi_p / dt, with s_p = <c_k> in psi_p, so
    dxi_p follows from the record.  Given psi_p, x_p = (Re dxi_p, Im dxi_p)
    / sqrt(dt) is Gaussian with mean 0 and covariance
    S_p = [[I + Re u_p, Im u_p], [Im u_p, I - Re u_p]] / 2.  Every valid ``u``
    gives the same mean state, so this is the check that tells which
    unraveling ran.

    Each x_p is whitened by S_p^(-1/2).  Where S_p is singular (||u_p|| = 1)
    the recorded noise must have no component along its null space: the
    largest such component is returned as ``leak``, and a standard normal
    drawn from ``rng`` stands in for it.  The whitened rows are then exactly
    independent standard normals, so the comparisons are exact or close to
    it: each coordinate's sum / sqrt(P) (normal), its sum of squares
    (chi-square with P degrees of freedom, Wilson-Hilferty z-score) and
    each pair's sum of products / sqrt(P) (symmetric, variance 1).

    ``cs`` (K, N, N), ``u`` (P, K, K), ``psi`` (P, N), ``currents`` (P, K).
    Returns the |z| vector, the two-sided normal Bonferroni bound for that
    many comparisons at ``FAMILY_WISE_RATE``, and ``leak``.
    """
    k = cs.shape[0]
    s = np.einsum("pi,kij,pj->pk", psi.conj(), cs, psi)
    dxi = (currents - np.einsum("pjk,pk->pj", u, s.conj()) - s) * dt
    x = np.concatenate([dxi.real, dxi.imag], axis=1) / math.sqrt(dt)
    eye = np.broadcast_to(np.eye(k), u.shape)
    evals, evecs = np.linalg.eigh(
        0.5 * np.block([[eye + u.real, u.imag], [u.imag, eye - u.real]])
    )
    coords = np.einsum("pba,pb->pa", evecs, x)
    null = evals <= NULL_EIG
    leak = float(np.abs(coords[null]).max(initial=0.0))
    coords = np.where(null, rng.standard_normal(coords.shape),
                      coords / np.sqrt(np.where(null, 1.0, evals)))
    w = np.einsum("pab,pb->pa", evecs, coords)
    p = len(w)
    a, b = np.triu_indices(2 * k, 1)
    shrink = 2.0 / (9.0 * p)
    z = np.abs(np.concatenate([
        w.sum(axis=0) / math.sqrt(p),
        (np.cbrt((w**2).mean(axis=0)) - (1.0 - shrink)) / math.sqrt(shrink),
        (w[:, a] * w[:, b]).sum(axis=0) / math.sqrt(p),
    ]))
    bound = NormalDist().inv_cdf(1.0 - FAMILY_WISE_RATE / (2 * z.size))
    return z, bound, leak


def liouvillian(model: dict) -> np.ndarray:
    """Generator on row-major vectorised density matrices."""
    h = from_pairs(model["hamiltonian"])
    eye = np.eye(h.shape[0])
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for pairs in model["lindblads"]:
        c = from_pairs(pairs)
        cdc = c.conj().T @ c
        mat += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return mat


def master_reference(model: dict, rho0: np.ndarray, times) -> np.ndarray:
    """Exact master-equation solution exp(L t) rho0 at each time."""
    gen = liouvillian(model)
    n = rho0.shape[0]
    return np.stack([(expm(gen * t) @ rho0.reshape(-1)).reshape(n, n) for t in times])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a 20-term Taylor series;
    after scaling the norm is at most 1/2, so the series is exact to rounding."""
    squarings = max(0, math.ceil(math.log2(max(np.linalg.norm(a, 1), 1e-300) / 0.5)))
    scaled = a / 2.0**squarings
    term = result = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 21):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def z_scores(psi: np.ndarray, reference: np.ndarray):
    """Element-wise z-scores of the mean projector against a reference.

    ``psi`` has shape (M, T, N) and ``reference`` (T, N, N).  Each of the
    N*N real parameters of a Hermitian matrix (the diagonal, and the real and
    imaginary parts above it) is one comparison per time.  Returns the
    |z| array of shape (T, N*N) and the two-sided normal Bonferroni bound for
    that many comparisons at ``FAMILY_WISE_RATE``.

    The standard errors come from ``variance_bound`` at the reference, not
    from the sample: with few trajectories and states near a basis vector
    the entries are skewed, and a sample variance then understates the
    spread often enough to raise false alarms far above that rate.
    """
    m = psi.shape[0]
    proj = np.einsum("mti,mtj->mtij", psi, psi.conj())
    se = np.sqrt(variance_bound(reference) / m)
    dev = np.abs(hermitian_params(proj).mean(axis=0) - hermitian_params(reference))
    z = dev / np.maximum(se, 1e-300)
    z[(se == 0) & (dev <= 1e-12)] = 0.0
    bound = NormalDist().inv_cdf(1.0 - FAMILY_WISE_RATE / (2 * z.size))
    return z, bound


def hermitian_params(a: np.ndarray) -> np.ndarray:
    """Diagonal, then real and imaginary parts above it, on the last axis."""
    n = a.shape[-1]
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([a[..., diag, diag].real, a[..., i, j].real, a[..., i, j].imag], axis=-1)


def variance_bound(reference: np.ndarray) -> np.ndarray:
    """Upper bounds on the single-trajectory variance of each projector
    parameter, from the mean state alone.

    With y_i = |psi_i|^2 in [0, 1] and mean p_i, Var(y_i) <= p_i (1 - p_i).
    An off-diagonal part x of psi_i psi_j^* has x^2 <= y_i (1 - y_i), so
    E[x^2] <= p_i (1 - p_i), likewise for j, and Var(x) <= that minus mean^2.
    """
    n = reference.shape[-1]
    i, j = np.triu_indices(n, 1)
    p = np.clip(np.diagonal(reference, axis1=-2, axis2=-1).real, 0.0, 1.0)
    diag = p * (1.0 - p)
    pair = np.minimum(diag[..., i], diag[..., j])
    off = reference[..., i, j]
    return np.concatenate(
        [diag, np.clip(pair - off.real**2, 0.0, None), np.clip(pair - off.imag**2, 0.0, None)],
        axis=-1,
    )
