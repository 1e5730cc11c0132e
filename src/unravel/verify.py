"""Deterministic self-checks of the simulator's structural identities.

Each check exercises one property the implementation is supposed to
satisfy up to floating point and discretization error: the eigenvalue
identity of the real noise covariance, invariance of the physics under
unitary remixing and shifts of the Lindblad operators, gauge invariance
of the conditioned projector, and mutual strong convergence of the
trajectory kernel and the two cross-check steppers under coupled noise.
The remixing, gauge and convergence checks drive the kernel that every
run goes through, with supplied increments where two paths must share
their noise.  All randomness comes from counter-based streams keyed by
the caller's seed, so a report is a pure function of that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluorescence import AtomParams, build_atom, plus_x_state
from .operators import (
    LindbladModel,
    liouvillian_apply,
    projector,
    rotate_lindblads,
    shift_lindblads,
    transition_rate,
    transition_rate_operator,
)
from .trajectory import (
    _kernel_path,
    gauge_transform_step,
    step_nonlinear_sse,
    step_sme,
    trajectory_stream,
)
from .unravelings import (
    FixedU,
    Heterodyne,
    InvariantStateDep,
    NORM_SLACK,
    is_valid_u,
    real_embedding,
    sample_increments,
    spectral_norm,
    validate_u,
)

CHECK_NAMES = (
    "eigenvalue-identity",
    "rotation-invariance",
    "shift-invariance",
    "gauge-invariance",
    "stepper-equivalence",
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named self-check.

    ``value`` is the measured figure of merit and ``threshold`` the bound
    it was held to; ``detail`` says what was compared.
    """

    name: str
    passed: bool
    value: float
    threshold: float
    detail: str

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.detail} "
            f"(value={self.value:.3e}, threshold={self.threshold:.3e})"
        )


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_model(rng: np.random.Generator, dim: int, channels: int) -> LindbladModel:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    cs = []
    for _ in range(channels):
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        cs.append(c / np.sqrt(2.0 * dim))
    return LindbladModel(hamiltonian=h, lindblads=tuple(cs))


def _random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_symmetric(rng: np.random.Generator, k: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    u = 0.5 * (a + a.T)
    current = spectral_norm(u)
    if current == 0.0:
        return u
    return u * (norm / current)


def _static_deviation(model, other, rng: np.random.Generator) -> float:
    """Largest difference between two presentations of a model in the
    transition rate operator and its trace at a random state, and in the
    generator applied to another random state's projector."""
    probe = _random_state(rng, model.dim)
    rho = projector(_random_state(rng, model.dim))
    return max(
        np.abs(
            transition_rate_operator(model, probe) - transition_rate_operator(other, probe)
        ).max(),
        abs(transition_rate(model, probe) - transition_rate(other, probe)),
        np.abs(liouvillian_apply(model, rho) - liouvillian_apply(other, rho)).max(),
    )


def check_eigenvalue_identity(seed: int, trials_per_size: int = 40) -> CheckResult:
    """Smallest covariance eigenvalue equals dt (1 - ||u||) / 2.

    Also confirms that acceptance of a correlation matrix coincides with
    positive semi-definiteness of its real embedding for random draws on
    both sides of the boundary.
    """
    rng = trajectory_stream(seed, 0)
    dt = 1e-3
    worst = 0.0
    mismatches = 0
    for k in (1, 2, 3, 4):
        for _ in range(trials_per_size):
            u = _random_symmetric(rng, k, rng.uniform(0.0, 1.5))
            norm = spectral_norm(u)
            evals = np.linalg.eigvalsh(real_embedding(u, dt))
            worst = max(worst, abs(evals.min() - dt * (1.0 - norm) / 2.0))
            psd = evals.min() >= -0.5 * dt * NORM_SLACK
            if is_valid_u(u) != psd:
                mismatches += 1
    passed = worst <= 1e-12 and mismatches == 0
    return CheckResult(
        name="eigenvalue-identity",
        passed=passed,
        value=worst,
        threshold=1e-12,
        detail=(
            "min eigenvalue of the real covariance vs dt(1-||u||)/2, "
            f"{mismatches} validity/psd disagreements"
        ),
    )


def check_rotation_invariance(
    seed: int, steps: int = 400, dt: float = 1e-3
) -> CheckResult:
    """Unitary remixing of the channels changes nothing observable.

    Static part: transition rate operator, its trace, and the generator
    agree between the model and its remixed form.  Pathwise part: with
    increments transformed as dxi' = T dxi (and the correlation matrix as
    T u T^T, automatic for the state-derived choice), the conditioned
    projectors and the transformed currents coincide step by step.
    """
    rng = trajectory_stream(seed, 1)
    model = _random_model(rng, 3, 2)
    t_mat = _random_unitary(rng, 2)
    rotated = rotate_lindblads(model, t_mat)
    static_dev = _static_deviation(model, rotated, rng)
    path_dev = 0.0
    for spec in (Heterodyne(), InvariantStateDep(sign=1)):
        psi = _random_state(rng, 3)
        noise_seed = int(rng.integers(2**32))
        a, j_a, dxi = _kernel_path(model, spec, psi, dt, steps=steps, seed=noise_seed)
        b, j_b, _ = _kernel_path(rotated, spec, psi, dt, dxi @ t_mat.T)
        path_dev = max(
            path_dev,
            *(np.abs(projector(x) - projector(y)).max() for x, y in zip(a, b)),
            np.abs(j_a @ t_mat.T - j_b).max() * dt,
        )
    passed = static_dev <= 1e-10 and path_dev <= 1e-8
    return CheckResult(
        name="rotation-invariance",
        passed=passed,
        value=max(static_dev, path_dev),
        threshold=1e-8,
        detail=(
            f"static deviation {static_dev:.3e} (bound 1e-10), pathwise projector/"
            f"current deviation over {2 * steps} remixed-noise steps"
        ),
    )


def check_shift_invariance(seed: int, steps: int = 400, dt: float = 1e-3) -> CheckResult:
    """Adding c-numbers to the channels (with the Hamiltonian compensation)
    changes nothing observable.

    Static part: transition rate operator, its trace, and the generator are
    untouched.  Pathwise part: the projector stepper gives identical states
    for identical increments at any u, because the shift cancels exactly in
    the centered noise operators and in the compensated generator.
    """
    rng = trajectory_stream(seed, 2)
    model = _random_model(rng, 3, 2)
    chi = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    shifted = shift_lindblads(model, chi)
    static_dev = _static_deviation(model, shifted, rng)
    u = _random_symmetric(rng, 2, 0.8)
    validate_u(u)
    p_a = p_b = projector(_random_state(rng, 3))
    path_dev = 0.0
    for _ in range(steps):
        dxi = sample_increments(u, dt, rng)
        p_a = step_sme(model, p_a, dxi, dt)
        p_b = step_sme(shifted, p_b, dxi, dt)
        path_dev = max(path_dev, np.abs(p_a - p_b).max())
    passed = static_dev <= 1e-10 and path_dev <= 1e-8
    return CheckResult(
        name="shift-invariance",
        passed=passed,
        value=max(static_dev, path_dev),
        threshold=1e-8,
        detail=(
            f"static deviation {static_dev:.3e} (bound 1e-10), projector-stepper "
            f"pathwise deviation over {steps} shared-noise steps"
        ),
    )


def check_gauge_invariance(seed: int, steps: int = 1000, dt: float = 1e-3) -> CheckResult:
    """Random per-step phase twists never move the projector."""
    rng = trajectory_stream(seed, 3)
    model = _random_model(rng, 3, 2)
    spec = FixedU(_random_symmetric(rng, 2, 0.6))
    b = _random_state(rng, 3)
    a, _, increments = _kernel_path(model, spec, b, dt, steps=steps, seed=int(rng.integers(2**32)))
    dev = 0.0
    for step, dxi in enumerate(increments):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = _kernel_path(model, spec, gauge_transform_step(b, f, dxi), dt, dxi[None])[0][1]
        dev = max(dev, np.abs(projector(a[step + 1]) - projector(b)).max())
    return CheckResult(
        name="gauge-invariance",
        passed=dev <= 1e-10,
        value=dev,
        threshold=1e-10,
        detail=f"projector deviation between gauged and ungauged runs over {steps} steps",
    )


def stepper_strong_orders(
    seed: int,
    t_final: float,
    dt_values: tuple[float, ...],
    n_paths: int,
    n_probes: int = 10,
) -> dict[str, float]:
    """Fitted pairwise strong orders of the trajectory kernel and the two
    cross-check steppers under coupled noise.

    Increments are drawn once per path on the finest grid and aggregated
    for the coarser ones, so every resolution sees the same underlying
    noise.  For each step size the mean squared projector difference over
    ``n_probes`` evenly spaced probe times is averaged over ``n_paths``
    independent paths; the fitted log-log slope of the resulting RMS
    against dt is the measured strong order for each stepper pair.
    """
    model = build_atom(AtomParams(gamma=1.0, omega=10.0))
    spec = FixedU(np.array([[0.3 + 0.4j]]))
    psi0 = plus_x_state()
    dts = sorted(dt_values, reverse=True)
    fine = dts[-1]
    n_fine = int(round(t_final / fine))
    pairs = ("linear/projector", "linear/nonlinear", "projector/nonlinear")
    mean_sq = {pair: np.zeros(len(dts)) for pair in pairs}
    for path in range(n_paths):
        rng = trajectory_stream(seed, path)
        noise = np.array([sample_increments(spec.u, fine, rng)[0] for _ in range(n_fine)])
        for di, dt in enumerate(dts):
            factor = int(round(dt / fine))
            n_steps = n_fine // factor
            coarse = noise[: n_steps * factor].reshape(-1, factor).sum(axis=1)
            probe_every = max(1, n_steps // n_probes)
            lin = _kernel_path(model, spec, psi0, dt, coarse[:, None])[0]
            v_non = psi0.copy()
            p_sme = projector(psi0)
            acc = dict.fromkeys(pairs, 0.0)
            probes = 0
            for step, inc in enumerate(coarse):
                dxi = np.array([inc])
                v_non = step_nonlinear_sse(model, v_non, dxi, dt)
                p_sme = step_sme(model, p_sme, dxi, dt)
                if (step + 1) % probe_every == 0:
                    p_lin = projector(lin[step + 1])
                    p_non = projector(v_non)
                    acc["linear/projector"] += np.abs(p_lin - p_sme).max() ** 2
                    acc["linear/nonlinear"] += np.abs(p_lin - p_non).max() ** 2
                    acc["projector/nonlinear"] += np.abs(p_sme - p_non).max() ** 2
                    probes += 1
            for pair in pairs:
                mean_sq[pair][di] += acc[pair] / probes
    log_dt = np.log(dts)
    return {
        pair: float(np.polyfit(log_dt, 0.5 * np.log(sq / n_paths), 1)[0])
        for pair, sq in mean_sq.items()
    }


def check_stepper_equivalence(
    seed: int,
    t_final: float = 0.48,
    dt_values: tuple[float, ...] = (3.2e-3, 1.6e-3, 8e-4, 4e-4),
    n_paths: int = 12,
    min_order: float = 0.35,
) -> CheckResult:
    """The kernel and the two cross-check steppers converge to each other
    under coupled noise.

    The linear-stepper (kernel) pairs converge at the generic strong order 1/2 (their
    Euler truncations differ in O(dt) mean-zero noise products), while the
    projector and normalized nonlinear steppers share those products and
    converge to each other at order 1.  The acceptance floor sits below 1/2
    only to absorb finite-sample scatter of the fit; a discretization
    inconsistency would show up as an order near 0.
    """
    slopes = stepper_strong_orders(seed, t_final, dt_values, n_paths)
    min_slope = min(slopes.values())
    return CheckResult(
        name="stepper-equivalence",
        passed=min_slope >= min_order,
        value=min_slope,
        threshold=min_order,
        detail=(
            "smallest fitted strong order among stepper pairs "
            + ", ".join(f"{pair} {slope:.2f}" for pair, slope in sorted(slopes.items()))
        ),
    )


def run_all(seed: int) -> list[CheckResult]:
    """Run every named check with streams derived from ``seed``."""
    return [
        check_eigenvalue_identity(seed),
        check_rotation_invariance(seed),
        check_shift_invariance(seed),
        check_gauge_invariance(seed),
        check_stepper_equivalence(seed),
    ]


def format_report(results: list[CheckResult]) -> str:
    """One line per check plus a closing summary line."""
    lines = [r.to_line() for r in results]
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append(f"{len(failed)} of {len(results)} checks failed: " + ", ".join(failed))
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines)
