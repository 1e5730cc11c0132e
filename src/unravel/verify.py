"""Deterministic self-checks of the simulator's structural identities, and
the reference steppers they hold the kernel to.

Each check exercises one property the implementation is supposed to
satisfy up to floating point and discretization error.  ``run_all`` runs
four, in this order:

- ``eigenvalue-identity``: the smallest eigenvalue of the real noise
  covariance is ``dt (1 - ||u||) / 2``, and a ``u`` is accepted exactly
  when that covariance is positive semi-definite;
- ``rotation-invariance``: unitary remixing of the Lindblad operators, with
  the measurement realisation of ``u`` as a remixing, changes nothing
  observable;
- ``shift-invariance``: adding c-numbers to the Lindblad operators, with
  the compensating Hamiltonian, changes nothing observable;
- ``stepper-equivalence``: the trajectory kernel and two reference
  steppers kept here, a projector Euler step (``step_sme``) and a
  normalized nonlinear vector step (``step_nonlinear_sse``), converge to
  each other under coupled noise.  The kernel steps the linear SSE and
  ``step_nonlinear_sse`` the normalized nonlinear SSE; the paper's
  norm-changing gauge transformations link the two, so this check also
  tests that link pathwise.

The three pathwise checks drive the kernel that every run goes through,
with supplied increments where two paths must share their noise.  All
randomness comes from counter-based streams keyed by the caller's seed, so
a report is a pure function of that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluorescence import AtomParams, build_atom, plus_x_state
from .operators import (
    LindbladModel,
    _check_densities,
    _check_run,
    _check_states,
    liouvillian_apply,
    projector,
    rotate_lindblads,
    shift_lindblads,
    transition_rate,
    transition_rate_operator,
)
from .trajectory import (
    NORM_FLOOR,
    NormCollapseError,
    _finite,
    run_ensemble,
    trajectory_stream,
)
from .unravelings import (
    FixedU,
    Heterodyne,
    InvariantStateDep,
    InvariantTrace,
    NORM_SLACK,
    homodyne_u,
    is_valid_u,
    real_embedding,
    spectral_norm,
    takagi,
    u_trace,
)

# Evenly spaced times at which ``stepper_strong_orders`` compares the steppers.
STRONG_ORDER_PROBES = 10
# Projector inputs may deviate from idempotency by at most this much.
PROJECTOR_TOL = 1e-8


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


def _projector_deviation(a, b) -> float:
    """Largest projector difference between the paths of two width-1 runs,
    over every recorded state and the state after the last step."""
    return max(
        np.abs(projector(x) - projector(y)).max()
        for x, y in zip([*a.states[0], a.final[0]], [*b.states[0], b.final[0]])
    )


def check_eigenvalue_identity(seed: int) -> CheckResult:
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
        for _ in range(40):
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


def check_rotation_invariance(seed: int) -> CheckResult:
    """Unitary remixing of the channels changes nothing observable.

    Static part: transition rate operator, its trace, and the generator
    agree between the model and its remixed form.  Pathwise part: with
    increments transformed as dxi' = T dxi (and the correlation matrix as
    T u T^T, automatic for the state-derived choice), the conditioned
    projectors and the transformed currents coincide step by step.

    A third path gates the measurement realisation of a random ``u``, with
    ``(V, sigma) = takagi(u)``: from the same normals, ``FixedU(u)`` and
    ``FixedU(diag sigma)`` on the channels remixed by ``V^dag`` give the same
    projectors and currents ``J' = V^dag J``, and channel j's two-phase
    split has ``homodyne_u((1 + sigma_j) / 2, 0, pi/2) = sigma_j``.
    """
    rng = trajectory_stream(seed, 1)
    steps, dt = 400, 1e-3
    model = _random_model(rng, 3, 2)
    t_mat = _random_unitary(rng, 2)
    rotated = rotate_lindblads(model, t_mat)
    static_dev = _static_deviation(model, rotated, rng)
    path_dev = 0.0
    for spec in (Heterodyne(), InvariantStateDep(sign=1)):
        psi = _random_state(rng, 3)
        a = run_ensemble(model, spec, psi, 1, dt, steps, int(rng.integers(2**32)))
        b = run_ensemble(rotated, spec, psi, 1, dt, steps, 0, increments=a.increments @ t_mat.T)
        gap = np.abs(a.currents @ t_mat.T - b.currents).max() * dt
        path_dev = max(path_dev, _projector_deviation(a, b), gap)
    u = _random_symmetric(rng, 2, rng.uniform(0.0, 1.0))
    v, sigma = takagi(u)
    split = rotate_lindblads(model, v.conj().T)
    psi, noise_seed = _random_state(rng, 3), int(rng.integers(2**32))
    a = run_ensemble(model, FixedU(u), psi, 1, dt, steps, noise_seed)
    b = run_ensemble(split, FixedU(np.diag(sigma)), psi, 1, dt, steps, noise_seed)
    path_dev = max(
        path_dev,
        _projector_deviation(a, b),
        np.abs(a.currents @ v.conj() - b.currents).max() * dt,
        *(abs(homodyne_u((1.0 + s) / 2.0, 0.0, np.pi / 2)[0, 0] - s) for s in sigma),
    )
    passed = static_dev <= 1e-10 and path_dev <= 1e-8
    return CheckResult(
        name="rotation-invariance",
        passed=passed,
        value=max(static_dev, path_dev),
        threshold=1e-8,
        detail=(
            f"static deviation {static_dev:.3e} (bound 1e-10), pathwise projector/"
            f"current deviation over {2 * steps} remixed-noise steps and {steps} "
            "steps of u against its measurement realisation"
        ),
    )


def check_shift_invariance(seed: int) -> CheckResult:
    """Adding c-numbers to the channels (with the Hamiltonian compensation)
    changes nothing observable.

    Static part: transition rate operator, its trace, and the generator are
    untouched.  Pathwise part: for each kind of ``u``, the model and its
    shift driven by the same increments give the same projectors, and
    currents, each of its own channels, that differ by ``chi + u chi^*``.
    """
    rng = trajectory_stream(seed, 2)
    steps, dt = 400, 1e-3
    model = _random_model(rng, 3, 2)
    chi = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    shifted = shift_lindblads(model, chi)
    static_dev = _static_deviation(model, shifted, rng)
    specs = (FixedU(_random_symmetric(rng, 2, 0.8)), Heterodyne(), InvariantStateDep(sign=1),
             InvariantStateDep(sign=-1), InvariantTrace(0.9 / spectral_norm(u_trace(model, 1.0))))
    path_dev = 0.0
    for spec in specs:
        psi = _random_state(rng, 3)
        a = run_ensemble(model, spec, psi, 1, dt, steps, int(rng.integers(2**32)))
        b = run_ensemble(shifted, spec, psi, 1, dt, steps, 0, increments=a.increments)
        offsets = chi + spec.resolve(model, a.states[0]) @ chi.conj()
        gap = np.abs(b.currents[0] - a.currents[0] - offsets).max() * dt
        path_dev = max(path_dev, _projector_deviation(a, b), gap)
    passed = static_dev <= 1e-10 and path_dev <= 1e-8
    return CheckResult(
        name="shift-invariance",
        passed=passed,
        value=max(static_dev, path_dev),
        threshold=1e-8,
        detail=(
            f"static deviation {static_dev:.3e} (bound 1e-10), pathwise projector/"
            f"current deviation over {len(specs) * steps} shared-noise steps"
        ),
    )


def step_sme(model: LindbladModel, rho, dxi, dt: float) -> np.ndarray:
    """One Euler step of the projector equation, re-projected to rank one, of
    a projector ``(N, N)`` or a stack ``(..., N, N)`` with increments ``(..., K)``.

    The Euler update is Hermitian and trace preserving but leaks purity at
    second order in dt; the dominant eigenvector is taken as the new state.
    """
    p = _check_densities(rho, model.dim)
    if np.abs(p @ p - p).max(initial=0.0) > PROJECTOR_TOL:
        raise ValueError("input density matrix is not a rank-one projector")
    _check_run(dt, ())
    inc = _finite(dxi, "increments", p.shape[:-2] + (model.num_lindblads,))
    new = p + dt * liouvillian_apply(model, p)
    eye = np.eye(model.dim)
    for k, c in enumerate(model.lindblads):
        d = c - np.trace(c @ p, axis1=-2, axis2=-1)[..., None, None] * eye
        term = d @ p * inc[..., k, None, None].conj()
        new = new + term + term.conj().swapaxes(-1, -2)
    vec = np.linalg.eigh(new)[1][..., -1]
    return vec[..., :, None] * vec[..., None, :].conj()


def _effective_hamiltonian(model: LindbladModel, psi) -> np.ndarray:
    """Non-Hermitian drift generator ``(..., N, N)`` of the normalized
    nonlinear step at each normalized state of ``psi`` ``(..., N)``.

    ``H_eff = H - (i/2) sum_k (c_k^dag c_k - 2 <c_k>^* c_k + <c_k>^* <c_k>)``.
    Changing the operator representation changes ``H_eff`` only by a
    c-number multiple of the identity.
    """
    col, eye = psi[..., None], np.eye(model.dim)  # states as columns (..., N, 1)
    h = model.hamiltonian.astype(complex)
    for c in model.lindblads:
        s = col.conj().swapaxes(-1, -2) @ (c @ col)  # <c>, (..., 1, 1)
        h = h - 0.5j * (c.conj().T @ c - 2.0 * s.conjugate() * c + (s.conjugate() * s) * eye)
    return h


def step_nonlinear_sse(model: LindbladModel, state, dxi, dt: float) -> np.ndarray:
    """One normalized nonlinear vector step driven directly by the increments,
    of a state ``(N,)`` or a stack ``(..., N)`` with increments ``(..., K)``."""
    psi = _check_states(state, model.dim)
    _check_run(dt, ())
    inc = _finite(dxi, "increments", psi.shape[:-1] + (model.num_lindblads,))
    col, eye = psi[..., None], np.eye(model.dim)
    new = col + dt * (-1j * (_effective_hamiltonian(model, psi) @ col))
    for k, c in enumerate(model.lindblads):
        s = col.conj().swapaxes(-1, -2) @ (c @ col)
        new = new + inc[..., k, None, None].conj() * ((c - s * eye) @ col)
    # np.linalg.norm's sum of squares, state by state, so one state keeps its bits
    norm = np.sqrt(sum(x.swapaxes(-1, -2) @ x for x in (new.real, new.imag)))
    bad = ~((norm >= NORM_FLOOR) & (norm < np.inf))  # the kernel's condition
    if bad.any():
        raise NormCollapseError(f"state norm collapsed to {norm[bad][0]}")
    return (new / norm)[..., 0]


def stepper_strong_orders(
    seed: int,
    t_final: float,
    dt_values: tuple[float, ...],
    n_paths: int,
) -> dict[str, float]:
    """Fitted pairwise strong orders of the trajectory kernel and the two
    cross-check steppers under coupled noise.

    Increments are drawn once per path on the finest grid, path ``i`` from
    trajectory ``i``'s stream, and aggregated for the coarser ones, so
    every resolution sees the same underlying noise.  For each step size
    all ``n_paths`` paths step together, the cross-check steppers on stacks,
    and the squared projector difference at ``STRONG_ORDER_PROBES`` evenly
    spaced probe times is averaged over the probes and the paths; the fitted
    log-log slope of the resulting RMS against dt is the measured strong
    order for each stepper pair.
    """
    model = build_atom(AtomParams(gamma=1.0, omega=10.0))
    spec = FixedU(np.array([[0.3 + 0.4j]]))
    psi0 = plus_x_state()
    dts = sorted(dt_values, reverse=True)
    fine = dts[-1]
    n_fine = int(round(t_final / fine))
    pairs = ("linear/projector", "linear/nonlinear", "projector/nonlinear")
    mean_sq = {pair: np.zeros(len(dts)) for pair in pairs}
    noise = run_ensemble(model, spec, psi0, n_paths, fine, n_fine, seed).increments
    for di, dt in enumerate(dts):
        factor = int(round(dt / fine))
        n_steps = n_fine // factor
        coarse = noise[:, : n_steps * factor].reshape(n_paths, n_steps, factor, -1).sum(axis=2)
        probe_every = max(1, n_steps // STRONG_ORDER_PROBES)
        lin = run_ensemble(model, spec, psi0, n_paths, dt, n_steps, 0, increments=coarse)
        lin_paths = np.concatenate([lin.states, lin.final[:, None]], axis=1)
        non, sme = [np.tile(psi0, (n_paths, 1))], [np.tile(projector(psi0), (n_paths, 1, 1))]
        for inc in coarse.transpose(1, 0, 2):
            non.append(step_nonlinear_sse(model, non[-1], inc, dt))
            sme.append(step_sme(model, sme[-1], inc, dt))
        # every path at the probes, (n_paths, probes, N, N)
        at = slice(probe_every, None, probe_every)
        p_lin, p_non = (x[..., :, None] * x[..., None, :].conj()
                        for x in (lin_paths[:, at], np.stack(non, axis=1)[:, at]))
        p_sme = np.stack(sme, axis=1)[:, at]
        for pair, (a, b) in zip(pairs, ((p_lin, p_sme), (p_lin, p_non), (p_sme, p_non))):
            mean_sq[pair][di] = (np.abs(a - b).max(axis=(-2, -1)) ** 2).mean()
    log_dt = np.log(dts)
    return {
        pair: float(np.polyfit(log_dt, 0.5 * np.log(sq), 1)[0])
        for pair, sq in mean_sq.items()
    }


def check_stepper_equivalence(seed: int) -> CheckResult:
    """The kernel and the two cross-check steppers converge to each other
    under coupled noise.

    The linear-stepper (kernel) pairs converge at the generic strong order 1/2 (their
    Euler truncations differ in O(dt) mean-zero noise products), while the
    projector and normalized nonlinear steppers share those products and
    converge to each other at order 1.  Forty-eight paths run to t = 0.48
    at dt 3.2e-3 down to 4e-4.  The acceptance floor, 0.35, sits below 1/2
    only to absorb finite-sample scatter of the fit; a discretization
    inconsistency would show up as an order near 0: a projector step without
    the Ito term ``c P c^dag`` of its drift, or with unconjugated
    increments, reads 0.012 or 0.0006 at seed 0.  Over seeds 0-99 of
    ``stepper_strong_orders(seed, 0.48, (3.2e-3, 1.6e-3, 8e-4, 4e-4), n)``
    the smallest order fell below the floor at no seed for n = 48 (lowest
    0.369, median 0.498), and at 4 for n = 12 (lowest 0.204).
    """
    slopes = stepper_strong_orders(seed, 0.48, (3.2e-3, 1.6e-3, 8e-4, 4e-4), 48)
    min_order = 0.35
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
