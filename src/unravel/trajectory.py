"""Stochastic pure-state trajectories conditioned on diffusive records.

Given a model and a correlation matrix ``u`` for the record noise, the
conditioned state diffuses according to (Ito form, projector P)

    dP = L(P) dt + sum_k [(c_k - <c_k>) P dxi_k^* + H.c.]

and the complex record increments are

    J_k dt = <u_kj c_j^dag + c_k> dt + dxi_k

Every run goes through one stepper, a batched kernel that propagates an
unnormalized vector with the linear generator
``-iH - sum_k c_k^dag c_k / 2 + sum_k J_k^* c_k`` and renormalizes, which
is the cheapest form.  Two statistically equivalent steppers are kept for
cross-checks: a direct Euler step of the projector equation and a
normalized nonlinear vector step.  Pairwise differences under a shared
noise path, which the kernel takes as supplied increments, vanish as the
step size shrinks.

Single trajectories and ensembles run through the kernel, for any number
of channels and any mix of constant and state-dependent ``u`` across the
batch.  Each trajectory owns a
counter-based pseudorandom stream derived from ``(seed, trajectory_index)``
and the kernel's arithmetic on one trajectory never mixes in another, so a
trajectory is a bit-exact function of its seed and index, whatever the
batch width or worker count.  Inside the kernel the trajectories (lanes)
run constant-``u`` first, then state-dependent, so each kind is a slice,
and the lane index is the last, contiguous axis of every per-lane array,
so each per-lane product streams over the lanes; the records come back
lane-first, in the caller's order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .operators import LindbladModel, check_density_matrix, check_pure_state, liouvillian_apply
from .unravelings import (
    UnravelingSpec,
    apply_color,
    centered_moments,
    color_factors,
    extremal_u,
    moment_pairs,
    validate_u,
)

# A propagated vector whose norm falls below this has left the reachable
# manifold (the step size is far too large); stop rather than renormalize.
NORM_FLOOR = 1e-12
# Projector inputs may deviate from idempotency by at most this much.
PROJECTOR_TOL = 1e-8
# Most trajectories one kernel call steps side by side.  A lane's result
# does not depend on the batch width, so this only caps memory: the kernel
# keeps a few arrays of CHUNK * NOISE_BLOCK * 2K doubles besides the records.
CHUNK = 1024
# Standard normals are drawn, and coloured for constant-u trajectories, in
# time blocks of this many steps.  CHUNK * NOISE_BLOCK = 65 536 lane-steps.
NOISE_BLOCK = 64
# Fewest lanes a worker process gets when run_ensemble picks the worker
# count: narrower ranges are bound by the per-step numpy floor, not by lane
# work, and do not repay starting a process.  Wall time of 2 processes over
# 1 for a whole batch of n lanes (lowest of 3 paired runs, 2-core VM):
#
#   n lanes                        64   128   256   512  1024
#   atom invariant, 2500 steps   1.05  0.90  0.82  0.74  0.61
#   N=4 K=3 fixed u, 2000 steps  0.80  0.70  0.53  0.50  0.50
#
# A 2-process pool costs about 6 ms to start and join; at 100 steps, 256
# atom lanes took 20 ms in 2 processes against 14 ms in one.
MIN_LANES = 256


class NormCollapseError(RuntimeError):
    """The propagated vector norm collapsed below the safe floor, or is not
    finite.

    The batched kernel sets ``trajectory_index`` (the lowest failing one),
    ``step`` (the step whose update failed) and ``t`` (that step's start
    time); the single-step functions leave them None.
    """

    def __init__(self, message: str, trajectory_index=None, step=None, t=None):
        super().__init__(message)
        self.trajectory_index = trajectory_index
        self.step = step
        self.t = t

    def __reduce__(self):  # keep the fields across worker processes
        return type(self), (str(self), self.trajectory_index, self.step, self.t)


def trajectory_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based noise stream owned by trajectory ``index``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TrajectoryConfig:
    """Run parameters for a single conditioned trajectory.

    ``record_stride`` controls how often the state and record are kept:
    every ``record_stride``-th step start is recorded.
    """

    dt: float
    steps: int
    seed: int
    unraveling: UnravelingSpec
    trajectory_index: int = 0
    record_stride: int = 1

    def __post_init__(self):
        _check_grid(self.dt, self.steps, self.record_stride)


def _check_grid(dt, steps, record_stride) -> None:
    """Reject time grids the runners cannot step; each test also rejects NaN."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not steps >= 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not record_stride >= 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")


@dataclass
class MeasurementRecord:
    """Recorded times, complex currents, and raw noise increments."""

    times: np.ndarray
    currents: np.ndarray
    increments: np.ndarray


def _linear_generator(model: LindbladModel) -> np.ndarray:
    h = model.hamiltonian
    gen = -1j * h.astype(complex)
    for c in model.lindblads:
        gen -= 0.5 * (c.conj().T @ c)
    return gen


def step_sme(model: LindbladModel, rho, dxi, dt: float) -> np.ndarray:
    """One Euler step of the projector equation, re-projected to rank one.

    The Euler update is Hermitian and trace preserving but leaks purity at
    second order in dt; the dominant eigenvector is taken as the new state.
    """
    p = check_density_matrix(rho, model.dim)
    if np.abs(p @ p - p).max() > PROJECTOR_TOL:
        raise ValueError("input density matrix is not a rank-one projector")
    inc = np.asarray(dxi, dtype=complex).reshape(-1)
    if inc.shape[0] != model.num_lindblads:
        raise ValueError(f"expected {model.num_lindblads} increments, got {inc.shape[0]}")
    new = p + dt * liouvillian_apply(model, p)
    eye = np.eye(model.dim)
    for k, c in enumerate(model.lindblads):
        d = c - np.trace(c @ p) * eye
        term = d @ p * inc[k].conjugate()
        new = new + term + term.conj().T
    evals, evecs = np.linalg.eigh(new)
    vec = evecs[:, -1]
    return np.outer(vec, vec.conj())


def _effective_hamiltonian(model: LindbladModel, state) -> np.ndarray:
    """Non-Hermitian drift generator of the normalized nonlinear step.

    ``H_eff = H - (i/2) sum_k (c_k^dag c_k - 2 <c_k>^* c_k + <c_k>^* <c_k>)``.
    Changing the operator representation changes ``H_eff`` only by a
    c-number multiple of the identity.
    """
    psi = check_pure_state(state, model.dim)
    eye = np.eye(model.dim)
    h = model.hamiltonian.astype(complex)
    for c in model.lindblads:
        s = np.vdot(psi, c @ psi)
        h = h - 0.5j * (c.conj().T @ c - 2.0 * s.conjugate() * c + (s.conjugate() * s) * eye)
    return h


def step_nonlinear_sse(model: LindbladModel, state, dxi, dt: float) -> np.ndarray:
    """One normalized nonlinear vector step driven directly by the increments."""
    psi = check_pure_state(state, model.dim)
    inc = np.asarray(dxi, dtype=complex).reshape(-1)
    if inc.shape[0] != model.num_lindblads:
        raise ValueError(f"expected {model.num_lindblads} increments, got {inc.shape[0]}")
    eye = np.eye(model.dim)
    new = psi + dt * (-1j * (_effective_hamiltonian(model, psi) @ psi))
    for k, c in enumerate(model.lindblads):
        s = np.vdot(psi, c @ psi)
        new = new + inc[k].conjugate() * ((c - s * eye) @ psi)
    norm = np.linalg.norm(new)
    if norm < NORM_FLOOR:
        raise NormCollapseError(f"state norm collapsed to {norm}")
    return new / norm


def gauge_transform_step(state, f, dxi) -> np.ndarray:
    """Multiply the state by the random phase exp(i (f dxi^* + f^* dxi)).

    The exponent is real, so the ray (and every expectation value) is
    unchanged; record statistics are likewise untouched.
    """
    psi = np.asarray(state, dtype=complex)
    fv = np.asarray(f, dtype=complex).reshape(-1)
    inc = np.asarray(dxi, dtype=complex).reshape(-1)
    dchi = float(np.sum(fv * inc.conj() + fv.conj() * inc).real)
    return np.exp(1j * dchi) * psi


def run_trajectory(model: LindbladModel, config: TrajectoryConfig, initial, increments=None):
    """Propagate one conditioned trajectory with the linear stepper.

    Records the state, current, and increment at every
    ``record_stride``-th step start.  This is the batched ensemble kernel at
    width 1, so the result equals trajectory ``trajectory_index`` of any
    ``run_ensemble`` call with the same seed, grid and unraveling.

    ``increments`` of shape ``(steps, K)``, if given, drive the steps in
    place of the noise drawn from the trajectory's stream: the record of
    one run fed back reproduces it exactly, and transformed increments
    drive the same path in another presentation of the model.

    Returns
    -------
    (ndarray, MeasurementRecord)
        States of shape ``(n_rec, N)`` and the matching record.
    """
    psi = check_pure_state(initial, model.dim)
    if increments is not None:
        increments = np.asarray(increments, dtype=complex)
        shape = (config.steps, model.num_lindblads)
        if increments.shape != shape:
            raise ValueError(f"increments must have shape {shape}, got {increments.shape}")
        increments = increments[None]
    times, states, currents, recorded, _ = _run_chunk(
        model,
        [config.unraveling],
        psi,
        config.dt,
        config.steps,
        config.seed,
        config.trajectory_index,
        config.record_stride,
        supplied=increments,
    )
    record = MeasurementRecord(times=times, currents=currents[0], increments=recorded[0])
    return states[0], record


@dataclass
class EnsembleRun:
    """States and currents of a batch of trajectories on a shared grid,
    with the worker processes used (1 in-process) and the number of
    contiguous index ranges the batch was cut into.  A run given a
    per-range function holds that function's results in index order
    instead of the states and currents."""

    times: np.ndarray
    states: np.ndarray
    currents: np.ndarray
    workers: int = 1
    lane_ranges: int = 1
    range_results: list | None = None


def _resolve_specs(unraveling, n_traj: int) -> list:
    if isinstance(unraveling, (list, tuple)):
        specs = list(unraveling)
        if len(specs) != n_traj:
            raise ValueError(f"got {len(specs)} unravelings for {n_traj} trajectories")
        return specs
    return [unraveling] * n_traj


def _collapse(norms, indices, step: int, dt: float) -> NormCollapseError:
    """The error for a step whose renormalization failed on some lane:
    ``indices`` maps kernel lanes to trajectory indices, and the lowest
    failing index is reported."""
    bad = ~((norms >= NORM_FLOOR) & (norms < np.inf))
    lane = np.flatnonzero(bad)[np.argmin(indices[bad])]
    index, t = int(indices[lane]), step * dt
    return NormCollapseError(
        f"state norm {norms[lane]} in trajectory {index} at step {step} (t = {t:g})",
        trajectory_index=index,
        step=step,
        t=t,
    )


def _run_chunk(
    model, specs, initial, dt, steps, seed, index0, stride, increments=True, supplied=None
):
    """Linear stepping of one batch of trajectories, ``specs[i]`` running on
    the stream keyed by ``(seed, index0 + i)``.

    Inside the call the lanes are reordered: the constant lanes first, then
    the state-dependent ones, each group in index order, so that each kind
    is a slice.  The lane index is the last, contiguous axis of every
    per-lane array (the state ``(N, m)``, ``u`` ``(K, K, m)``, the means,
    moments, increments and currents), so each einsum streams over the
    lanes.  Each distinct constant spec object is resolved, validated and
    its colouring factored once; each block of normals is coloured for all
    constant lanes as it is drawn, for K > 1 lanes-last by ``apply_color``'s
    term-by-term sum, with one shared factor broadcast over the lanes when
    a single spec object drives them all.

    Each step applies the linear generator and the K channel operators as
    one stacked ``(K+1, N, N)`` product, and forms the means
    ``s_k = <c_k>``.  State-dependent lanes then resolve their ``u`` from
    their ``centered_moments`` and colour their normals with ``extremal_u``.
    The record, the linear update and the renormalization follow.  Every
    product is an einsum or a stacked matrix-column product, whose rounding
    for one lane does not depend on the others or on the lane order, so lane
    ``i`` is the same at any batch width.  A norm below ``NORM_FLOOR`` or
    not finite raises ``NormCollapseError`` naming the lowest failing
    trajectory index, the step and its start time.  Working memory is a
    few arrays of ``m * NOISE_BLOCK * 2K`` doubles besides the records.

    ``supplied`` increments of shape ``(m, steps, K)``, lane-first in the
    order of ``specs``, replace the streams and the colouring; ``u`` is
    still resolved each step for the currents.

    Returns times ``(n_rec,)``, states ``(m, n_rec, N)``, currents and
    increments ``(m, n_rec, K)``, and the states after the last step
    ``(m, N)``, lane-first in the order of ``specs``; the rows are written
    straight into them at each record step.  With ``increments=False`` the
    increments are neither kept nor returned (None in their place).
    """
    m, n, k = len(specs), model.dim, model.num_lindblads
    cs = np.array(model.lindblads, dtype=complex).reshape(k, n, n)
    ops = np.concatenate([_linear_generator(model)[None], cs])
    dep_flags = [spec.state_dependent and k > 0 for spec in specs]
    order = np.argsort(dep_flags, kind="stable")
    m_c = m - sum(dep_flags)
    indices = index0 + order
    # Records go to the lanes' own rows, by a slice when no lane moved.
    rec = slice(None) if np.array_equal(order, np.arange(m)) else order

    # Specs are told apart by identity: equal but distinct objects resolve
    # separately, and one object shared by many lanes resolves once.
    const_specs = [specs[i] for i in order[:m_c]]
    distinct = list({id(spec): spec for spec in const_specs}.values())
    slot = {id(spec): j for j, spec in enumerate(distinct)}
    which = np.array([slot[id(spec)] for spec in const_specs], dtype=int)
    # Without channels a state-dependent spec is constant too, with empty u.
    u_distinct = np.array(
        [np.zeros((0, 0)) if spec.state_dependent else validate_u(spec.resolve(model))
         for spec in distinct],
        dtype=complex,
    ).reshape(len(distinct), k, k)
    u = np.zeros((k, k, m), dtype=complex)
    u[:, :, :m_c] = u_distinct[which].transpose(1, 2, 0)
    draw = supplied is None
    if draw and m_c and k == 1:
        const_factors = tuple(f[which] for f in color_factors(u_distinct[:, None], dt))
    elif draw and m_c and k > 1:
        # Stored lanes last and viewed lanes first, as apply_color takes
        # them; a factor shared by every lane broadcasts over the lanes.
        lanes = which if len(distinct) > 1 else which[:1]
        const_factors = tuple(
            np.moveaxis(np.moveaxis(f[lanes], 0, -1).copy(), -1, 0)
            for f in color_factors(u_distinct, dt)
        )
    signs = np.array([float(specs[i].sign) for i in order[m_c:]])
    pairs = moment_pairs(cs)

    psi = np.tile(np.asarray(initial, dtype=complex)[:, None], (1, m))
    times = np.arange(0, steps, stride) * dt
    n_rec = times.shape[0]
    states = np.empty((m, n_rec, n), dtype=complex)
    currents = np.empty((m, n_rec, k), dtype=complex)
    if increments:
        increments = np.empty((m, n_rec, k), dtype=complex)
    else:
        increments = None
    if draw:
        streams = [trajectory_stream(seed, index) for index in indices]
        # The normals stay lane-first: each stream fills its own contiguous rows.
        z_buf = np.empty((m, min(NOISE_BLOCK, steps), 2 * k))
        dxi_buf = np.empty((z_buf.shape[1], k, m), dtype=complex)
        if m_c and k > 1:  # the constant lanes' normals, lanes last
            z_lanes = np.empty((2 * k, z_buf.shape[1], m_c))
    else:  # the supplied increments, in kernel lane order and lanes last
        dxi_all = np.asarray(supplied, dtype=complex)[order].transpose(1, 2, 0).copy()
    for start in range(0, steps, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, steps - start)
        if draw:
            z, dxi_block = z_buf[:, :nb], dxi_buf[:nb]
            # Each stream is drawn in order, so the block size changes no value.
            for stream, out in zip(streams, z):
                stream.standard_normal(out=out)
            if m_c and k == 1:
                dxi_block[:, :, :m_c] = apply_color(const_factors, z[:m_c]).transpose(1, 2, 0)
            elif m_c and k > 1:
                z_const = z_lanes[:, :nb]
                np.copyto(z_const, z[:m_c].transpose(2, 1, 0))
                apply_color(
                    const_factors,
                    np.moveaxis(z_const, 0, -1),
                    out=dxi_block[:, :, :m_c].transpose(0, 2, 1),
                )
        else:
            dxi_block = dxi_all[start : start + nb]
        for j in range(nb):
            ops_psi = np.einsum("kab,bm->kam", ops, psi)
            c_psi = ops_psi[1:]
            s = np.einsum("am,kam->km", psi.conj(), c_psi)
            dxi = dxi_block[j]
            if m_c < m:
                moment = centered_moments(pairs, psi[:, m_c:], s[:, m_c:])
                u[:, :, m_c:], dep_dxi = extremal_u(moment, signs, z[m_c:, j] if draw else None, dt)
                if draw:
                    dxi[:, m_c:] = dep_dxi.T
            j_dt = (np.einsum("klm,lm->km", u, s.conj()) + s) * dt + dxi
            step = start + j
            if step % stride == 0:
                row = step // stride
                states[rec, row] = psi.T
                currents[rec, row] = (j_dt / dt).T
                if increments is not None:
                    increments[rec, row] = dxi.T
            psi = psi + dt * ops_psi[0] + np.einsum("km,kam->am", j_dt.conj(), c_psi)
            norms = np.sqrt(np.einsum("am,am->m", psi.conj(), psi).real)
            if not (NORM_FLOOR <= norms.min() and norms.max() < np.inf):
                raise _collapse(norms, indices, step, dt)
            psi /= norms
    final = np.empty((m, n), dtype=complex)
    final[rec] = psi.T
    return times, states, currents, increments, final


def _kernel_path(model, spec, initial, dt, increments=None, steps=None, seed=0):
    """The kernel at width 1, driven by the supplied ``(steps, K)``
    increments or by ``steps`` draws from trajectory 0 of ``seed``: the
    states before and after every step ``(steps + 1, N)``, the currents and
    the increments."""
    if increments is not None:
        increments = np.asarray(increments, dtype=complex)
        steps = increments.shape[0]
        increments = increments[None]
    _, states, currents, drawn, final = _run_chunk(
        model, [spec], initial, dt, steps, seed, 0, 1, supplied=increments
    )
    return np.vstack([states[0], final]), currents[0], drawn[0]


def _ensemble_part(args):
    """Times and, without a per-range function, the states and currents of
    one index range; with one, what it returns for the range's records."""
    *chunk_args, per_range = args
    index0 = chunk_args[6]
    times, states, currents, _, _ = _run_chunk(*chunk_args, increments=False)
    if per_range is None:
        return times, (states, currents)
    return times, per_range(index0, times, states, currents)


def default_workers() -> int:
    """Worker processes available to ``run_ensemble``: the UNRAVEL_THREADS
    environment variable if it is set, else the CPUs this process may run
    on."""
    raw = os.environ.get("UNRAVEL_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"UNRAVEL_THREADS must be a positive integer, got {raw!r}")
    return value


def run_ensemble(
    model: LindbladModel,
    unraveling,
    initial,
    n_traj: int,
    dt: float,
    steps: int,
    seed: int,
    record_stride: int = 1,
    start_index: int = 0,
    workers: int | None = None,
    per_range=None,
) -> EnsembleRun:
    """Propagate many trajectories and collect states and currents.

    ``unraveling`` is a single specification shared by all trajectories or a
    sequence assigning one per trajectory.  Trajectory ``i`` draws its noise
    from the stream keyed by ``(seed, start_index + i)``.  All trajectories
    run through the same batched kernel as ``run_trajectory``, in contiguous
    index ranges of at most ``CHUNK`` lanes, at least one range per worker.
    A trajectory's arithmetic never depends on the others, so trajectory
    ``i`` is bit-identical for any worker count, batch width or mix of
    unravelings, and equal to ``run_trajectory`` at that index.  Each range's
    records are copied into the result as they arrive, so besides the result
    the caller's process holds about one range at a time.

    Parameters
    ----------
    workers:
        Process count, at least 1; 1 runs in this process.  By default the
        run uses the CPUs available (``default_workers``), but never so
        many that a worker gets fewer than ``MIN_LANES`` lanes, so a batch
        narrower than ``2 * MIN_LANES`` runs in this process, as does every
        batch under ``UNRAVEL_THREADS=1``.  The output is byte-identical
        either way.
    per_range:
        A picklable function to consume the records where they were
        computed.  It is called once per index range, in the process that
        ran the range, as ``per_range(first_index, times, states,
        currents)`` with the range's records lane-first, and its results
        come back in ``EnsembleRun.range_results`` in index order; the
        returned run then holds no ``states`` or ``currents`` (None), so
        the records never cross to the caller's process.
    """
    psi0 = check_pure_state(initial, model.dim)
    _check_grid(dt, steps, record_stride)
    if not n_traj >= 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    specs = _resolve_specs(unraveling, n_traj)
    if workers is None:
        workers = max(1, min(default_workers(), n_traj // MIN_LANES))
    if not workers >= 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # At least one contiguous index range per worker, each of at most CHUNK.
    size = min(CHUNK, -(-n_traj // workers))
    tasks = [
        (model, specs[lo : lo + size], psi0, dt, steps, seed, start_index + lo, record_stride,
         per_range)
        for lo in range(0, n_traj, size)
    ]
    workers = min(workers, len(tasks))
    if per_range is None and len(tasks) == 1:
        times, (states, currents) = _ensemble_part(tasks[0])
        return EnsembleRun(times, states, currents)
    states = currents = results = None
    if per_range is None:
        n_rec = -(-steps // record_stride)
        states = np.empty((n_traj, n_rec, model.dim), dtype=complex)
        currents = np.empty((n_traj, n_rec, model.num_lindblads), dtype=complex)
    else:
        results = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        parts = pool.map(_ensemble_part, tasks) if pool else map(_ensemble_part, tasks)
        lo = 0
        for times, part in parts:
            if per_range is None:
                states[lo : lo + size], currents[lo : lo + size] = part
            else:
                results.append(part)
            lo += size
            del part  # hold one part at a time
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return EnsembleRun(times, states, currents, workers, len(tasks), results)
