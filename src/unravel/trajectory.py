"""Stochastic pure-state trajectories conditioned on diffusive records.

Given a model and a correlation matrix ``u`` for the record noise, the
conditioned state diffuses according to (Ito form, projector P)

    dP = L(P) dt + sum_k [(c_k - <c_k>) P dxi_k^* + H.c.]

and the complex record increments are

    J_k dt = <u_kj c_j^dag + c_k> dt + dxi_k

Every run goes through one stepper, a batched kernel that propagates an
unnormalized vector with the linear generator
``-iH - sum_k c_k^dag c_k / 2 + sum_k J_k^* c_k`` and renormalizes, which
is the cheapest form.  The kernel takes supplied increments in place of its
own noise, so the self-checks in ``verify`` can drive it along the same
path as their reference steppers.

A shift ``c_k -> c_k + chi_k`` with the compensating Hamiltonian
(``operators.shift_lindblads``) leaves the master equation and its
invariant unravelings unchanged, but the linear step gains
``dt sum_k (u chi^*)_k c_k psi`` under it.  So the kernel steps the
presentation all shifts of a model share, ``unravelings._kernel_rows``:
each channel less ``t_k = Tr c_k / N``, and the Hamiltonian made traceless
(a global phase).  A model, its shifts and its remixes then step one path,
to rounding, at no cost per step; the currents, shifted back by
``t + u t^*`` on the record rows, stay those of the caller's channels.

Every trajectory runs through the kernel by way of ``run_ensemble``, one
lane of a batch of any width, for any number of channels and any mix of
constant and state-dependent ``u`` across the batch.  Each trajectory owns a
counter-based pseudorandom stream derived from ``(seed, trajectory_index)``
and the kernel's arithmetic on one trajectory never mixes in another, so a
trajectory is a bit-exact function of its seed and index, whatever the
batch width or worker count (for the padded BLAS product of
``operators._stack_apply`` that rests on the BLAS build, and the tier-1
lane-width tests pin it on whatever host runs them).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .operators import LindbladModel, _check_run, _stack_apply, check_pure_state
from .unravelings import (
    UnravelingSpec,
    _kernel_rows,
    apply_color,
    centered_moments,
    color_factors,
    extremal_u,
    validate_u,
)

# A propagated vector whose norm falls below this has left the reachable
# manifold (the step size is far too large); stop rather than renormalize.
NORM_FLOOR = 1e-12
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
    """A propagated vector norm collapsed below ``NORM_FLOOR``, or is not
    finite.

    The kernel sets ``trajectory_index`` (the lowest failing one), ``step``
    (the step whose update failed) and ``t`` (that step's start time).
    ``verify.step_nonlinear_sse``, which steps no indexed trajectory, leaves
    them None.
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


def _finite(values, name: str, shape=None) -> np.ndarray:
    """``values`` as complex, named in the error if not finite or not of ``shape`` if given."""
    a = np.asarray(values, dtype=complex)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


@dataclass
class EnsembleRun:
    """States, currents and increments of a batch of trajectories on a
    shared grid, lane-first ``(n_traj, n_rec, .)``, and the states after
    the last step ``(n_traj, N)``, with the worker processes used (1
    in-process) and the number of contiguous index ranges the batch was cut
    into.  A run given a per-range function holds that function's results
    in index order instead of the states, currents, increments and final
    states."""

    times: np.ndarray
    states: np.ndarray
    currents: np.ndarray
    workers: int = 1
    lane_ranges: int = 1
    range_results: list | None = None
    increments: np.ndarray | None = None
    final: np.ndarray | None = None


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


def _run_chunk(model, initial, dt, steps, seed, stride, per_range, lanes):
    """Linear stepping of the index range ``lanes = (index0, specs, supplied)``,
    ``specs[i]`` running on the stream keyed by ``(seed, index0 + i)``.

    Inside the call the lanes are reordered: the constant lanes first, then
    the state-dependent ones, each group in index order, so that each kind
    is a slice.  The lane index is the last, contiguous axis of every
    per-lane array (the state ``(N, m)``, ``u`` ``(K, K, m)``, the means,
    moments, normals, increments and currents), so each einsum streams over
    the lanes, and ``unravelings`` colours in this layout.  Each distinct
    constant spec object is resolved, validated and its colouring factored
    once; each block of normals is coloured for all constant lanes as it is
    drawn, by ``apply_color``'s term-by-term sum, with one shared factor
    broadcast over the lanes when a single spec object drives them all.

    Each step applies the linear generator and the K channels of the
    trace-free presentation (``unravelings._kernel_rows``) as one stacked
    ``(K+1, N, N)`` product, and forms the means ``s_k = <c_k>``.  When the
    batch has state-dependent lanes the stack also carries the K^2 rows of
    ``moment_pairs``, ``(K+1+K^2, N, N)``, and the one expectation einsum
    gives their means beside ``s``; those lanes then resolve their ``u``
    from ``centered_moments`` and colour their normals with ``extremal_u``.
    The record (its currents shifted back to the caller's channels), the
    linear update and the renormalization follow.  The stacked product is
    ``_stack_apply``: an einsum below ``BLAS_MIN_DIM``, a zero-padded
    ``zgemm`` from it up (the atom, N=2, stays on the einsum).  Every other
    product is an einsum or a stacked matrix-column product.  None rounds
    one lane differently with the others or with the lane order, so lane
    ``i`` is the same at any batch width; for the ``zgemm`` that rests on
    the BLAS build, and the lane-width tests pin it.  A norm below
    ``NORM_FLOOR`` or not finite raises ``NormCollapseError`` naming the
    lowest failing trajectory index, the step and its start time.

    ``supplied`` increments of shape ``(m, steps, K)``, lane-first in the
    order of ``specs``, replace the streams and the colouring; ``u`` is
    still resolved each step for the currents.

    Returns the range as an ``EnsembleRun`` of times ``(n_rec,)``, states
    ``(m, n_rec, N)``, currents and increments ``(m, n_rec, K)`` and the
    states after the last step ``(m, N)``, lane-first in the order of
    ``specs``, the rows written straight into them at each record step.
    Given ``per_range``, it returns ``(times, per_range(index0, times,
    states, currents))``, called in this process, and allocates no increments.
    """
    index0, specs, supplied = lanes
    m, n, k = len(specs), model.dim, model.num_lindblads
    dep_flags = [spec.state_dependent and k > 0 for spec in specs]
    order = np.argsort(dep_flags, kind="stable")
    m_c = m - sum(dep_flags)
    # The generator, the channels and, for state-dependent lanes, the K^2
    # channel pairs: one stack, one product and one expectation per step.
    ops, t = _kernel_rows(model)
    ops = ops if m_c < m else ops[: k + 1]
    offset = t.any()
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
    ).reshape(len(distinct), k, k).transpose(1, 2, 0)
    u = np.zeros((k, k, m), dtype=complex)
    u[:, :, :m_c] = u_distinct[..., which]
    draw = supplied is None
    if draw and m_c and k:
        # One factor per lane, or one shared factor broadcast over them.
        lanes = which if len(distinct) > 1 else which[:1]
        const_factors = tuple(f[..., None, lanes] for f in color_factors(u_distinct, dt))
    signs = np.array([float(specs[i].sign) for i in order[m_c:]])

    psi = np.tile(np.asarray(initial, dtype=complex)[:, None], (1, m))
    times = np.arange(0, steps, stride) * dt
    n_rec = times.shape[0]
    states = np.empty((m, n_rec, n), dtype=complex)
    currents = np.empty((m, n_rec, k), dtype=complex)
    increments = np.empty((m, n_rec, k), dtype=complex) if per_range is None else None
    if draw:
        streams = [trajectory_stream(seed, index) for index in indices]
        # Each stream fills its own rows; one copy per block puts them lanes last.
        draws = np.empty((m, min(NOISE_BLOCK, steps), 2 * k))
        z_buf = np.empty((2 * k, draws.shape[1], m))
        dxi_buf = np.empty((draws.shape[1], k, m), dtype=complex)
    else:  # the supplied increments, in kernel lane order and lanes last
        dxi_all = np.asarray(supplied, dtype=complex)[order].transpose(1, 2, 0).copy()
    for start in range(0, steps, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, steps - start)
        if draw:
            z, dxi_block = z_buf[:, :nb], dxi_buf[:nb]
            # Each stream is drawn in order, so the block size changes no value.
            for stream, out in zip(streams, draws[:, :nb]):
                stream.standard_normal(out=out)
            np.copyto(z, draws[:, :nb].transpose(2, 1, 0))
            if m_c and k:
                dxi_const = dxi_block[..., :m_c].transpose(1, 0, 2)
                apply_color(const_factors, z[..., :m_c], out=dxi_const)
        else:
            dxi_block = dxi_all[start : start + nb]
        for j in range(nb):
            ops_psi = _stack_apply(ops, psi)
            c_psi = ops_psi[1 : k + 1]
            means = np.einsum("am,sam->sm", psi.conj(), ops_psi[1:])
            s = means[:k]
            dxi = dxi_block[j]
            if m_c < m:
                moment = centered_moments(means[k:, m_c:].reshape(k, k, -1), s[:, m_c:])
                u[:, :, m_c:] = extremal_u(
                    moment, signs, z[:, j, m_c:] if draw else None, dt, out=dxi[:, m_c:]
                )[0]
            j_dt = (np.einsum("klm,lm->km", u, s.conj()) + s) * dt + dxi
            step = start + j
            if step % stride == 0:
                row = step // stride
                states[rec, row] = psi.T
                current = j_dt / dt
                if offset:  # the current of the caller's channels, c = c_free + t
                    current += t[:, None] + np.einsum("klm,l->km", u, t.conj())
                currents[rec, row] = current.T
                if increments is not None:
                    increments[rec, row] = dxi.T
            psi = psi + dt * ops_psi[0] + np.einsum("km,kam->am", j_dt.conj(), c_psi)
            norms = np.sqrt(np.einsum("am,am->m", psi.conj(), psi).real)
            if not (NORM_FLOOR <= norms.min() and norms.max() < np.inf):
                raise _collapse(norms, indices, step, dt)
            psi /= norms
    if per_range is not None:
        return times, per_range(index0, times, states, currents)
    final = np.empty((m, n), dtype=complex)
    final[rec] = psi.T
    return EnsembleRun(times, states, currents, increments=increments, final=final)


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
    per_range=None,
    increments=None,
) -> EnsembleRun:
    """Propagate many trajectories and collect their states, currents and
    increments.

    ``unraveling`` is a single specification shared by all trajectories or a
    sequence assigning one per trajectory.  Trajectory ``i`` draws its noise
    from the stream keyed by ``(seed, start_index + i)``.  All trajectories
    run through one batched kernel, in contiguous index ranges of at most
    ``CHUNK`` lanes, at least one range per worker process.  The run takes
    ``max(1, min(default_workers(), n_traj // MIN_LANES))`` workers, so a
    batch narrower than ``2 * MIN_LANES`` runs in this process, as does
    every batch under ``UNRAVEL_THREADS=1``.  A trajectory's arithmetic
    never depends on the others, so trajectory ``i`` is bit-identical for
    any worker count, batch width or mix of unravelings: ``n_traj=1,
    start_index=i`` runs exactly lane ``i`` of a wider batch.  Each range's
    records are copied into the result as they arrive, so besides the
    result the caller's process holds about one range at a time.

    Parameters
    ----------
    per_range:
        A picklable function to consume the records where they were
        computed.  It is called once per index range, in the process that
        ran the range, as ``per_range(first_index, times, states,
        currents)`` with the range's records lane-first, and its results
        come back in ``EnsembleRun.range_results`` in index order; the
        returned run then holds no ``states``, ``currents``, ``increments``
        or ``final`` (None), so the records never cross to the caller's
        process.  That process still holds its whole range's states and
        currents, lanes x rows x (N + K) complex values, before
        ``per_range`` sees them: the default ``--mode trajectories`` run
        (2000 x 40 000 rows, two workers) puts about 1.9 GB in each worker.
    increments:
        Noise of shape ``(n_traj, steps, K)`` to drive the steps in place
        of the trajectories' streams: a run's ``increments`` fed back
        reproduce it exactly (at ``record_stride=1``), and transformed
        increments drive the same path in another presentation of the model.
    """
    psi0 = check_pure_state(initial, model.dim)
    _check_run(
        dt,
        (("steps", steps, 1), ("record_stride", record_stride, 1), ("n_traj", n_traj, 1),
         ("seed", seed, 0), ("start_index", start_index, 0)),
    )
    specs = list(unraveling) if isinstance(unraveling, (list, tuple)) else [unraveling] * n_traj
    if not all(isinstance(spec, UnravelingSpec) for spec in specs):
        raise ValueError("unraveling must be an UnravelingSpec or a list or tuple of them")
    if len(specs) != n_traj:
        raise ValueError(f"got {len(specs)} unravelings for {n_traj} trajectories")
    if increments is not None:
        increments = _finite(increments, "increments", (n_traj, steps, model.num_lindblads))
    workers = max(1, min(default_workers(), n_traj // MIN_LANES))
    # At least one contiguous index range per worker, each of at most CHUNK.
    size = min(CHUNK, -(-n_traj // workers))
    ranges = [(start_index + lo, specs[lo : lo + size],
               None if increments is None else increments[lo : lo + size])
              for lo in range(0, n_traj, size)]
    workers = min(workers, len(ranges))
    run_range = partial(_run_chunk, model, psi0, dt, steps, seed, record_stride, per_range)
    run = EnsembleRun(None, None, None, range_results=[]) if per_range is not None else None
    records, lo = ("states", "currents", "increments", "final"), 0
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # lo is counted by hand: zip's reused result tuple would keep the
        # last range alive while the next one is computed.
        for part in pool.map(run_range, ranges) if pool else map(run_range, ranges):
            if per_range is not None:
                run.times, result = part
                run.range_results.append(result)
            elif len(ranges) == 1:  # the lone range is the run
                run = part
            else:
                if run is None:  # the batch arrays, shaped after the first range
                    run = EnsembleRun(part.times, **{
                        name: np.empty((n_traj, *getattr(part, name).shape[1:]), dtype=complex)
                        for name in records})
                for name in records:
                    getattr(run, name)[lo : lo + size] = getattr(part, name)
            lo += size
            del part  # hold one part at a time
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    run.workers, run.lane_ranges = workers, len(ranges)
    return run
