"""Deterministic ensemble-level references for trajectory validation.

The conditioned trajectories must average to the solution of the ensemble
master equation.  This module builds the vectorized generator once as a
matrix, integrates with classical fourth-order Runge-Kutta (for this linear
generator a fixed step matrix, the degree-4 Taylor polynomial of ``dt L``),
finds stationary states from the kernel of the same matrix, and quantifies
the gap between an empirical trajectory average and the deterministic
solution with a trace distance and a jackknife standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (LindbladModel, _check_run, _check_states, check_density_matrix,
                        liouvillian_apply)

# Singular values below this count toward the kernel of the generator.
KERNEL_TOL = 1e-8
# A stationary state must satisfy the generator to this accuracy.
RESIDUAL_TOL = 1e-10
# The ensemble gate: every trace distance within this many standard errors,
# plus an absolute slack for rounding where all trajectories agree (error 0).
GATE_STANDARD_ERRORS = 3.0
GATE_ATOL = 1e-12


class DegenerateSteadyStateError(RuntimeError):
    """The generator kernel is not one-dimensional."""


def integrate_master(model: LindbladModel, rho0, dt: float, steps: int) -> np.ndarray:
    """Integrate the ensemble equation with RK4.

    For the constant generator ``L`` of ``liouvillian_matrix`` one step is
    ``P = I + A (I + A/2 (I + A/3 (I + A/4)))`` with ``A = dt L``, built
    once; it is dense ``N^2 x N^2``, about 100 MB at N = 50.

    Returns
    -------
    ndarray
        Density matrices of shape ``(steps + 1, N, N)``, starting at rho0.
        A ``dt`` that is not positive and finite, or ``steps`` that is not an
        integer of at least 0, raises ``ValueError``.
    """
    _check_run(dt, (("steps", steps, 0),))
    rho = check_density_matrix(rho0, model.dim)
    a = dt * liouvillian_matrix(model)
    eye = np.eye(a.shape[0])
    step = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
    out = np.empty((steps + 1, model.dim, model.dim), dtype=complex)
    out[0] = rho
    flat = out.reshape(steps + 1, -1)
    for i in range(steps):
        flat[i + 1] = step @ flat[i]
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Matrix of the generator acting on row-major vectorized states."""
    n = model.dim
    eye = np.eye(n)
    h = model.hamiltonian
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in model.lindblads:
        cdc = c.conj().T @ c
        mat += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return mat


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique stationary density matrix of the generator.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel of the vectorized generator is not one-dimensional
        (singular values below 1e-8 decide membership).
    """
    mat = liouvillian_matrix(model)
    _, svals, vh = np.linalg.svd(mat)
    kernel = svals < KERNEL_TOL
    if int(kernel.sum()) != 1:
        raise DegenerateSteadyStateError(
            f"generator kernel has dimension {int(kernel.sum())}, expected 1"
        )
    rho = vh[-1].conj().reshape(model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < KERNEL_TOL:
        raise DegenerateSteadyStateError("kernel vector has vanishing trace")
    rho = rho / trace
    residual = np.abs(liouvillian_apply(model, rho)).max()
    if residual > RESIDUAL_TOL:
        raise DegenerateSteadyStateError(f"stationary residual {residual} too large")
    return rho


def trace_distance(a, b):
    """Half the trace norm of the difference of two finite Hermitian matrices
    (else ``ValueError``), one per matrix for stacks ``(..., N, N)``, which broadcast."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    if not np.isfinite(diff).all():
        raise ValueError("trace_distance got non-finite matrices")
    herm = 0.5 * (diff + np.swapaxes(diff, -1, -2).conj())
    return 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


@dataclass
class EnsembleSummary:
    """Trajectory-average versus reference comparison on a time grid."""

    times: np.ndarray
    mean_states: np.ndarray
    trace_distances: np.ndarray
    standard_errors: np.ndarray
    n_trajectories: int

    @property
    def bounds(self) -> np.ndarray:
        """The gate's limit at each time: ``GATE_STANDARD_ERRORS`` standard
        errors plus ``GATE_ATOL``."""
        return GATE_STANDARD_ERRORS * self.standard_errors + GATE_ATOL

    def passed(self) -> bool:
        """True when every distance is within its ``bounds``."""
        return bool(np.all(self.trace_distances <= self.bounds))

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "trace_distance": [float(d) for d in self.trace_distances],
            "stderr": [float(s) for s in self.standard_errors],
            "n_trajectories": int(self.n_trajectories),
            "passed": self.passed(),
        }


def ensemble_summary(times, states, reference) -> EnsembleSummary:
    """Compare a trajectory ensemble against reference density matrices.

    Parameters
    ----------
    times:
        Shared time grid of length T.
    states:
        Normalized state vectors ``(M, T, N)``: ``check_pure_state``'s rule, else ``ValueError``.
    reference:
        Finite density matrices of shape ``(T, N, N)`` on the same grid.

    Notes
    -----
    The standard error of each trace distance is estimated by the jackknife
    over trajectories: recompute the distance with each trajectory left out
    and rescale the spread of the leave-one-out values.
    """
    t_arr = np.asarray(times, dtype=float)
    psi = np.asarray(states, dtype=complex)
    ref = np.asarray(reference, dtype=complex)
    if psi.ndim != 3:
        raise ValueError(f"states must have shape (M, T, N), got {psi.shape}")
    m, t_len, n = psi.shape
    if ref.shape != (t_len, n, n) or t_arr.shape[0] != t_len:
        raise ValueError("times, states, and reference grids do not match")
    if m < 2:
        raise ValueError("jackknife needs at least two trajectories")
    _check_states(psi)
    mean_states = np.empty((t_len, n, n), dtype=complex)
    errors = np.empty(t_len)
    for t in range(t_len):
        proj = np.einsum("mi,mj->mij", psi[:, t], psi[:, t].conj())
        mean = proj.mean(axis=0)
        mean_states[t] = mean
        d_loo = trace_distance((m * mean[None] - proj) / (m - 1), ref[t])
        errors[t] = np.sqrt((m - 1) / m * ((d_loo - d_loo.mean()) ** 2).sum())
    return EnsembleSummary(
        times=t_arr,
        mean_states=mean_states,
        trace_distances=trace_distance(mean_states, ref),
        standard_errors=errors,
        n_trajectories=m,
    )
