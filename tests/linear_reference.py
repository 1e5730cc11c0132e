"""Per-state reference formulas used only by the tests.

Every run goes through the batched kernel in ``unravel.trajectory``; these
are the same formulas written one state at a time, in the most direct
form, so that the kernel's rows and the package's ``resolve`` can be
checked against an independent copy.  The Kraus operator of one record
sample lives here too, since no run conditions through it.
"""

import numpy as np

from unravel import LindbladModel, NormCollapseError, spectral_norm
from unravel.operators import check_density_matrix, check_pure_state
from unravel.trajectory import NORM_FLOOR
from unravel.unravelings import MOMENT_FLOOR

# Conditioning on a record of likelihood below this is numerically void.
LIKELIHOOD_FLOOR = 1e-14


class VanishingLikelihoodError(RuntimeError):
    """A measurement outcome with numerically zero probability was applied."""


def expectation(op, state) -> complex:
    """Expectation value ``<op>`` in a state vector of length N or an
    ``(N, N)`` density matrix."""
    a = np.asarray(op, dtype=complex)
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return complex(np.vdot(s, a @ s))
    if s.ndim == 2:
        return complex(np.trace(a @ s))
    raise ValueError(f"state must be a vector or matrix, got shape {s.shape}")


def linear_generator(model: LindbladModel) -> np.ndarray:
    """``-iH - sum_k c_k^dag c_k / 2``."""
    gen = -1j * model.hamiltonian.astype(complex)
    for c in model.lindblads:
        gen -= 0.5 * (c.conj().T @ c)
    return gen


def expected_current(model: LindbladModel, u, state) -> np.ndarray:
    """Mean of the record, ``E[J]_k = <u_kj c_j^dag + c_k>``."""
    psi = check_pure_state(state, model.dim)
    a = np.asarray(u, dtype=complex)
    s = np.array([np.vdot(psi, c @ psi) for c in model.lindblads])
    return a @ s.conj() + s


def step_linear(model: LindbladModel, u, state, dxi, dt: float):
    """One linear-generator step; returns the renormalized state and J.

    The unnormalized update is
    ``phi += dt * (-iH - sum c^dag c / 2 + sum J_k^* c_k) phi`` with the
    currents built from the pre-step expectations and the supplied
    increments; the returned state is ``phi`` renormalized.
    """
    psi = check_pure_state(state, model.dim)
    inc = np.asarray(dxi, dtype=complex).reshape(-1)
    if inc.shape[0] != model.num_lindblads:
        raise ValueError(f"expected {model.num_lindblads} increments, got {inc.shape[0]}")
    j_dt = expected_current(model, u, psi) * dt + inc
    phi = psi + dt * (linear_generator(model) @ psi)
    for k, c in enumerate(model.lindblads):
        phi = phi + j_dt[k].conjugate() * (c @ psi)
    norm = np.linalg.norm(phi)
    if norm < NORM_FLOOR:
        raise NormCollapseError(f"state norm collapsed to {norm}")
    return phi / norm, j_dt / dt


def state_moments(model: LindbladModel, state) -> np.ndarray:
    """Symmetrized second moments of the centered channels,
    ``M_jk = <{(c_j - <c_j>), (c_k - <c_k>)}> / 2``, one entry at a time."""
    psi = check_pure_state(state, model.dim)
    eye = np.eye(model.dim)
    deltas = [c - expectation(c, psi) * eye for c in model.lindblads]
    k = model.num_lindblads
    m = np.empty((k, k), dtype=complex)
    for j in range(k):
        for l in range(j, k):
            prod = 0.5 * (deltas[j] @ deltas[l] + deltas[l] @ deltas[j])
            m[j, l] = m[l, j] = expectation(prod, psi)
    return m


def extremal_weight(moment, sign: int) -> float:
    """``sign / ||M||``, or 0 when the norm is at most ``MOMENT_FLOOR``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    norm = spectral_norm(moment)
    if norm <= MOMENT_FLOOR:
        return 0.0
    return float(sign) / norm


def reference_u(model: LindbladModel, spec, state) -> np.ndarray:
    """The correlations ``spec`` resolves to at ``state``, with the
    state-dependent ones rebuilt from ``state_moments``."""
    if not spec.state_dependent or model.num_lindblads == 0:
        return spec.resolve(model, state)
    m = state_moments(model, state)
    return extremal_weight(m, spec.sign) * m


def measurement_operator(model: LindbladModel, currents, dt: float) -> np.ndarray:
    """Kraus operator of one record sample,
    ``1 - iH dt - sum c^dag c dt / 2 + sum J_k^* c_k dt``.

    Averaged over the zero-mean record measure with correlations ``u``,
    the operators resolve the identity up to O(dt^2).
    """
    j = np.asarray(currents, dtype=complex).reshape(-1)
    if j.shape[0] != model.num_lindblads:
        raise ValueError(f"expected {model.num_lindblads} currents, got {j.shape[0]}")
    omega = np.eye(model.dim, dtype=complex) + dt * linear_generator(model)
    for k, c in enumerate(model.lindblads):
        omega = omega + dt * j[k].conjugate() * c
    return omega


def apply_measurement(omega, rho) -> np.ndarray:
    """Condition a state on one record sample: Omega rho Omega^dag, normalized."""
    o = np.asarray(omega, dtype=complex)
    r = check_density_matrix(rho, o.shape[0])
    new = o @ r @ o.conj().T
    weight = np.trace(new).real
    if weight <= LIKELIHOOD_FLOOR:
        raise VanishingLikelihoodError(f"record likelihood {weight} is numerically zero")
    return new / weight
