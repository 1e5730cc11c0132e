"""Closed-form driven-atom references used only by the tests.

Both are redundant with general package code (the mean-current formula and
the generic projector step), which is what makes them useful cross-checks.
"""

import numpy as np

from unravel import (
    AtomParams,
    FixedU,
    Heterodyne,
    InvariantStateDep,
    UnravelingSpec,
    bloch,
    build_atom,
    liouvillian_apply,
)
from unravel.fluorescence import SIGMA_MINUS, SIGMA_X, SIGMA_Y
from unravel.operators import check_density_matrix, check_pure_state
from linear_reference import expectation


def scenario_expected_current(params: AtomParams, spec: UnravelingSpec, state) -> complex:
    """Closed-form mean record for a named scenario's specification.

    In Bloch terms with root ``g = sqrt(gamma)``: u=+1 gives ``g x``; u=-1
    gives ``g (<s> - <s^dag>)``, i.e. ``-i g y``; u=0 gives ``g <s>``; the
    extremal state-dependent choices give 0 (sign +1) and ``2 g <s>``
    (sign -1).  Each equals the general mean-current formula evaluated at
    the resolved correlation matrix.
    """
    psi = check_pure_state(state, 2)
    g = np.sqrt(params.gamma)
    s = expectation(SIGMA_MINUS, psi)
    if isinstance(spec, FixedU) and spec.u.shape == (1, 1):
        val = complex(spec.u[0, 0])
        if abs(val - 1.0) < 1e-12:
            return complex(g * bloch(psi)[0])
        if abs(val + 1.0) < 1e-12:
            return complex(-1j * g * bloch(psi)[1])
        raise ValueError("no closed form for this fixed correlation value")
    if isinstance(spec, Heterodyne):
        return complex(g * s)
    if isinstance(spec, InvariantStateDep):
        if spec.sign == 1:
            return 0.0 + 0.0j
        return complex(2.0 * g * s)
    raise ValueError(f"no closed form for specification {spec!r}")


def sme_u1_decomposed_step(rho, dzeta: float, params: AtomParams, dt: float) -> np.ndarray:
    """One u = +1 projector step written in commutator/anticommutator form.

    The noise term splits into a Hamiltonian-like rotation and a positive
    back-action piece:
    ``sqrt(gamma) ({sigma_x - <sigma_x>, P}/2 - (i/2)[sigma_y, P]) dzeta``.
    Identical to the generic projector step with u = +1 and a real
    increment, including the rank-one re-projection.
    """
    model = build_atom(params)
    p = check_density_matrix(rho, 2)
    g = np.sqrt(params.gamma)
    x_val = expectation(SIGMA_X, p).real
    centered_x = SIGMA_X - x_val * np.eye(2)
    noise = g * (
        0.5 * (centered_x @ p + p @ centered_x) - 0.5j * (SIGMA_Y @ p - p @ SIGMA_Y)
    )
    new = p + dt * liouvillian_apply(model, p) + float(dzeta) * noise
    evals, evecs = np.linalg.eigh(new)
    vec = evecs[:, -1]
    return np.outer(vec, vec.conj())
