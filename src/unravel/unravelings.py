"""Correlated complex noise for diffusive measurement records.

Every diffusive conditioning of a K-channel model is labeled by one complex
symmetric K x K matrix ``u`` fixing the pairwise correlations of the complex
Wiener increments driving the record:

    dxi_j dxi_k^* = dt delta_jk        dxi_j dxi_k = dt u_jk

The increments have a real Gaussian description on the 2K-dimensional
vector (Re dxi, Im dxi) with covariance ``real_embedding(u, dt)``, which is
positive semi-definite exactly when the spectral norm of ``u`` is at most 1.
On the boundary the covariance is singular and some noise quadratures are
deterministically frozen; sampling goes through an eigendecomposition so
that frozen directions come out exactly zero.

The module also provides the state- and model-derived ``u`` choices built
from second moments of the centered Lindblad operators, which produce
conditioned dynamics independent of the operator representation, plus the
single-channel quadrature-mixing family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LindbladModel, check_pure_state, expectation

# Deviation from complex symmetry tolerated in a u matrix.
SYMMETRY_TOL = 1e-12
# Spectral norms up to 1 + NORM_SLACK are accepted as valid.
NORM_SLACK = 1e-10
# Covariance eigenvalues in [-CLAMP_TOL, 0] are clamped to zero when sampling.
CLAMP_TOL = 1e-10
# Extremal correlation weights fall back to zero below this moment norm.
MOMENT_FLOOR = 1e-9
# apply_color sums stacks of at least this many normals one component at a
# time, smaller ones all components at once; the result is the same either
# way.  On a 2-core VM the first was 3.3x faster on a lanes-last block of
# 64 steps x 256 lanes x 6 normals and 1.2x slower on 1024 lanes x 6.
WIDE_STACK = 8192


class UMatrixError(ValueError):
    """A u matrix fails one of its structural requirements."""


class AsymmetricUMatrixError(UMatrixError):
    """The matrix is not complex symmetric."""


class NormExceededError(UMatrixError):
    """The spectral norm is beyond 1, so no measurement realizes u."""

    def __init__(self, norm: float):
        super().__init__(f"spectral norm {norm} exceeds 1")
        self.norm = float(norm)


class CovarianceError(ValueError):
    """The real covariance has an eigenvalue too negative to clamp."""


def spectral_norm(u) -> float:
    """Largest singular value of a matrix."""
    return float(np.linalg.norm(np.asarray(u, dtype=complex), 2))


def validate_u(u) -> np.ndarray:
    """Check that ``u`` is a valid correlation matrix and return it.

    Raises
    ------
    AsymmetricUMatrixError
        If ``u`` deviates from complex symmetry by more than 1e-12.
    NormExceededError
        If the spectral norm exceeds 1 beyond a 1e-10 slack.
    """
    a = np.asarray(u, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UMatrixError(f"u must be square, got shape {a.shape}")
    if a.size == 0:
        # zero channels: the empty matrix is trivially valid
        return a
    if not np.all(np.isfinite(a.view(float))):
        raise UMatrixError("u contains non-finite entries")
    if np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise AsymmetricUMatrixError("u is not complex symmetric")
    norm = spectral_norm(a)
    if norm > 1.0 + NORM_SLACK:
        raise NormExceededError(norm)
    return a


def is_valid_u(u) -> bool:
    """True when ``validate_u`` accepts the matrix."""
    try:
        validate_u(u)
    except UMatrixError:
        return False
    return True


def real_embedding(u, dt: float) -> np.ndarray:
    """Real 2K x 2K covariance of (Re dxi, Im dxi) over one step of size dt.

    Its smallest eigenvalue equals ``dt * (1 - spectral_norm(u)) / 2``, so
    positive semi-definiteness is equivalent to the norm bound on ``u``.
    A stack of matrices of shape ``(..., K, K)`` gives a stack of
    covariances of shape ``(..., 2K, 2K)``.
    """
    a = np.asarray(u, dtype=complex)
    k = a.shape[-1]
    eye = np.eye(k)
    return (dt / 2.0) * np.block(
        [[eye + a.real, a.imag], [a.imag, eye - a.real]]
    )


def color_factors(u, dt: float):
    """Factor the real covariance of ``u`` for ``apply_color``.

    ``u`` of shape ``(..., K, K)`` must already satisfy ``validate_u``.  For
    K = 1 the factors are, in closed form, the phase ``exp(i angle(u) / 2)``
    and the square roots of the covariance eigenvalues ``dt (1 + |u|) / 2``
    and ``dt (1 - |u|) / 2``; for K > 1 they are the eigenvectors of
    ``real_embedding(u, dt)`` and the square roots of its eigenvalues.
    Eigenvalues in ``[-CLAMP_TOL, 0]`` are clamped to zero, so frozen
    quadratures on the boundary ``||u|| = 1`` come out exactly zero.

    Raises
    ------
    CovarianceError
        If an eigenvalue lies below ``-CLAMP_TOL``.
    """
    a = np.asarray(u, dtype=complex)
    if a.shape[-1] == 1:
        # Closed-form eigendecomposition of the 2x2 covariance.
        r = np.abs(a[..., 0, 0])
        phi = 0.5 * np.angle(a[..., 0, 0])
        lam_plus = dt * (1.0 + r) / 2.0
        lam_minus = dt * (1.0 - r) / 2.0
        if lam_minus.min() < -CLAMP_TOL:
            raise CovarianceError(f"covariance eigenvalue {lam_minus.min()} below clamp tolerance")
        return np.exp(1j * phi), np.sqrt(lam_plus), np.sqrt(np.maximum(lam_minus, 0.0))
    evals, evecs = np.linalg.eigh(real_embedding(a, dt))
    if evals.size and evals.min() < -CLAMP_TOL:
        raise CovarianceError(f"covariance eigenvalue {evals.min()} below clamp tolerance")
    return evecs, np.sqrt(np.clip(evals, 0.0, None))


def apply_color(factors, z, out=None) -> np.ndarray:
    """Colour standard normals ``z`` of shape ``(..., 2K)`` with the factors
    from ``color_factors``, broadcast against them; returns the complex
    increments of shape ``(..., K)``, written into ``out`` if it is given.

    For K > 1 the real vector ``x = E (sqrt(lambda) z)`` is summed term by
    term, ``x_i = sum_j E_ij (sqrt(lambda_j) z_j)`` with j rising, from
    elementwise products and sums over the stack.  Every entry of the
    result therefore depends only on its own factors and ``z``, not on the
    size, order or memory layout of the stack.  A wide stack is summed one
    component at a time, which streams when each component's slice of
    ``z`` runs along memory (lanes last).
    """
    k = z.shape[-1] // 2
    if k == 1:
        phase, root_plus, root_minus = factors
        val = phase * (root_plus * z[..., 0] + 1j * root_minus * z[..., 1])
        if out is None:
            return val[..., None]
        out[..., 0] = val
        return out
    evecs, roots = factors
    batch = np.broadcast_shapes(evecs.shape[:-2], roots.shape[:-1], z.shape[:-1])
    if out is None:
        out = np.moveaxis(np.empty((k,) + batch, dtype=complex), 0, -1)
    if k == 0:
        return out
    scaled = roots * z
    if scaled.size < WIDE_STACK:
        x = evecs[..., :, 0] * scaled[..., 0, None]
        for j in range(1, 2 * k):
            x += evecs[..., :, j] * scaled[..., j, None]
        out.real, out.imag = x[..., :k], x[..., k:]
        return out
    x, term = np.empty(batch), np.empty(batch)
    for i in range(2 * k):
        np.multiply(evecs[..., i, 0], scaled[..., 0], out=x)
        for j in range(1, 2 * k):
            x += np.multiply(evecs[..., i, j], scaled[..., j], out=term)
        (out.real if i < k else out.imag)[..., i % k] = x
    return out


def extremal_factors(moment, signs, dt: float):
    """Weights and colour factors of the extremal state-dependent
    correlations ``u = w M`` with ``w = sign / ||M||``, for a stack of
    K x K moment matrices ``M`` (K > 1) of shape ``(..., K, K)``.

    One ``eigh`` of the real symmetric ``B = [[Re M, Im M], [Im M, -Re M]]``
    does the work: its eigenvalues are the singular values of ``M`` and
    their negatives, so its top eigenvalue is ``||M||``, and since
    ``real_embedding(w M, dt) = dt (I + w B) / 2`` its eigenvectors with the
    roots of ``dt (1 + w lambda) / 2`` are colour factors of ``u`` for
    ``apply_color``.  They factor the same covariance as
    ``color_factors(u, dt)``, with eigenvectors that may differ in sign or
    order.  Where ``||M||`` is at most ``MOMENT_FLOOR`` the weight is 0 and
    the factors are those of ``u = 0``, exactly.

    Raises
    ------
    CovarianceError
        If a covariance eigenvalue lies below ``-CLAMP_TOL``.
    """
    m = np.asarray(moment, dtype=complex)
    k = m.shape[-1]
    b = np.empty(m.shape[:-2] + (2 * k, 2 * k))
    b[..., :k, :k] = m.real
    b[..., :k, k:] = m.imag
    b[..., k:, :k] = m.imag
    b[..., k:, k:] = -m.real
    evals, evecs = np.linalg.eigh(b)
    norm = evals[..., -1]
    live = norm > MOMENT_FLOOR
    weight = np.where(live, signs / np.where(live, norm, 1.0), 0.0)
    lam = (dt / 2.0) * (1.0 + weight[..., None] * evals)
    if lam.size and lam.min() < -CLAMP_TOL:
        raise CovarianceError(f"covariance eigenvalue {lam.min()} below clamp tolerance")
    roots = np.sqrt(np.clip(lam, 0.0, None))
    if not live.all():
        zero_evecs, zero_roots = color_factors(np.zeros((k, k)), dt)
        evecs = np.where(live[..., None, None], evecs, zero_evecs)
        roots = np.where(live[..., None], roots, zero_roots)
    return weight, (evecs, roots)


def color_increments(u, z, dt: float) -> np.ndarray:
    """Map standard normals to complex increments dxi with correlations ``u``.

    ``u`` of shape ``(..., K, K)`` must already satisfy ``validate_u``; ``z``
    of shape ``(..., 2K)`` holds the standard normals, broadcast against
    ``u``.  This is ``apply_color(color_factors(u, dt), z)``: the normals
    are coloured by the eigendecomposition of the real covariance, in
    closed form for K = 1.  A constant ``u`` may be factored once and its
    factors applied to many blocks of normals with the same result.

    Returns
    -------
    ndarray
        Complex increments of shape ``(..., K)``.
    """
    return apply_color(color_factors(u, dt), z)


def sample_increments(u, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector of complex increments dxi with correlations ``u``.

    ``u`` must already satisfy ``validate_u``.  Consumes exactly 2K standard
    normal variates from ``rng``, so a fixed generator state yields a fixed
    sample regardless of surrounding calls; the normals are mapped by
    ``color_increments``, exactly as the trajectory kernel maps them for a
    constant ``u``.

    Parameters
    ----------
    u:
        Complex symmetric ``(K, K)`` correlation matrix.
    dt:
        Step size.
    rng:
        numpy Generator supplying standard normals.

    Returns
    -------
    ndarray
        Complex increments of shape ``(K,)``.
    """
    a = np.asarray(u, dtype=complex)
    z = rng.standard_normal(2 * a.shape[0])
    # A stack of one: numpy's scalar complex arithmetic rounds differently.
    return color_increments(a[None], z[None], dt)[0]


def _centered_lindblads(model: LindbladModel, state) -> list[np.ndarray]:
    psi = check_pure_state(state, model.dim)
    eye = np.eye(model.dim)
    return [c - expectation(c, psi) * eye for c in model.lindblads]


def u_state_dependent(model: LindbladModel, state, weight: float) -> np.ndarray:
    """Correlations from the symmetrized second moments of the centered c_k.

    ``u_jk = weight * <{(c_j - <c_j>), (c_k - <c_k>)}> / 2`` in the given
    state.  The symmetrization makes the matrix complex symmetric; under a
    unitary remixing T of the Lindblad operators the result transforms as
    ``T u T^T``, which is precisely how increment correlations transform,
    so the conditioned dynamics is representation independent.
    """
    psi = check_pure_state(state, model.dim)
    deltas = _centered_lindblads(model, psi)
    k = model.num_lindblads
    m = np.empty((k, k), dtype=complex)
    for j in range(k):
        for l in range(j, k):
            prod = 0.5 * (deltas[j] @ deltas[l] + deltas[l] @ deltas[j])
            m[j, l] = m[l, j] = expectation(prod, psi)
    return weight * m


def u_trace(model: LindbladModel, weight: float) -> np.ndarray:
    """State-independent analogue built from trace-centered operators.

    ``u_jk = weight * Tr[(c_j - Tr c_j / N)(c_k - Tr c_k / N)]`` with
    symmetrized products; constant along a trajectory.
    """
    n = model.dim
    eye = np.eye(n)
    cent = [c - (np.trace(c) / n) * eye for c in model.lindblads]
    k = model.num_lindblads
    m = np.empty((k, k), dtype=complex)
    for j in range(k):
        for l in range(j, k):
            prod = 0.5 * (cent[j] @ cent[l] + cent[l] @ cent[j])
            m[j, l] = m[l, j] = np.trace(prod)
    return weight * m


def extremal_R(moment_matrix, sign: int) -> float:
    """Largest-magnitude weight keeping ``R * M`` a valid correlation matrix.

    Returns ``sign / spectral_norm(M)``, or 0 when the norm is below the
    1e-9 floor (the correlations then collapse to the uncorrelated case).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    norm = spectral_norm(moment_matrix)
    if norm <= MOMENT_FLOOR:
        return 0.0
    return float(sign) / norm


def homodyne_u(eta: float, theta1: float, theta2: float) -> np.ndarray:
    """Single-channel correlation from splitting the output between two
    local oscillator phases: ``u = eta e^{2i theta1} + (1-eta) e^{2i theta2}``.

    Valid for every efficiency split, since it is a convex combination of
    unit-modulus numbers.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    val = eta * np.exp(2j * theta1) + (1.0 - eta) * np.exp(2j * theta2)
    return np.array([[val]], dtype=complex)


@dataclass(frozen=True)
class FixedU:
    """A constant, explicitly supplied correlation matrix."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", validate_u(self.u))

    state_dependent = False

    def resolve(self, model: LindbladModel, state=None) -> np.ndarray:
        if self.u.shape[0] != model.num_lindblads:
            raise ValueError(
                f"u has {self.u.shape[0]} channels, model has {model.num_lindblads}"
            )
        return self.u

    def to_dict(self) -> dict:
        from .operators import matrix_to_pairs

        return {"type": "fixed", "u": matrix_to_pairs(self.u)}


@dataclass(frozen=True)
class Homodyne:
    """Single-channel two-phase quadrature mixing."""

    eta: float
    theta1: float
    theta2: float = 0.0

    state_dependent = False

    def resolve(self, model: LindbladModel, state=None) -> np.ndarray:
        if model.num_lindblads != 1:
            raise ValueError("homodyne mixing is defined for single-channel models")
        return homodyne_u(self.eta, self.theta1, self.theta2)

    def to_dict(self) -> dict:
        return {
            "type": "homodyne",
            "eta": float(self.eta),
            "theta1": float(self.theta1),
            "theta2": float(self.theta2),
        }


@dataclass(frozen=True)
class Heterodyne:
    """Uncorrelated increments, u = 0."""

    state_dependent = False

    def resolve(self, model: LindbladModel, state=None) -> np.ndarray:
        k = model.num_lindblads
        return np.zeros((k, k), dtype=complex)

    def to_dict(self) -> dict:
        return {"type": "heterodyne"}


@dataclass(frozen=True)
class InvariantStateDep:
    """Extremal state-dependent correlations, resolved each step.

    With ``sign=+1`` the correlations maximally suppress the fluctuations of
    the record mean; with ``sign=-1`` they maximally enhance them.  Either
    way the resolved matrix has spectral norm 1 (or is zero at states whose
    centered second moments vanish).
    """

    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    state_dependent = True

    def resolve(self, model: LindbladModel, state) -> np.ndarray:
        m = u_state_dependent(model, state, 1.0)
        return extremal_R(m, self.sign) * m

    def to_dict(self) -> dict:
        return {"type": "invariant", "sign": int(self.sign)}


@dataclass(frozen=True)
class InvariantTrace:
    """Constant correlations from trace-centered second moments."""

    weight: float = 0.0

    state_dependent = False

    def resolve(self, model: LindbladModel, state=None) -> np.ndarray:
        return validate_u(u_trace(model, self.weight))

    def to_dict(self) -> dict:
        return {"type": "invariant_trace", "R": float(self.weight)}


# Any of the above classes; they share resolve() and to_dict().
UnravelingSpec = FixedU | Homodyne | Heterodyne | InvariantStateDep | InvariantTrace


def spec_from_dict(data: dict) -> UnravelingSpec:
    """Rebuild an unraveling specification from its JSON object form."""
    from .operators import matrix_from_pairs

    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError("unraveling object must have a 'type' field") from exc
    if kind == "fixed":
        return FixedU(u=matrix_from_pairs(data["u"]))
    if kind == "homodyne":
        return Homodyne(
            eta=float(data["eta"]),
            theta1=float(data["theta1"]),
            theta2=float(data.get("theta2", 0.0)),
        )
    if kind == "heterodyne":
        return Heterodyne()
    if kind == "invariant":
        return InvariantStateDep(sign=int(data.get("sign", 1)))
    if kind == "invariant_trace":
        return InvariantTrace(weight=float(data.get("R", 0.0)))
    raise ValueError(f"unknown unraveling type {kind!r}")
