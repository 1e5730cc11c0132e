"""Correlated complex noise for diffusive measurement records.

Every diffusive conditioning of a K-channel model is labeled by one complex
symmetric K x K matrix ``u`` fixing the pairwise correlations of the complex
Wiener increments driving the record:

    dxi_j dxi_k^* = dt delta_jk        dxi_j dxi_k = dt u_jk

The increments have a real Gaussian description on the 2K-dimensional
vector (Re dxi, Im dxi) with covariance ``real_embedding(u, dt)``, which is
positive semi-definite exactly when the spectral norm of ``u`` is at most 1.

Each ``u`` is a way of monitoring the outputs: its Takagi form
``u = V diag(sigma) V^T`` remixes the K output channels by the unitary V
and splits channel j between two quadrature phases with efficiency
``(1 + sigma_j) / 2``.  Sampling is that measurement for every K,
``dxi = V (a z_a + i b z_b)`` with ``a, b = sqrt(dt (1 +- sigma) / 2)``, so
quadratures frozen on the boundary (``b = 0``) come out exactly zero.  For
K = 1, ``V = sqrt(u / |u|)``; on the boundary ``|u| = 1`` that is
``dxi = sqrt(dt u) z_a``, the closed form of the extremal state-dependent
correlations.

The colouring functions take the trajectory kernel's layout, component
axes first and stack (lane) axes last: ``u``, ``M`` and ``V`` are
``(K, K, ...)``, ``sigma``, ``a`` and ``b`` ``(K, ...)``, standard normals
``(2K, ...)`` and increments ``(K, ...)``.

The module also provides the state- and model-derived ``u`` choices built
from second moments of the centered Lindblad operators, which produce
conditioned dynamics independent of the operator representation, plus the
single-channel quadrature-mixing family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    LindbladModel,
    _check_run,
    _check_states,
    _json_numbers,
    _stack_apply,
    matrix_from_pairs,
    matrix_to_pairs,
    shift_lindblads,
)

# Deviation from complex symmetry tolerated in a u matrix.
SYMMETRY_TOL = 1e-12
# Spectral norms up to 1 + NORM_SLACK are accepted as valid.
NORM_SLACK = 1e-10
# Covariance eigenvalues in [-CLAMP_TOL, 0] are clamped to zero when sampling.
CLAMP_TOL = 1e-10
# Extremal correlation weights fall back to zero below this moment norm.
MOMENT_FLOOR = 1e-9


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


def _read_u(u) -> np.ndarray:
    """``u`` ``(..., K, K)`` as complex: square, finite and symmetric, else ``UMatrixError``."""
    a = np.asarray(u, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise UMatrixError(f"u must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise UMatrixError("u contains non-finite entries")
    if np.abs(a - np.swapaxes(a, -1, -2)).max(initial=0.0) > SYMMETRY_TOL:
        raise AsymmetricUMatrixError("u is not complex symmetric")
    return a


def _read_one_u(u) -> np.ndarray:
    """One ``u`` ``(K, K)`` read by ``_read_u``, else ``UMatrixError``."""
    a = _read_u(u)
    if a.ndim != 2:
        raise UMatrixError(f"u must be one (K, K) matrix, got shape {a.shape}")
    return a


def spectral_norm(u) -> float:
    """Largest singular value of one ``u``, read by ``_read_one_u``."""
    return float(np.linalg.norm(_read_one_u(u), 2))


def validate_u(u) -> np.ndarray:
    """Check that ``u`` is a valid correlation matrix and return it.

    Raises
    ------
    AsymmetricUMatrixError
        If ``u`` deviates from complex symmetry by more than 1e-12.
    NormExceededError
        If the spectral norm exceeds 1 beyond a 1e-10 slack.
    """
    a = _read_one_u(u)
    if a.size == 0:  # zero channels: the empty matrix is trivially valid
        return a
    norm = float(np.linalg.norm(a, 2))  # spectral_norm, without reading u again
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
    covariances of shape ``(..., 2K, 2K)``.  ``u`` may lie beyond the norm
    bound, where the covariance is indefinite, but ``_read_u`` must accept
    it (else ``UMatrixError``), and ``dt`` must be positive and finite.
    """
    _check_run(dt, ())
    a = _read_u(u)
    k = a.shape[-1]
    eye = np.eye(k)
    return (dt / 2.0) * np.block(
        [[eye + a.real, a.imag], [a.imag, eye - a.real]]
    )


def takagi(m):
    """Takagi factors ``(V, sigma)`` of complex symmetric ``m`` ``(K, K, ...)``:
    ``m = V diag(sigma) V^T`` with V unitary and ``sigma`` ``(K, ...)`` largest first.

    K = 1 has the closed form ``V = sqrt(m / |m|)``, the principal square
    root of the unit phase (``V = 1`` at ``m = 0``), and ``sigma = |m|``.
    For K > 1 the eigenvalues of ``B = [[Re m, Im m], [Im m, -Re m]]`` are
    the ``sigma_j`` and their negatives, and an eigenvector ``(x, y)`` of
    ``sigma_j`` gives a column ``x + i y``.  A QR whose R has a non-negative
    diagonal completes the columns to a unitary: where two or more
    ``sigma_j`` vanish, the eigenvectors of 0 may repeat a column times i.

    At K = 1 the negative real axis is the branch cut of the square root:
    there the sign of a zero ``Im m`` chooses ``V = i`` (``+0``) or
    ``V = -i`` (``-0``), as ``csqrt(-1 +- 0i) = +-i``.  The unit phase
    divides the real and imaginary parts of m by ``|m|``, which keeps that
    sign; a complex quotient would drop it, and ``1 / |m|`` overflows at a
    subnormal ``|m|``.  A subnormal m is scaled by ``2**64`` first, which is
    exact, because its own parts hold too few bits for a unit phase.  Both
    roots factor ``m``, but they colour the same normals into increments of
    opposite sign.  From the atom's ``+x`` state
    ``M = -gamma/4`` exactly, so ``invariant_plus`` starts at ``u = -1`` and
    its sample paths follow the sign of that zero: any regrouping of the
    arithmetic of M that flips it moves them macroscopically.
    """
    k = m.shape[0]
    if k == 1:
        r = np.abs(m[0])
        scaled = m.copy()
        np.multiply(m, 2.0**64, out=scaled, where=r < np.finfo(float).tiny)
        r_scaled = np.abs(scaled[0])
        unit = np.ones_like(m)  # 1 where m = 0
        np.divide(scaled.real, r_scaled, out=unit.real, where=r > 0)
        np.divide(scaled.imag, r_scaled, out=unit.imag, where=r > 0)
        return np.sqrt(unit), r
    b = np.concatenate([np.concatenate([m.real, m.imag], 1), np.concatenate([m.imag, -m.real], 1)])
    # numpy.linalg takes the matrix axes last: move them there, and back
    lanes = tuple(range(m.ndim - 2))
    evals, evecs = np.linalg.eigh(b.transpose(tuple(i + 2 for i in lanes) + (0, 1)))
    sigma = np.ascontiguousarray(evals[..., ::-1][..., :k].transpose((-1,) + lanes))
    top = evecs[..., ::-1][..., :k]
    q, r = np.linalg.qr(top[..., :k, :] + 1j * top[..., k:, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (np.sign(d) + (d == 0))[..., None, :]  # the phase d / |d|, or 1 at d = 0
    return q.transpose((-2, -1) + lanes), sigma


def _roots(s, dt: float):
    """``(a, b) = sqrt(dt (1 +- s) / 2)`` for ``u = V diag(s) V^T``, ``s`` ``(K, ...)``
    of either sign, and the one clamp: ``a**2`` or ``b**2`` below ``-CLAMP_TOL``
    raises ``CovarianceError``, and smaller excursions are clamped to zero."""
    # dt (1 + s) / 2 and dt (1 - s) / 2; halving dt first rounds the same
    lam = (dt / 2.0) * (1.0 + np.multiply.outer((1.0, -1.0), s))
    if lam.min(initial=0.0) < -CLAMP_TOL:
        raise CovarianceError(f"covariance eigenvalue {lam.min()} below clamp tolerance")
    return np.sqrt(np.maximum(lam, 0.0))


def color_factors(u, dt: float):
    """Factor ``u`` ``(K, K, ...)``, read by ``_read_u`` as its transpose
    ``(..., K, K)``, for ``apply_color``: the unitary V ``(K, K, ...)`` of
    ``takagi(u)`` and the roots ``a, b = sqrt(dt (1 +- sigma) / 2)``
    ``(K, ...)`` of the eigenvalues of ``real_embedding(u, dt)``.
    Eigenvalues in ``[-CLAMP_TOL, 0]`` are clamped to zero, so frozen
    quadratures on the boundary ``||u|| = 1`` come out exactly zero.

    Raises
    ------
    CovarianceError
        If an eigenvalue lies below ``-CLAMP_TOL``.
    """
    v, sigma = takagi(_read_u(np.asarray(u, dtype=complex).T).T)
    return (v, *_roots(sigma, dt))


def apply_color(factors, z, out=None) -> np.ndarray:
    """Colour standard normals ``z`` ``(2K, ...)`` with the factors
    ``(V, a, b)`` from ``color_factors``, broadcast against them, into
    complex increments ``(K, ...)``, written into ``out`` if it is given.

    This is the measurement of ``u = V diag(sigma) V^T``: channel j is split
    between two quadrature phases, ``w_j = a_j z_j + i b_j z_{K+j}``, and the
    channels are remixed by V, ``dxi_i = sum_j V_ij w_j`` with j rising, from
    elementwise products over the stack, the later terms one component at
    a time.  So each entry of the result depends only on its own factors
    and ``z``, not on the size or layout of the stack, and each component
    streams along the lanes.
    """
    v, a, b = factors
    k = z.shape[0] // 2
    w = (a * z[:k]).astype(complex)
    np.multiply(b, z[k:], out=w.imag)
    out = np.multiply(v[:, 0], w[:1], out=out)
    for i in range(k):
        for j in range(1, k):
            out[i] += v[i, j] * w[j]
    return out


def moment_pairs(lindblads) -> np.ndarray:
    """Symmetrized products ``{c_j, c_l} / 2`` of a ``(K, N, N)`` stack of
    channel operators, of shape ``(K, K, N, N)``, from whose expectations
    ``centered_moments`` forms the second moments."""
    cs = np.asarray(lindblads, dtype=complex)
    pairs = np.einsum("jab,lbc->jlac", cs, cs)
    return 0.5 * (pairs + pairs.transpose(1, 0, 2, 3))


def _kernel_rows(model: LindbladModel):
    """The stack the trajectory kernel steps, ``(1 + K + K^2, N, N)``, and
    the traces ``t = Tr c / N``: the linear generator
    ``-iH - sum_k c_k^dag c_k / 2``, the channels and their
    ``moment_pairs``, of the model shifted by ``-t`` with the Hamiltonian
    then made traceless.  Every shift of a model has this one trace-free
    presentation; a batch of constant lanes steps the leading ``1 + K``."""
    n, k = model.dim, model.num_lindblads
    t = np.array([np.trace(c) / n for c in model.lindblads], dtype=complex)
    free = shift_lindblads(model, -t)
    cs = np.array(free.lindblads, dtype=complex).reshape(k, n, n)
    gen = -1j * (free.hamiltonian - (np.trace(free.hamiltonian).real / n) * np.eye(n))
    for c in cs:
        gen -= 0.5 * (c.conj().T @ c)
    return np.concatenate([gen[None], cs, moment_pairs(cs).reshape(k * k, n, n)]), t


def centered_moments(pair_means, means) -> np.ndarray:
    """Centered second moments of a batch of states, lanes last.

    ``pair_means`` of shape ``(K, K, m)`` holds the expectations of
    ``moment_pairs`` of the channels in m normalized states, and ``means``
    of shape ``(K, m)`` their ``<c_k>``.  Returns, of shape ``(K, K, m)``,

        M_jl = <{(c_j - <c_j>), (c_l - <c_l>)}> / 2 = <{c_j, c_l}> / 2 - <c_j><c_l>

    The trajectory kernel and ``InvariantStateDep.resolve`` take both
    expectations from one product: the channels and the K^2 pair rows of
    ``_kernel_rows`` are one ``_stack_apply`` stack, and one einsum gives
    every row's mean.

    The symmetrization makes each ``M`` complex symmetric; under a unitary
    remixing T of the channels it transforms as ``T M T^T``, which is
    precisely how increment correlations transform, so correlations
    proportional to ``M`` give conditioned dynamics independent of the
    operator representation.
    """
    return pair_means - means[:, None] * means[None]


def extremal_u(moment, signs, z=None, dt=None, out=None):
    """Extremal state-dependent correlations ``u = w M`` and optionally
    increments coloured by them.

    ``moment`` ``(K, K, m)`` holds ``centered_moments`` and ``signs``
    ``(m,)`` each lane's ``+1`` or ``-1``.  The weight ``w = sign / ||M||``
    makes ``||u|| = 1``; where ``||M||`` is at most ``MOMENT_FLOOR`` it is
    0, so ``u = 0``.  Returns ``u`` and, given standard normals ``z``
    ``(2K, m)`` and the step ``dt``, increments ``(K, m)`` with
    correlations ``u``, written into ``out`` if it is given (else None).

    For K = 1, ``||M|| = |M|`` and ``|u| = 1``: the Takagi factors of u are
    ``V = sqrt(u)``, ``a = sqrt(dt)`` and ``b = 0``, so the increments are
    ``sqrt(dt u) z_a`` in closed form, the ``sigma = 1`` case of
    ``apply_color(color_factors(u, dt), z)`` with the same branch cut, and
    the frozen quadrature gets exactly nothing.  For K > 1 one
    ``takagi(M)`` does the work: its largest singular value is ``||M||``,
    and ``u = V diag(w sigma) V^T`` is coloured by its V with the signed
    ``s = w sigma`` (for ``s < 0``, ``b > a``).  Below the floor the
    increments are those of ``u = 0``, exactly, for every K.  A lane's
    values depend only on its own columns.

    Raises
    ------
    CovarianceError
        For K > 1, from ``_roots``; with ``|w sigma| <= 1`` to rounding it
        does not fire, and the K = 1 closed form clamps nothing.
    """
    k = moment.shape[0]
    v, sigma = takagi(moment) if k > 1 else (None, np.abs(moment[0]))  # K = 1: sigma = |M|
    norm = sigma[0]
    live = norm > MOMENT_FLOOR
    weight = np.divide(signs, norm, out=np.zeros_like(norm), where=live)
    u = weight * moment
    if z is None:
        return u, None
    if k == 1:
        out = np.multiply(np.sqrt(dt * u[0]), z[:1], out=out)
    else:
        out = apply_color((v, *_roots(weight * sigma, dt)), z, out)
    if not live.all():
        out[:, ~live] = apply_color(color_factors(np.zeros((k, k, 1)), dt), z[:, ~live])
    return u, out


def sample_increments(u, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector of complex increments dxi with correlations ``u``.

    ``u`` goes through ``_read_one_u`` (else ``UMatrixError``), and beyond the
    norm bound the clamp raises ``CovarianceError``.  Consumes exactly 2K
    standard normals from ``rng``, so a fixed generator state yields a fixed
    sample regardless of surrounding calls; they are mapped by ``apply_color``
    with the factors of ``color_factors(u, dt)``, as the kernel maps a constant ``u``.

    Parameters
    ----------
    u:
        Complex symmetric ``(K, K)`` correlation matrix.
    dt:
        Step size, positive and finite.
    rng:
        numpy Generator supplying standard normals.

    Returns
    -------
    ndarray
        Complex increments of shape ``(K,)``.
    """
    _check_run(dt, ())
    a = _read_one_u(u)
    z = rng.standard_normal(2 * a.shape[0])
    if not a.size:  # without channels there is nothing to colour
        return np.zeros(0, dtype=complex)
    # A stack of one: numpy's scalar complex arithmetic rounds differently.
    v, sigma = takagi(a[..., None])
    return apply_color((v, *_roots(sigma, dt)), z[:, None])[:, 0]


def u_trace(model: LindbladModel, weight: float) -> np.ndarray:
    """State-independent analogue built from trace-centered operators.

    ``u_jk = weight * Tr[(c_j - Tr c_j / N)(c_k - Tr c_k / N)]`` with
    symmetrized products: the traces of the pair rows of ``_kernel_rows``;
    constant along a trajectory.
    """
    k = model.num_lindblads
    pairs = _kernel_rows(model)[0][k + 1 :]
    return weight * np.einsum("saa->s", pairs).reshape(k, k)


def homodyne_u(eta: float, theta1: float, theta2: float) -> np.ndarray:
    """Single-channel correlation from splitting the output between two
    local oscillator phases: ``u = eta e^{2i theta1} + (1-eta) e^{2i theta2}``.

    Valid for every efficiency split, since it is a convex combination of
    unit-modulus numbers.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not np.isfinite(theta1) or not np.isfinite(theta2):
        raise ValueError(f"phases must be finite, got theta1={theta1}, theta2={theta2}")
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
        if isinstance(self.sign, bool) or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    state_dependent = True

    def resolve(self, model: LindbladModel, state) -> np.ndarray:
        """``extremal_u`` ``(..., K, K)`` at a state ``(N,)`` or a stack of
        them ``(..., N)``, by the kernel's formula with the states as lanes:
        its stack (``_kernel_rows``, built once), one ``_stack_apply``
        product and one expectation einsum, so each state gets the bits of
        the kernel's ``u`` and of its own width-1 call."""
        psi = _check_states(state, model.dim)
        k = model.num_lindblads
        if k == 0:  # without channels u is the empty matrix
            return np.zeros(psi.shape[:-1] + (0, 0), dtype=complex)
        rows, _ = _kernel_rows(model)
        lanes = np.ascontiguousarray(psi.reshape(-1, model.dim).T)
        means = np.einsum("am,sam->sm", lanes.conj(), _stack_apply(rows, lanes)[1:])
        moment = centered_moments(means[k:].reshape(k, k, -1), means[:k])
        u = extremal_u(moment, np.full(lanes.shape[1], float(self.sign)))[0]
        return u.transpose(2, 0, 1).reshape(psi.shape[:-1] + (k, k))

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


# The fields each type of unraveling object takes besides its "type".
SPEC_FIELDS = {
    "fixed": ("u",),
    "homodyne": ("eta", "theta1", "theta2"),
    "heterodyne": (),
    "invariant": ("sign",),
    "invariant_trace": ("R",),
}


def spec_from_dict(data: dict) -> UnravelingSpec:
    """Rebuild an unraveling specification from its JSON object form, the
    one map from a ``type`` name to a class.  Missing fields default to
    ``eta = 1``, ``theta1 = theta2 = 0``, ``sign = 1`` and ``R = 0``; a
    field the type does not take (``SPEC_FIELDS``), a missing ``u`` and a
    value that cannot be read, true, false or a string among them, are
    errors that name the field."""
    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError("unraveling object must have a 'type' field") from exc
    fields = SPEC_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValueError(f"unknown unraveling type {kind!r}")
    unknown = sorted(set(data) - {"type", *fields})
    if unknown:
        raise ValueError(f"unraveling type {kind!r} takes no field {', '.join(unknown)}")

    def read(field, convert, default=None):
        if field not in data and default is None:
            raise ValueError(f"unraveling type {kind!r} requires field {field}")
        name = f"unraveling type {kind!r} field {field}"
        value = _json_numbers(data.get(field, default), name)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from exc

    if kind == "fixed":
        return FixedU(u=read("u", matrix_from_pairs))
    if kind == "homodyne":
        return Homodyne(eta=read("eta", float, 1.0), theta1=read("theta1", float, 0.0),
                        theta2=read("theta2", float, 0.0))
    if kind == "heterodyne":
        return Heterodyne()
    if kind == "invariant":
        return InvariantStateDep(sign=data.get("sign", 1))  # int() would read 1.5 as 1
    return InvariantTrace(weight=read("R", float, 0.0))
