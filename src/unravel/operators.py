"""Finite-dimensional open-system models and representation changes.

A model is a Hermitian Hamiltonian ``H`` together with a list of Lindblad
operators ``c_k`` acting on the same N-dimensional Hilbert space.  The
ensemble evolution is generated by

    d(rho)/dt = -i[H, rho] + sum_k (c_k rho c_k^dag - {c_k^dag c_k, rho}/2)

The generator is unchanged under two families of representation changes:
a unitary remixing of the Lindblad operators, and a c-number shift of each
Lindblad operator compensated by a Hamiltonian term.  Both are provided
here, along with the transition rate operator, whose invariance under the
same changes is a useful consistency probe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# Hermiticity, unitarity, norm and trace checks share one absolute tolerance.
DEFAULT_TOL = 1e-10
# Rank decisions for the linear-independence check use a looser cutoff.
GRAM_RANK_TOL = 1e-8
# Model dimension from which ``_stack_apply`` is one padded BLAS product
# instead of an einsum.  Fixed-u kernel step of a random K=1 model,
# microseconds per step, einsum -> padded product at every N (median of 8
# alternating rounds, OPENBLAS_NUM_THREADS=1, 2-core Haswell VM, OpenBLAS
# 0.3.31):
#
#   N                2            3            4            8           24
#   width 5    20.9 -> 22.4  21.0 -> 22.6  28.9 -> 28.2  23.1 -> 23.5  40.6 -> 28.1
#   width 512  92.1 -> 96.8  104 -> 87.6   131 -> 97.5   260 -> 135   1525 -> 330
#
# The padded call costs about 1.5 microseconds more per step at narrow
# widths, and wins at wide ones from N = 3 up; at N = 2 it gains nothing,
# and the two-level atom keeps its einsum bits.
BLAS_MIN_DIM = 3


def _check_run(dt, counts) -> None:
    """Reject a ``dt`` that is not positive and finite (NaN included), and any
    ``(name, value, least)`` count that is not an int, nor a bool, >= ``least``."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    for name, value, least in counts:
        try:
            ok = not isinstance(value, bool) and operator.index(value) >= least
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _as_complex_matrix(m, name: str) -> np.ndarray:
    """``m`` as one complex matrix that ``_as_complex_stack`` accepts, else ``ValueError``."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be one matrix, got shape {a.shape}")
    return _as_complex_stack(a, name)


def _as_complex_stack(m, name: str) -> np.ndarray:
    """``m`` ``(..., N, N)`` as complex, square and finite, else ``ValueError`` naming it."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_states(psi, dim: int | None = None) -> np.ndarray:
    """States ``(..., N)`` as complex, N = ``dim`` if given, each finite and of
    norm 1 within ``DEFAULT_TOL``, else ``ValueError``."""
    psi = np.asarray(psi, dtype=complex)
    if dim is not None and psi.shape[-1:] != (dim,):
        raise ValueError(f"state has shape {psi.shape}, expected dimension {dim}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite entries")
    norms = np.linalg.norm(psi, axis=-1).ravel()
    off = norms[np.abs(norms - 1.0) > DEFAULT_TOL]
    if off.size:
        raise ValueError(f"state norm {off[0]} is not 1 within {DEFAULT_TOL}")
    return psi


def check_pure_state(state, dim: int | None = None) -> np.ndarray:
    """Validate one normalized state vector, by ``_check_states``, and return it."""
    psi = np.asarray(state, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {psi.shape}")
    return _check_states(psi, dim)


def _check_densities(rho, dim: int | None = None) -> np.ndarray:
    """Density matrices ``(..., N, N)`` of ``_as_complex_stack``, N = ``dim`` if
    given, each Hermitian with unit trace and a positive spectrum, else ``ValueError``."""
    r = _as_complex_stack(rho, "density matrix")
    if dim is not None and r.shape[-1] != dim:
        raise ValueError(f"density matrix has dimension {r.shape[-1]}, expected {dim}")
    if np.abs(r - r.conj().swapaxes(-1, -2)).max(initial=0.0) > DEFAULT_TOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(r, axis1=-2, axis2=-1)
    if np.abs([trace.real - 1.0, trace.imag]).max(initial=0.0) > DEFAULT_TOL:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(r).min(initial=0.0) < -DEFAULT_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return r


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate one density matrix, by ``_check_densities``, and return it."""
    return _check_densities(_as_complex_matrix(rho, "density matrix"), dim)


def projector(state) -> np.ndarray:
    """Rank-one density matrix |psi><psi| for a normalized state vector."""
    psi = check_pure_state(state)
    return np.outer(psi, psi.conj())


def matrix_to_pairs(m) -> list:
    """Encode a complex matrix as row-major nested ``[re, im]`` pairs."""
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _json_numbers(value, name: str):
    """``value`` if every leaf of its nested lists (or tuples) is an int or
    a float and not a bool, else ``ValueError`` naming ``name`` and the
    leaf: the one reader of JSON numbers, since ``float()`` and numpy read
    true as 1 and "0.5" as 0.5."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _json_numbers(item, name)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    return value


def matrix_from_pairs(rows, name: str = "matrix encoding") -> np.ndarray:
    """Decode a matrix from row-major nested ``[re, im]`` pairs of numbers
    (``_json_numbers``); errors call it ``name``."""
    _json_numbers(rows, name)
    try:
        a = np.asarray(rows, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows; an int beyond float
        raise ValueError(f"malformed {name}: {exc}") from exc
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"{name} must have shape (rows, cols, 2), got {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus Lindblad operators defining a Markovian generator.

    Parameters
    ----------
    hamiltonian:
        Hermitian ``(N, N)`` matrix.
    lindblads:
        Sequence of ``(N, N)`` matrices ``c_k``.  Together with the identity
        they must be linearly independent, otherwise the noise channels are
        redundant and the parameterization below is degenerate.
    """

    hamiltonian: np.ndarray
    lindblads: tuple = field(default=())

    def __post_init__(self):
        h = _as_complex_matrix(self.hamiltonian, "hamiltonian")
        if not h.size:
            raise ValueError("hamiltonian must have dimension at least 1")
        if np.abs(h - h.conj().T).max() > DEFAULT_TOL:
            raise ValueError("hamiltonian is not Hermitian")
        cs = tuple(_as_complex_matrix(c, f"lindblads[{k}]") for k, c in enumerate(self.lindblads))
        for k, c in enumerate(cs):
            if c.shape != h.shape:
                raise ValueError(f"lindblads[{k}] has shape {c.shape}, expected {h.shape}")
        n = h.shape[0]
        vecs = np.stack([np.eye(n, dtype=complex).ravel()] + [c.ravel() for c in cs])
        # Unit Frobenius norms, so that a weak channel is not taken for a dependent one.
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), np.finfo(float).tiny)
        gram = vecs.conj() @ vecs.T
        rank = int(np.sum(np.linalg.eigvalsh(gram) > GRAM_RANK_TOL))
        if rank != len(cs) + 1:
            raise ValueError("identity and Lindblad operators are linearly dependent")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", cs)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def num_lindblads(self) -> int:
        return len(self.lindblads)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "hamiltonian": matrix_to_pairs(self.hamiltonian),
            "lindblads": [matrix_to_pairs(c) for c in self.lindblads],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LindbladModel":
        try:
            # int() would read 2.7 as 2; the shape check rejects it
            dim = _json_numbers(data["dim"], "dim of the model")
            h = matrix_from_pairs(data["hamiltonian"], "hamiltonian of the model")
            cs = tuple(matrix_from_pairs(c, f"lindblads[{k}] of the model")
                       for k, c in enumerate(data.get("lindblads", [])))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model object: {exc}") from exc
        unknown = sorted(set(data) - {"dim", "hamiltonian", "lindblads"})
        if unknown:
            raise ValueError(f"model object takes no field {', '.join(unknown)}")
        if h.shape[0] != dim:
            raise ValueError(f"declared dim {dim} does not match hamiltonian shape {h.shape}")
        return cls(hamiltonian=h, lindblads=cs)


def _stack_apply(stack, psi) -> np.ndarray:
    """``stack @ psi`` for a stack of operators ``(..., N, N)``, such as
    ``(S, N, N)`` or ``(K, K, N, N)``, and lanes-last states ``psi``
    ``(N, m)``: the ``(..., N, m)`` products, each lane's values a function
    of its own column and the stack only.

    Below ``BLAS_MIN_DIM`` this is an einsum, with no reshape.  From it up it
    is one 2-D BLAS ``zgemm`` of the stack's rows, as one matrix of N
    columns, against a block whose width is a multiple of 8: ``psi`` itself
    when it is contiguous and that wide, else a zero-padded copy, whose
    product is cut back to m contiguous lanes.  Unpadded, ``zgemm`` rounds a lane differently with
    the batch width; padded, a lane keeps its bits at any width, lane
    position and stack height.  That is a property of the BLAS build, not a
    promise of numpy, and the lane-width tests pin it on the host that runs
    them.
    """
    n, m = psi.shape
    if n < BLAS_MIN_DIM:
        return np.einsum("...ab,bm->...am", stack, psi)
    block = psi
    if m % 8 or not psi.flags.c_contiguous:
        block = np.zeros((n, m + (-m % 8)), dtype=complex)
        block[:, :m] = psi
    out = (stack.reshape(-1, n) @ block).reshape(stack.shape[:-1] + block.shape[1:])
    return out if block is psi else np.ascontiguousarray(out[..., :m])


def liouvillian_apply(model: LindbladModel, rho) -> np.ndarray:
    """Apply the Markovian generator to a Hermitian matrix or a stack ``(..., N, N)``."""
    r = _as_complex_stack(rho, "rho")
    if r.shape[-1] != model.dim:
        raise ValueError(f"rho has dimension {r.shape[-1]}, expected {model.dim}")
    h = model.hamiltonian
    out = -1j * (h @ r - r @ h)
    for c in model.lindblads:
        cdc = c.conj().T @ c
        out += c @ r @ c.conj().T - 0.5 * (cdc @ r + r @ cdc)
    return out


def rotate_lindblads(model: LindbladModel, t_matrix) -> LindbladModel:
    """Remix the Lindblad operators by a unitary matrix, c_k -> T_kl c_l.

    The Hamiltonian is unchanged; the generator is left invariant.
    """
    t = _as_complex_matrix(t_matrix, "T")
    k = model.num_lindblads
    if t.shape != (k, k):
        raise ValueError(f"T must have shape ({k}, {k}), got {t.shape}")
    if np.abs(t.conj().T @ t - np.eye(k)).max(initial=0.0) > DEFAULT_TOL:
        raise ValueError("T is not unitary")
    rotated = tuple(
        sum(t[i, l] * model.lindblads[l] for l in range(k)) for i in range(k)
    )
    return LindbladModel(hamiltonian=model.hamiltonian, lindblads=rotated)


def shift_lindblads(model: LindbladModel, chi) -> LindbladModel:
    """Shift each Lindblad operator by a c-number, c_k -> c_k + chi_k.

    The Hamiltonian picks up (i/2) sum_k (chi_k c_k^dag - chi_k^* c_k),
    which is exactly the compensation that leaves the generator invariant.
    """
    x = np.asarray(chi, dtype=complex)
    k = model.num_lindblads
    if x.shape != (k,):
        raise ValueError(f"chi must have shape ({k},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("chi contains non-finite entries")
    eye = np.eye(model.dim, dtype=complex)
    shifted = tuple(c + xk * eye for c, xk in zip(model.lindblads, x))
    h = model.hamiltonian + (0.5j) * sum(
        xk * c.conj().T - xk.conjugate() * c for c, xk in zip(model.lindblads, x)
    )
    return LindbladModel(hamiltonian=h, lindblads=shifted)


def transition_rate_operator(model: LindbladModel, state) -> np.ndarray:
    """Positive operator W = sum_k (c_k - <c_k>) P (c_k - <c_k>)^dag.

    W annihilates the state it is built from, and it is invariant under
    both Lindblad remixing and shifting; its trace is the total rate at
    which the state is driven off its ray.
    """
    psi = check_pure_state(state, model.dim)
    p = np.outer(psi, psi.conj())
    w = np.zeros((model.dim, model.dim), dtype=complex)
    for c in model.lindblads:
        d = c - np.vdot(psi, c @ psi) * np.eye(model.dim)
        w += d @ p @ d.conj().T
    return w


def transition_rate(model: LindbladModel, state) -> float:
    """Trace of the transition rate operator, sum_k (<c_k^dag c_k> - |<c_k>|^2)."""
    return float(np.trace(transition_rate_operator(model, state)).real)
