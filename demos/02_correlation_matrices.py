"""The one-matrix family of diffusive measurement schemes.

Every diffusive scheme is labeled by a complex symmetric matrix u with
spectral norm at most 1, fixing the correlations of the record noise:
dxi_j dxi_k = u_jk dt alongside dxi_j dxi_k* = delta_jk dt.  This script
shows where familiar detection schemes sit inside the family, what the
validity boundary looks like, and that the increments the trajectory
kernel draws hit the requested moments.
"""

import numpy as np

from unravel import (
    FixedU,
    LindbladModel,
    homodyne_u,
    is_valid_u,
    real_embedding,
    run_ensemble,
    spectral_norm,
)


def main():
    print("named points of the single-channel family:")
    print(f"  x-quadrature detection      u = {homodyne_u(1.0, 0.0, 0.0)[0, 0]:+.0f}")
    print(f"  y-quadrature detection      u = {homodyne_u(1.0, np.pi / 2, 0.0)[0, 0]:+.0f}")
    print(f"  two-quadrature (balanced)   u = {homodyne_u(0.5, 0.0, np.pi / 2)[0, 0]:+.0f}")
    print(f"  split 70/30 between phases  u = {homodyne_u(0.7, 0.0, np.pi / 2)[0, 0]:+.1f}")

    print("\nvalidity is a spectral-norm ball:")
    unit = np.array([[0.6, 0.48j], [0.48j, -0.64]])
    unit /= spectral_norm(unit)  # on the boundary
    for scale in (0.5, 0.99, 1.0, 1.01):
        u = scale * unit
        norm = spectral_norm(u)
        print(f"  norm {norm:5.3f}  valid: {is_valid_u(u)}")

    print("\nthe smallest covariance eigenvalue tracks the norm exactly:")
    rng = np.random.default_rng(0)
    dt = 1e-3
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = a + a.T
        u *= rng.uniform(0, 1.2) / spectral_norm(u)
        lam = np.linalg.eigvalsh(real_embedding(u, dt)).min()
        identity = dt * (1 - spectral_norm(u)) / 2
        print(
            f"  norm {spectral_norm(u):5.3f}  min eig {lam:+.3e}"
            f"  dt(1-norm)/2 {identity:+.3e}"
        )

    print("\nkernel increments reproduce the requested correlations (u, 40000 draws):")
    u = np.array([[0.3, 0.5j], [0.5j, -0.2]])
    # Any two-channel model will do: a constant u colours every step's
    # normals alike, whatever the state.
    qubit = LindbladModel(
        hamiltonian=np.zeros((2, 2)),
        lindblads=(np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])),
    )
    run = run_ensemble(qubit, FixedU(u), [1.0, 0.0], n_traj=400, dt=dt, steps=100, seed=0)
    draws = run.increments.reshape(-1, 2)
    m_star = np.einsum("nj,nk->jk", draws, draws.conj()) / len(draws)
    m_plain = np.einsum("nj,nk->jk", draws, draws) / len(draws)
    print(f"  max |dxi dxi* / dt - 1|    = {np.abs(m_star / dt - np.eye(2)).max():.3f}")
    print(f"  max |dxi dxi  / dt - u|    = {np.abs(m_plain / dt - u).max():.3f}")
    print("  (both shrink as 1/sqrt(draws))")


if __name__ == "__main__":
    main()
