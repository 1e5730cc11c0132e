"""The conditioned dynamics does not care how the model is written.

The same master equation can be presented with remixed Lindblad operators
(any unitary combination) or with c-number offsets absorbed into the
Hamiltonian.  State-adapted correlation matrices make the conditioned
trajectories themselves identical, path by path, once the record noise is
transformed consistently.
"""

import numpy as np

from unravel import (
    AtomParams,
    InvariantStateDep,
    TrajectoryConfig,
    build_atom,
    liouvillian_apply,
    plus_x_state,
    projector,
    rotate_lindblads,
    run_trajectory,
    sample_increments,
    shift_lindblads,
    step_sme,
    transition_rate,
)


def main():
    model = build_atom(AtomParams(gamma=1.0, omega=10.0))
    psi = plus_x_state()
    rho = projector(psi)

    # a one-channel "remix" is just a phase; add an offset too
    phase = np.exp(0.7j)
    chi = np.array([0.4 - 0.3j])
    other = shift_lindblads(rotate_lindblads(model, [[phase]]), chi)

    drift = np.abs(
        liouvillian_apply(other, rho) - liouvillian_apply(model, rho)
    ).max()
    rate = abs(transition_rate(other, psi) - transition_rate(model, psi))
    print("same unconditioned physics in both presentations:")
    print(f"  master-equation drift differs by {drift:.1e}")
    print(f"  transition rate differs by       {rate:.1e}")

    print("\npathwise agreement with a state-adapted scheme (remix only):")
    # the remixed presentation is driven by the remixed record noise
    dt = 1e-3
    config = TrajectoryConfig(dt=dt, steps=2000, seed=5, unraveling=InvariantStateDep(sign=1))
    rotated = rotate_lindblads(model, [[phase]])
    a, rec = run_trajectory(model, config, psi)
    b, _ = run_trajectory(rotated, config, psi, increments=phase * rec.increments)
    dev = max(np.abs(projector(x) - projector(y)).max() for x, y in zip(a, b))
    print(f"  projector deviation over 2000 steps: {dev:.1e}")

    print("\npathwise agreement under an offset (projector stepper):")
    shifted = shift_lindblads(model, chi)
    rng = np.random.default_rng(5)
    pa, pb = projector(psi), projector(psi)
    for _ in range(2000):
        dxi = sample_increments(np.zeros((1, 1)), dt, rng)
        pa = step_sme(model, pa, dxi, dt)
        pb = step_sme(shifted, pb, dxi, dt)
    print(f"  projector deviation after 2000 steps: {np.abs(pa - pb).max():.1e}")
    print("  (the offset cancels between the centered noise operators and the")
    print("   compensated Hamiltonian)")


if __name__ == "__main__":
    main()
