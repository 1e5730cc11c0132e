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
    build_atom,
    liouvillian_apply,
    plus_x_state,
    projector,
    rotate_lindblads,
    run_ensemble,
    shift_lindblads,
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

    print("\npathwise agreement with a state-adapted scheme:")
    # the other presentation is driven by the remixed record noise; the
    # kernel steps the trace-free form that both presentations share
    dt = 1e-3
    spec, kw = InvariantStateDep(sign=1), dict(n_traj=1, dt=dt, steps=2000, seed=5)
    a = run_ensemble(model, spec, psi, **kw)
    b = run_ensemble(other, spec, psi, increments=phase * a.increments, **kw)
    dev = max(np.abs(projector(x) - projector(y)).max() for x, y in zip(a.states[0], b.states[0]))
    print(f"  projector deviation over 2000 steps: {dev:.1e}")
    # each record is the current of its own channels, offset by chi + u chi^*
    u = spec.resolve(other, b.states[0])[:, 0, 0]
    gap = b.currents[0, :, 0] - phase * a.currents[0, :, 0] - (chi[0] + u * np.conj(chi[0]))
    print(f"  current offset differs from chi + u chi^* by {np.abs(gap).max():.1e}")


if __name__ == "__main__":
    main()
