"""A first conditioned trajectory of the driven, damped two-level atom.

Builds the standard resonance-fluorescence model, runs one diffusive
trajectory under uncorrelated records (u = 0), and prints how the Bloch
vector wanders while its ensemble-averaged cousin would relax smoothly.
"""

import numpy as np

from unravel import (
    AtomParams,
    Heterodyne,
    bloch,
    build_atom,
    plus_x_state,
    run_ensemble,
    steady_state,
)


def main():
    params = AtomParams(gamma=1.0, omega=10.0)
    model = build_atom(params)
    print(f"atom: gamma={params.gamma}, omega={params.omega}, dim={model.dim}")

    # a batch of one: trajectory 0 of seed 42
    run = run_ensemble(
        model,
        Heterodyne(),
        plus_x_state(),
        n_traj=1,
        dt=1e-4,
        steps=20000,
        seed=42,
        record_stride=2000,
    )
    states = run.states[0]

    print("\nconditioned state along one record (u = 0):")
    print(f"{'t':>6} {'x':>8} {'y':>8} {'z':>8} {'|J| (current)':>14}")
    for t, psi, current in zip(run.times, states, run.currents[0]):
        x, y, z = bloch(psi)
        print(f"{t:6.2f} {x:8.4f} {y:8.4f} {z:8.4f} {abs(current[0]):14.2f}")

    radii = [np.sum(np.array(bloch(psi)) ** 2) for psi in states]
    print(f"\nthe state stays pure: max |r|^2 - 1 = {max(abs(r - 1) for r in radii):.2e}")
    print("the raw current is huge (noise ~ 1/sqrt(dt)); only averages are tame")
    x, y, z = np.round(bloch(steady_state(model)), 4) + 0.0  # no "-0.0000"
    print(f"the ensemble average relaxes to the fixed point ({x:.4f}, {y:.4f}, {z:.4f})")


if __name__ == "__main__":
    main()
