"""What the state-adapted correlation choices buy you.

Two extremal state-adapted schemes exist, sign +1 and sign -1.  The +1
scheme removes the noise from the population component z entirely (its
increments become differentiable) and hides the signal in the record: the
mean current is exactly zero.  The -1 scheme pins the trajectory to the
x = 0 great circle of the Bloch sphere.
"""

import numpy as np

from unravel import (
    AtomParams,
    FixedU,
    Heterodyne,
    InvariantStateDep,
    bloch,
    build_atom,
    plus_x_state,
    run_ensemble,
    z_drift_residual,
)


def main():
    params = AtomParams(gamma=1.0, omega=10.0)
    model = build_atom(params)

    print("z loses its root-dt noise under the sign +1 scheme:")
    print(f"{'dt':>8} {'RMS z residual, u=0':>20} {'RMS z residual, adapted':>24}")
    for dt in (1e-3, 5e-4, 2.5e-4):
        row = []
        for spec in (Heterodyne(), InvariantStateDep(sign=1)):
            run = run_ensemble(
                model, spec, plus_x_state(), n_traj=1, dt=dt, steps=round(1.0 / dt), seed=0
            )
            row.append(np.sqrt(np.mean(z_drift_residual(run.states[0], dt, params) ** 2)))
        print(f"{dt:8.1e} {row[0]:20.2e} {row[1]:24.2e}")
    print("  (left column shrinks like sqrt(dt), right column like dt)")

    print("\nthe sign +1 record carries no signal in its mean:")
    run = run_ensemble(
        model, InvariantStateDep(sign=1), plus_x_state(), n_traj=500,
        dt=1e-3, steps=1000, seed=7, record_stride=250,
    )
    means = run.currents.mean(axis=0)
    ses = run.currents.std(axis=0, ddof=1) / np.sqrt(500)
    for t, m, se in zip(run.times, means[:, 0], ses[:, 0]):
        print(
            f"  t={t:4.2f}  mean J = {m.real:+.4f}{m.imag:+.4f}i"
            f"  (s.e. ~ {max(se.real, se.imag):.4f})"
        )

    print("\nthe u = -1 scheme pins the state to the x = 0 circle:")
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2)
    run = run_ensemble(
        model, FixedU(np.array([[-1.0]])), plus_y, n_traj=1,
        dt=1e-4, steps=10000, seed=3, record_stride=1000,
    )
    for t, psi in zip(run.times, run.states[0]):
        x, y, z = bloch(psi)
        print(f"  t={t:4.2f}  x={x:+.2e}  (y, z) = ({y:+.3f}, {z:+.3f})")


if __name__ == "__main__":
    main()
