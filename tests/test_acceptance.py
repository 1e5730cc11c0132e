"""Package-level acceptance gates.

Each test prints exactly one PASS/FAIL line (visible even with output
capture on) and then asserts, so a full run yields one line per criterion.
"""

import numpy as np
import pytest

from unravel import (
    AtomParams,
    FixedU,
    Heterodyne,
    InvariantStateDep,
    SCENARIOS,
    SIGMA_X,
    SIGMA_Y,
    TrajectoryConfig,
    bloch,
    build_atom,
    ensemble_summary,
    expectation,
    gauge_transform_step,
    integrate_master,
    is_valid_u,
    liouvillian_apply,
    plus_x_state,
    projector,
    real_embedding,
    rotate_lindblads,
    run_ensemble,
    run_trajectory,
    sample_increments,
    scenario_spec,
    shift_lindblads,
    spectral_norm,
    steady_state,
    step_sme,
    transition_rate,
    transition_rate_operator,
    z_drift_residual,
)
from unravel.unravelings import NORM_SLACK
from unravel.trajectory import _kernel_path
from unravel.verify import stepper_strong_orders
from atom_closed_forms import sme_u1_decomposed_step
from conftest import random_model, random_state, random_symmetric_u, random_unitary

ATOM_PARAMS = AtomParams(gamma=1.0, omega=10.0)
ATOM = build_atom(ATOM_PARAMS)
DT = 1e-4
STEPS = 40000
STRIDE = 1000
N_TRAJ = 2000
ENSEMBLE_SEED = 0


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


@pytest.fixture(scope="module")
def oracle_states():
    """Master-equation states at the recorded grid of the big runs."""
    solution = integrate_master(ATOM, projector(plus_x_state()), DT, STEPS)
    return solution[np.arange(0, STEPS, STRIDE)]


@pytest.fixture(scope="module")
def scenario_runs():
    """2000 trajectories per scenario on the figure-scale grid."""
    runs = {}
    for name in SCENARIOS:
        runs[name] = run_ensemble(
            ATOM, scenario_spec(name), plus_x_state(), n_traj=N_TRAJ, dt=DT,
            steps=STEPS, seed=ENSEMBLE_SEED, record_stride=STRIDE,
        )
    return runs


def closed_form_current(name, rho):
    """Scenario mean currents, evaluated on a density matrix (linear forms)."""
    x = np.trace(rho @ SIGMA_X).real
    y = np.trace(rho @ SIGMA_Y).real
    s = (x - 1j * y) / 2
    return {
        "homodyne_x": x + 0j,
        "homodyne_y": -1j * y,
        "heterodyne": s,
        "invariant_plus": 0j,
        "invariant_minus": 2 * s,
    }[name]


def test_criterion_1_ensemble_mean_reproduces_master_equation(
    scenario_runs, oracle_states, announce
):
    worst = 0.0
    for name in SCENARIOS:
        run = scenario_runs[name]
        summary = ensemble_summary(run.times, run.states, oracle_states)
        ratios = summary.trace_distances[1:] / (3 * summary.standard_errors[1:])
        worst = max(worst, ratios.max())
    ok = worst < 1.0
    announce(
        f"criterion 1 {'PASS' if ok else 'FAIL'}: ensemble mean vs deterministic "
        f"solution, worst distance at {worst:.2f} of the 3 s.e. gate "
        f"({len(SCENARIOS)} scenarios, {N_TRAJ} trajectories, 40 times)"
    )
    assert ok


def test_criterion_2_validity_boundary_matches_embedding(announce):
    rng = np.random.default_rng(7)
    disagreements = 0
    worst_dev = 0.0
    dt = 1e-3
    for trial in range(1000):
        k = trial % 4 + 1
        u = random_symmetric_u(rng, k, float(rng.uniform(0.0, 1.5)))
        evals = np.linalg.eigvalsh(real_embedding(u, dt))
        psd = evals.min() >= -0.5 * dt * NORM_SLACK
        if is_valid_u(u) != psd:
            disagreements += 1
        identity = dt * (1.0 - spectral_norm(u)) / 2.0
        worst_dev = max(worst_dev, abs(evals.min() - identity))
    ok = disagreements == 0 and worst_dev < 1e-9
    announce(
        f"criterion 2 {'PASS' if ok else 'FAIL'}: validity agrees with the "
        f"embedding eigen-oracle on 1000 draws ({disagreements} disagreements, "
        f"min-eigenvalue identity off by {worst_dev:.1e})"
    )
    assert ok


def test_criterion_3_representation_invariance(announce):
    rng = np.random.default_rng(11)
    static_dev = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        model = random_model(rng, dim, k)
        t_mat = random_unitary(rng, k)
        chi = rng.normal(size=k) + 1j * rng.normal(size=k)
        other = shift_lindblads(rotate_lindblads(model, t_mat), chi)
        psi = random_state(rng, dim)
        rho = projector(psi)
        static_dev = max(
            static_dev,
            np.abs(
                transition_rate_operator(other, psi)
                - transition_rate_operator(model, psi)
            ).max(),
            abs(transition_rate(other, psi) - transition_rate(model, psi)),
            np.abs(
                liouvillian_apply(other, rho) - liouvillian_apply(model, rho)
            ).max(),
        )

    path_dev = 0.0
    dt = 1e-3
    for trial in range(6):
        dim = 2 + trial % 3
        k = 1 + trial % 2
        model = random_model(rng, dim, k)
        t_mat = random_unitary(rng, k)
        rotated = rotate_lindblads(model, t_mat)
        for spec in (Heterodyne(), InvariantStateDep(sign=1)):
            # the remixed model is driven by the remixed record noise
            psi = random_state(rng, dim)
            config = TrajectoryConfig(
                dt=dt, steps=1000, seed=int(rng.integers(2**32)), unraveling=spec
            )
            states_a, record = run_trajectory(model, config, psi)
            states_b, _ = run_trajectory(
                rotated, config, psi, increments=record.increments @ t_mat.T
            )
            for psi_a, psi_b in zip(states_a, states_b):
                path_dev = max(
                    path_dev, np.abs(projector(psi_a) - projector(psi_b)).max()
                )
    ok = static_dev < 1e-10 and path_dev < 1e-8
    announce(
        f"criterion 3 {'PASS' if ok else 'FAIL'}: remixing and offsetting the "
        f"channels is invisible (static deviation {static_dev:.1e}, pathwise "
        f"under remixed noise {path_dev:.1e})"
    )
    assert ok


def test_criterion_4_z_noise_cancellation_scaling(announce):
    dts = [1e-3, 5e-4, 2.5e-4]

    def fitted_exponent(spec):
        rms = []
        for dt in dts:
            run = run_ensemble(
                ATOM, spec, plus_x_state(), n_traj=24, dt=dt,
                steps=round(1.0 / dt), seed=0,
            )
            pooled = np.concatenate(
                [z_drift_residual(run.states[m], dt, ATOM_PARAMS) for m in range(24)]
            )
            rms.append(np.sqrt(np.mean(pooled**2)))
        return np.polyfit(np.log(dts), np.log(rms), 1)[0]

    adapted = fitted_exponent(InvariantStateDep(sign=1))
    control = fitted_exponent(Heterodyne())
    ok = abs(adapted - 1.0) < 0.15 and abs(control - 0.5) < 0.15
    announce(
        f"criterion 4 {'PASS' if ok else 'FAIL'}: z-residual scaling exponent "
        f"{adapted:.2f} for the adapted scheme (expect 1.0) vs {control:.2f} "
        f"for uncorrelated records (expect 0.5)"
    )
    assert ok


def test_criterion_5_steady_state_and_time_averages(announce):
    target = np.array([0.0, 20 / 201, -1 / 201])
    bloch_dev = np.abs(np.array(bloch(steady_state(ATOM))) - target).max()

    dt, steps, stride = 2e-4, 1_000_000, 10
    specs = [scenario_spec(name) for name in SCENARIOS]
    run = run_ensemble(
        ATOM, specs, plus_x_state(), n_traj=len(specs), dt=dt, steps=steps,
        seed=0, record_stride=stride,
    )
    psi = run.states
    s = psi[:, :, 1].conj() * psi[:, :, 0]
    comps = np.stack(
        [
            2 * s.real,
            -2 * s.imag,
            np.abs(psi[:, :, 0]) ** 2 - np.abs(psi[:, :, 1]) ** 2,
        ],
        axis=1,
    )
    start = 2500  # discard the transient, t < 5
    n_blocks = 39
    worst = 0.0
    for i in range(len(specs)):
        tail = comps[i, :, start:]
        usable = tail[:, : tail.shape[1] - tail.shape[1] % n_blocks]
        blocks = usable.reshape(3, n_blocks, -1).mean(axis=2)
        mean = blocks.mean(axis=1)
        se = blocks.std(axis=1, ddof=1) / np.sqrt(n_blocks)
        worst = max(worst, (np.abs(mean - target) / (3 * se)).max())
    ok = bloch_dev < 1e-9 and worst < 1.0
    announce(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: fixed point off by "
        f"{bloch_dev:.1e}; T=200 time averages at {worst:.2f} of the 3 s.e. "
        f"gate across scenarios"
    )
    assert ok


def test_criterion_6_measurement_completeness(announce):
    rng = np.random.default_rng(0)
    dt = 1e-3
    n, batches = 100_000, 20
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        model = random_model(rng, dim, k)
        u = random_symmetric_u(rng, k, float(rng.uniform(0.0, 1.0)))
        evals, evecs = np.linalg.eigh(real_embedding(u, dt))
        color = evecs * np.sqrt(np.clip(evals, 0.0, None))
        z = rng.standard_normal((n, 2 * k))
        xr = z @ color.T
        dxi = xr[:, :k] + 1j * xr[:, k:]

        gen = -1j * model.hamiltonian.astype(complex)
        for c in model.lindblads:
            gen -= 0.5 * (c.conj().T @ c)
        a_op = np.eye(dim) + dt * gen
        cs = np.stack(model.lindblads)

        def mean_omega_sq(d):
            # Omega^dag Omega is affine in the sample moments of dxi, so
            # contracting the moments reproduces the per-sample average
            m1 = d.mean(axis=0)
            m2 = np.einsum("nk,nl->kl", d.conj(), d) / d.shape[0]
            e = a_op.conj().T @ a_op
            for j in range(k):
                term = m1[j] * (a_op.conj().T @ cs[j])
                e = e + term + term.conj().T
            return e + np.einsum(
                "kl,kab,lbc->ac", m2, cs.conj().transpose(0, 2, 1), cs
            )

        full = mean_omega_sq(dxi)
        per_batch = np.stack([mean_omega_sq(dxi[b::batches]) for b in range(batches)])
        se = per_batch.std(axis=0, ddof=1) / np.sqrt(batches)
        bound = 3 * se + dt**2 * np.abs(gen.conj().T @ gen) + 1e-12
        worst = max(worst, (np.abs(full - np.eye(dim)) / bound).max())
    ok = worst < 1.0
    announce(
        f"criterion 6 {'PASS' if ok else 'FAIL'}: record operators resolve the "
        f"identity, worst entry at {worst:.2f} of the 3 s.e. + O(dt^2) bound "
        f"(20 draws, 10^5 samples each)"
    )
    assert ok


def test_criterion_7_formulation_equivalence(announce):
    orders = stepper_strong_orders(
        seed=5, t_final=1.0, dt_values=(3.2e-3, 1.6e-3, 8e-4, 4e-4), n_paths=12
    )
    min_order = min(orders.values())

    rng = np.random.default_rng(3)
    model = random_model(rng, 3, 2)
    spec = FixedU(random_symmetric_u(rng, 2, 0.6))
    dt = 1e-3
    twin = random_state(rng, 3)
    dxi = np.array([sample_increments(spec.u, dt, rng) for _ in range(1000)])
    # the ungauged path in one kernel call, the gauged one step by step
    path, _, _ = _kernel_path(model, spec, twin, dt, dxi)
    gauge_dev = 0.0
    for psi, inc in zip(path[1:], dxi):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        twin = _kernel_path(model, spec, twin, dt, [inc])[0][1]
        twin = gauge_transform_step(twin, f, inc)
        gauge_dev = max(gauge_dev, np.abs(projector(psi) - projector(twin)).max())

    rho_a = projector(plus_x_state())
    rho_b = rho_a.copy()
    decomposed_dev = 0.0
    for _ in range(1000):
        dzeta = np.sqrt(dt) * rng.standard_normal()
        rho_a = sme_u1_decomposed_step(rho_a, dzeta, ATOM_PARAMS, dt)
        rho_b = step_sme(ATOM, rho_b, [dzeta], dt)
        decomposed_dev = max(decomposed_dev, np.abs(rho_a - rho_b).max())

    ok = min_order >= 0.5 and gauge_dev < 1e-10 and decomposed_dev < 1e-9
    announce(
        f"criterion 7 {'PASS' if ok else 'FAIL'}: stepper pair strong orders "
        f">= {min_order:.2f}, gauge-phase deviation {gauge_dev:.1e}, decomposed "
        f"two-noise stepper off by {decomposed_dev:.1e} over 10^3 steps"
    )
    assert ok


def test_criterion_8_expected_currents(scenario_runs, oracle_states, announce):
    worst = 0.0
    null_worst = 0.0
    for name in SCENARIOS:
        run = scenario_runs[name]
        for rec in (5, 10, 20):  # t = 0.5, 1, 2
            want = closed_form_current(name, oracle_states[rec])
            j = run.currents[:, rec, 0]
            for dev, spread in (
                (abs(j.real.mean() - want.real), j.real.std(ddof=1)),
                (abs(j.imag.mean() - want.imag), j.imag.std(ddof=1)),
            ):
                ratio = dev / max(3 * spread / np.sqrt(N_TRAJ), 1e-12)
                worst = max(worst, ratio)
                if name == "invariant_plus":
                    null_worst = max(null_worst, ratio)
    ok = worst < 1.0
    announce(
        f"criterion 8 {'PASS' if ok else 'FAIL'}: mean currents vs closed forms "
        f"at t in (0.5, 1, 2), worst at {worst:.2f} of the 3 s.e. gate; "
        f"adapted-scheme mean current consistent with zero at {null_worst:.2f}"
    )
    assert ok
