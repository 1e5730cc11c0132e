"""Tests for the driven damped two-level atom scenario pack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unravel import (
    AtomParams,
    FixedU,
    Heterodyne,
    InvariantStateDep,
    bloch,
    build_atom,
    ensemble_summary,
    liouvillian_apply,
    plus_x_state,
    projector,
    real_embedding,
    rotate_lindblads,
    run_ensemble,
    sample_increments,
    shift_lindblads,
    spectral_norm,
    z_drift_residual,
)
from unravel.cli import EXIT_CONFIG, main
from unravel.fluorescence import (
    KET_EXCITED,
    KET_GROUND,
    SCENARIOS,
    SIGMA_MINUS,
    SIGMA_X,
    scenario_spec,
)
from unravel.oracle import trace_distance
from unravel.unravelings import color_factors
from unravel.trajectory import gauge_transform_step, step_nonlinear_sse, step_sme
from atom_closed_forms import scenario_expected_current, sme_u1_decomposed_step
from conftest import random_state
from linear_reference import expected_current


class TestAtomParams:
    def test_defaults(self):
        params = AtomParams()
        assert params.gamma == 1.0
        assert params.omega == 10.0

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            AtomParams(gamma=0.0, omega=1.0)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError, match="omega"):
            AtomParams(gamma=1.0, omega=-1.0)


class TestBuildAtom:
    def test_operators(self):
        model = build_atom(AtomParams(gamma=4.0, omega=6.0))
        np.testing.assert_allclose(model.hamiltonian, 3.0 * SIGMA_X, atol=1e-15)
        assert model.num_lindblads == 1
        np.testing.assert_allclose(model.lindblads[0], 2.0 * SIGMA_MINUS, atol=1e-15)

    def test_mixed_state_drift_matches_bloch_equations(self, atom_model):
        # at the Bloch origin the drift is (0, 0, -gamma)
        drho = liouvillian_apply(atom_model, np.eye(2) / 2)
        drift = [
            np.trace(s @ drho).real for s in (SIGMA_X, 1j * SIGMA_MINUS - 1j * SIGMA_MINUS.T, np.diag([1.0, -1.0]))
        ]
        np.testing.assert_allclose(drift, [0.0, 0.0, -1.0], atol=1e-14)


class TestBloch:
    def test_cardinal_states(self):
        np.testing.assert_allclose(bloch(KET_EXCITED), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(bloch(KET_GROUND), [0, 0, -1], atol=1e-15)
        np.testing.assert_allclose(bloch(plus_x_state()), [1, 0, 0], atol=1e-15)
        plus_y = np.array([1.0, 1.0j]) / np.sqrt(2)
        np.testing.assert_allclose(bloch(plus_y), [0, 1, 0], atol=1e-15)

    def test_accepts_projector(self, rng):
        psi = random_state(rng, 2)
        np.testing.assert_allclose(bloch(projector(psi)), bloch(psi), atol=1e-13)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            bloch(np.array([1.0, 0.0, 0.0]))

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_pure_states_lie_on_sphere(self, seed):
        psi = random_state(np.random.default_rng(seed), 2)
        assert np.sum(bloch(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


PLUS_X_TWICE = np.array([plus_x_state(), plus_x_state()])
ATOM = build_atom(AtomParams())
DT_MESSAGE = "dt must be positive and finite"
# Three trajectories of +x at two times, their own reference, and the same
# with one state off the unit sphere (its inflated jackknife error once let
# the gate pass).
GATE_STATES = np.tile(plus_x_state(), (3, 2, 1))
GATE_REFERENCE = np.tile(projector(plus_x_state()), (2, 1, 1))
GATE_OFF_NORM = GATE_STATES.copy()
GATE_OFF_NORM[0, 1] = [5.0, 5.0]
# Each returned numbers (NaN, or a wrong value) or raised an unnamed error.
BAD_NUMBERS = {
    "bloch-nan": (bloch, (np.full((2, 2), np.nan),), "non-finite"),
    "bloch-non-hermitian": (bloch, (np.array([[1.0, 2j], [0.0, 0.0]]),), "not Hermitian"),
    "bloch-trace": (bloch, (2.5 * np.eye(2),), "trace is not 1"),
    "bloch-dimension": (bloch, (np.eye(3) / 3,), "dimension 3, expected 2"),
    **{f"sample_increments-dt={dt}": (
        sample_increments, ([[0.5]], dt, np.random.default_rng(0)), DT_MESSAGE
    ) for dt in (np.nan, np.inf, 0.0, -1e-3)},
    **{f"z_drift_residual-dt={dt}": (
        z_drift_residual, (PLUS_X_TWICE, dt, AtomParams()), DT_MESSAGE
    ) for dt in (np.nan, -1e-3)},
    # each returned residuals rather than naming what is wrong with the states
    "z_drift_residual-dimension": (
        z_drift_residual, (np.ones((3, 3)) / np.sqrt(3), 1e-3, AtomParams()),
        "expected dimension 2",
    ),
    "z_drift_residual-norm": (
        z_drift_residual, (5.0 * np.tile(plus_x_state(), (3, 1)), 1e-3, AtomParams()),
        "state norm",
    ),
    "z_drift_residual-nan": (
        z_drift_residual, (np.array([plus_x_state(), [np.nan, 0.0], plus_x_state()]), 1e-3,
                           AtomParams()),
        "state contains non-finite",
    ),
    **{f"AtomParams-gamma={x}": (AtomParams, (x, 1.0), "gamma must be positive and finite")
       for x in (np.nan, np.inf)},
    **{f"AtomParams-omega={x}": (AtomParams, (1.0, x), "omega must be non-negative and finite")
       for x in (np.nan, np.inf)},
    "real_embedding-nan": (real_embedding, ([[np.nan]], 1e-3), "u contains non-finite"),
    "real_embedding-inf": (real_embedding, ([[0.5, np.inf], [np.inf, 0.5]], 1e-3),
                           "u contains non-finite"),
    **{f"real_embedding-dt={dt}": (real_embedding, ([[0.5]], dt), DT_MESSAGE)
       for dt in (np.nan, np.inf, 0.0, -1.0)},
    "real_embedding-nonsquare": (real_embedding, ([[0.5, 0.1]], 1e-3), "u must be square"),
    "spectral_norm-nan": (spectral_norm, ([[np.nan]],), "u contains non-finite"),
    "sample_increments-nan": (
        sample_increments, ([[np.nan]], 1e-3, np.random.default_rng(0)), "u contains non-finite"
    ),
    "sample_increments-nonsquare": (
        sample_increments, ([[0.5, 0.1]], 1e-3, np.random.default_rng(0)), "u must be square"
    ),
    "sample_increments-asymmetric": (
        sample_increments, ([[0.3, 0.5], [0.1, 0.2]], 1e-3, np.random.default_rng(0)),
        "u is not complex symmetric",
    ),
    "spectral_norm-stack": (spectral_norm, (np.zeros((2, 2, 2)),), r"u must be one \(K, K\)"),
    "sample_increments-stack": (
        sample_increments, (np.zeros((2, 1, 1)), 1e-3, np.random.default_rng(0)),
        r"u must be one \(K, K\)",
    ),
    "color_factors-nan": (color_factors, ([[np.nan]], 1e-3), "u contains non-finite"),
    "color_factors-asymmetric": (
        color_factors, ([[0.3, 0.5], [0.1, 0.2]], 1e-3), "u is not complex symmetric"
    ),
    # the lanes-last layout (K, K, lanes), one asymmetric lane of two
    "color_factors-asymmetric-lane": (
        color_factors, (np.stack([np.eye(2) / 2, [[0.3, 0.5], [0.1, 0.2]]], axis=-1), 1e-3),
        "u is not complex symmetric",
    ),
    **{f"step_nonlinear_sse-{x}": (
        step_nonlinear_sse, (ATOM, plus_x_state(), [x], 1e-3), "increments must be finite"
    ) for x in (np.nan, np.inf)},
    "step_nonlinear_sse-dt=nan": (
        step_nonlinear_sse, (ATOM, plus_x_state(), [0.01], np.nan), DT_MESSAGE
    ),
    "step_sme-nan": (
        step_sme, (ATOM, projector(plus_x_state()), [np.nan], 1e-3), "increments must be finite"
    ),
    "step_sme-dt=-1": (step_sme, (ATOM, projector(plus_x_state()), [0.01], -1.0), DT_MESSAGE),
    "run_ensemble-increments": (
        run_ensemble, (ATOM, Heterodyne(), plus_x_state(), 1, 1e-3, 2, 0, 1, 0, None,
                       [[[0.01], [np.nan]]]),
        "increments must be finite",
    ),
    "gauge_transform_step-f": (
        gauge_transform_step, (plus_x_state(), [np.nan], [0.01]), "f must be finite"
    ),
    "gauge_transform_step-increments": (
        gauge_transform_step, (plus_x_state(), [0.01], [np.nan]), "increments must be finite"
    ),
    "gauge_transform_step-lengths": (
        gauge_transform_step, (plus_x_state(), [0.3, 1.0, 2.0], [0.01]),
        r"increments must have shape \(3,\)",
    ),
    "gauge_transform_step-norm": (
        gauge_transform_step, ([5.0, 0.0], [0.3], [0.01]), "state norm"
    ),
    "ensemble_summary-norm": (
        ensemble_summary, ([0.0, 1.0], GATE_OFF_NORM, GATE_REFERENCE), "state norm"
    ),
    "ensemble_summary-nan-state": (
        ensemble_summary, ([0.0, 1.0], np.full((3, 2, 2), np.nan), GATE_REFERENCE),
        "state contains non-finite",
    ),
    # each returned passed() with the time in the summary, which JSON cannot hold
    "ensemble_summary-nan-time": (
        ensemble_summary, ([np.nan, 1.0], GATE_STATES, GATE_REFERENCE),
        "times contains non-finite",
    ),
    "ensemble_summary-inf-time": (
        ensemble_summary, ([0.0, np.inf], GATE_STATES, GATE_REFERENCE),
        "times contains non-finite",
    ),
    # which returned passed() with a 2-D times array; a scalar raised IndexError
    **{f"ensemble_summary-{kind}-times": (
        ensemble_summary, (t, GATE_STATES, GATE_REFERENCE), "grids do not match"
    ) for kind, t in (("2d", np.zeros((2, 3))), ("scalar", 0.5))},
    "ensemble_summary-nan-reference": (
        ensemble_summary, ([0.0, 1.0], GATE_STATES, np.full((2, 2, 2), np.nan)),
        "trace_distance got non-finite matrices",
    ),
    # each named the Hamiltonian or a Lindblad operator, or flattened chi
    "shift_lindblads-nan": (shift_lindblads, (ATOM, [np.nan]), "chi contains non-finite"),
    "shift_lindblads-matrix": (shift_lindblads, (ATOM, [[0.1]]), r"chi must have shape \(1,\)"),
    "rotate_lindblads-nan": (rotate_lindblads, (ATOM, [[np.nan]]), "T contains non-finite"),
    "trace_distance-nan": (
        trace_distance, ([[np.nan, 0.0], [0.0, 1.0]], np.eye(2) / 2), "non-finite matrices"
    ),
}


@pytest.mark.parametrize("func, args, message", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_bad_numbers_are_rejected_by_name(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_cli_names_a_non_finite_omega(tmp_path, capsys):
    code = main(["--mode", "figures", "--omega", "inf", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "omega must be non-negative and finite" in capsys.readouterr().err


class TestScenarios:
    def test_names_resolve_to_specs(self, atom_model):
        assert set(SCENARIOS) == {
            "homodyne_x", "homodyne_y", "heterodyne",
            "invariant_plus", "invariant_minus",
        }
        state = plus_x_state()
        np.testing.assert_allclose(
            scenario_spec("homodyne_x").resolve(atom_model, state), [[1.0]]
        )
        np.testing.assert_allclose(
            scenario_spec("homodyne_y").resolve(atom_model, state), [[-1.0]]
        )
        np.testing.assert_allclose(
            scenario_spec("heterodyne").resolve(atom_model, state), [[0.0]]
        )
        assert scenario_spec("invariant_plus").state_dependent
        assert scenario_spec("invariant_minus").state_dependent

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="scenario"):
            scenario_spec("nope")

    def test_closed_forms_at_plus_x(self, atom_params):
        state = plus_x_state()
        want = {
            "homodyne_x": 1.0,
            "homodyne_y": 0.0,
            "heterodyne": 0.5,
            "invariant_plus": 0.0,
            "invariant_minus": 1.0,
        }
        for name, value in want.items():
            got = scenario_expected_current(
                atom_params, scenario_spec(name), state
            )
            assert got == pytest.approx(value, abs=1e-14), name

    def test_closed_forms_match_general_formula(self, atom_params, atom_model, rng):
        # the per-scenario expressions are redundant with the u-contraction
        for name in SCENARIOS:
            spec = scenario_spec(name)
            for _ in range(10):
                psi = random_state(rng, 2)
                got = scenario_expected_current(atom_params, spec, psi)
                u = spec.resolve(atom_model, psi)
                want = expected_current(atom_model, u, psi)[0]
                assert got == pytest.approx(want, abs=1e-12), name


class TestZDriftResidual:
    def test_dark_state_residual_vanishes(self):
        params = AtomParams(gamma=1.0, omega=0.0)
        model = build_atom(params)
        run = run_ensemble(model, Heterodyne(), KET_GROUND, n_traj=1, dt=1e-3, steps=200, seed=0)
        np.testing.assert_allclose(
            z_drift_residual(run.states[0], 1e-3, params), 0.0, atol=1e-12
        )

    def test_noise_cancellation_scaling(self, atom_params, atom_model):
        # the z increment loses its root-dt noise only for the sign=+1
        # state-adapted scheme; uncorrelated records keep it
        dts = [1e-3, 5e-4, 2.5e-4]

        def rms(spec):
            out = []
            for dt in dts:
                pooled = []
                for seed in range(4):
                    run = run_ensemble(
                        atom_model, spec, plus_x_state(), 1, dt, round(1.0 / dt), seed
                    )
                    pooled.append(z_drift_residual(run.states[0], dt, atom_params))
                out.append(np.sqrt(np.mean(np.concatenate(pooled) ** 2)))
            return out

        slope_control = np.polyfit(np.log(dts), np.log(rms(Heterodyne())), 1)[0]
        slope_adapted = np.polyfit(
            np.log(dts), np.log(rms(InvariantStateDep(sign=1))), 1
        )[0]
        assert slope_control == pytest.approx(0.5, abs=0.15)
        assert slope_adapted == pytest.approx(1.0, abs=0.15)


class TestDecomposedStep:
    def test_zero_increment_is_drift_step(self, atom_params, atom_model):
        rho = projector(plus_x_state())
        got = sme_u1_decomposed_step(rho, 0.0, atom_params, 1e-3)
        want = step_sme(atom_model, rho, [0.0], 1e-3)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_single_step_equality(self, atom_params, atom_model):
        dt = 1e-3
        rho = projector(plus_x_state())
        got = sme_u1_decomposed_step(rho, np.sqrt(dt), atom_params, dt)
        want = step_sme(atom_model, rho, [np.sqrt(dt)], dt)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_coupled_run_stays_close(self, atom_params, atom_model, rng):
        dt = 1e-3
        a = projector(plus_x_state())
        b = a.copy()
        worst = 0.0
        for _ in range(1000):
            dzeta = np.sqrt(dt) * rng.standard_normal()
            a = sme_u1_decomposed_step(a, dzeta, atom_params, dt)
            b = step_sme(atom_model, b, [dzeta], dt)
            worst = max(worst, np.abs(a - b).max())
        assert worst < 1e-9


class TestManifoldInvariance:
    def test_x_stays_zero_under_opposite_correlation(self, atom_model):
        dt = 1e-4
        plus_y = np.array([1.0, 1.0j]) / np.sqrt(2)
        run = run_ensemble(atom_model, FixedU(np.array([[-1.0]])), plus_y, 1, dt, 10000, 3)
        xs = np.array([bloch(s)[0] for s in run.states[0]])
        assert np.abs(xs).max() < 10 * dt

    def test_adapted_scheme_matches_opposite_correlation_on_manifold(
        self, atom_model
    ):
        # once x = 0, the sign=-1 state-adapted correlation is exactly -1
        dt = 1e-4
        plus_y = np.array([1.0, 1.0j]) / np.sqrt(2)
        fixed = FixedU(np.array([[-1.0]]))
        run = run_ensemble(atom_model, fixed, plus_y, 1, dt, 2000, 3, record_stride=100)
        spec = InvariantStateDep(sign=-1)
        rng = np.random.default_rng(0)
        for psi in run.states[0]:
            assert abs(bloch(psi)[0]) < 1e-8
            u = spec.resolve(atom_model, psi)
            assert abs(u[0, 0] + 1.0) < 1e-10
            # one kernel step of each, on the same increment
            dxi = [[[1j * np.sqrt(dt) * rng.standard_normal()]]]
            a, b = (
                run_ensemble(atom_model, x, psi, 1, dt, 1, 0, increments=dxi).final[0]
                for x in (spec, fixed)
            )
            assert np.abs(projector(a) - projector(b)).max() < 1e-10
