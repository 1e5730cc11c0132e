"""Tests for deterministic integration, steady states, and ensemble gates."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from unravel import (
    DegenerateSteadyStateError,
    Heterodyne,
    LindbladModel,
    bloch,
    ensemble_summary,
    integrate_master,
    liouvillian_apply,
    plus_x_state,
    projector,
    run_ensemble,
    steady_state,
)
from unravel.fluorescence import KET_EXCITED, KET_GROUND, SIGMA_Z
from unravel.oracle import liouvillian_matrix, trace_distance
from conftest import random_model, random_state


def bloch_rhs(t, v, gamma, omega):
    x, y, z = v
    return [
        -0.5 * gamma * x,
        -0.5 * gamma * y - omega * z,
        omega * y - gamma * (z + 1.0),
    ]


class TestIntegrateMaster:
    def test_matches_scipy_reference(self, atom_model):
        dt, steps = 1e-3, 1000
        rhos = integrate_master(atom_model, projector(plus_x_state()), dt, steps)
        sol = solve_ivp(
            bloch_rhs, (0.0, steps * dt), [1.0, 0.0, 0.0], args=(1.0, 10.0),
            t_eval=[steps * dt], rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(bloch(rhos[-1]), sol.y[:, -1], atol=1e-8)

    def test_pure_decay_population(self, decay_model):
        dt, steps = 1e-3, 500
        rhos = integrate_master(decay_model, projector(KET_EXCITED), dt, steps)
        times = dt * np.arange(steps + 1)
        np.testing.assert_allclose(rhos[:, 0, 0].real, np.exp(-times), atol=1e-8)

    def test_fourth_order_convergence(self, atom_model):
        rho0 = projector(plus_x_state())
        fine = integrate_master(atom_model, rho0, 1e-4, 5000)[-1]
        errs = []
        dts = [1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            got = integrate_master(atom_model, rho0, dt, round(0.5 / dt))[-1]
            errs.append(np.abs(got - fine).max())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope > 3.5

    def test_preserves_trace_and_hermiticity(self, rng):
        model = random_model(rng, 4, 2)
        rho0 = projector(random_state(rng, 4))
        rhos = integrate_master(model, rho0, 1e-3, 200)
        traces = np.trace(rhos, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)
        np.testing.assert_allclose(
            rhos, rhos.conj().transpose(0, 2, 1), atol=1e-12
        )

    def test_matches_exact_propagator_on_random_model(self):
        # N = 4, K = 3: beyond the atom and pure decay of the tests above
        rng = np.random.default_rng(5)
        model = random_model(rng, 4, 3)
        rho0 = projector(random_state(rng, 4))
        dt, steps = 1e-3, 400
        rhos = integrate_master(model, rho0, dt, steps)
        gen = liouvillian_matrix(model)
        for k in (1, 37, 400):
            want = (expm(k * dt * gen) @ rho0.reshape(-1)).reshape(4, 4)
            np.testing.assert_allclose(rhos[k], want, atol=1e-9)

    def test_includes_initial_state(self, decay_model):
        rho0 = projector(KET_EXCITED)
        rhos = integrate_master(decay_model, rho0, 1e-3, 3)
        assert rhos.shape == (4, 2, 2)
        np.testing.assert_array_equal(rhos[0], rho0)

    def test_rejects_bad_step_and_step_count(self, decay_model):
        # a non-finite step used to return NaN states, a negative one to
        # integrate backwards, and a bad count to fail in the loop unnamed
        rho0 = projector(KET_EXCITED)
        for dt in (float("nan"), float("inf"), -1e-3, 0.0):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                integrate_master(decay_model, rho0, dt, 3)
        for steps in (-1, 2.5, "3", True):
            with pytest.raises(ValueError, match="steps must be an integer of at least 0"):
                integrate_master(decay_model, rho0, 1e-3, steps)
        assert integrate_master(decay_model, rho0, 1e-3, 0).shape == (1, 2, 2)


class TestLiouvillianMatrix:
    def test_matches_direct_application(self, rng):
        model = random_model(rng, 3, 2)
        rho = projector(random_state(rng, 3))
        mat = liouvillian_matrix(model)
        np.testing.assert_allclose(
            (mat @ rho.reshape(-1)).reshape(3, 3),
            liouvillian_apply(model, rho),
            atol=1e-12,
        )


class TestSteadyState:
    def test_pure_decay_relaxes_to_ground(self, decay_model):
        np.testing.assert_allclose(
            steady_state(decay_model), projector(KET_GROUND), atol=1e-12
        )

    def test_driven_atom_closed_form(self, atom_model):
        # x* = 0, y* = gamma omega / (omega^2 + ...), z* from balance
        got = bloch(steady_state(atom_model))
        np.testing.assert_allclose(got, [0.0, 20 / 201, -1 / 201], atol=1e-10)

    def test_is_fixed_point_of_integration(self, atom_model):
        rho_ss = steady_state(atom_model)
        evolved = integrate_master(atom_model, rho_ss, 1e-3, 100)[-1]
        assert np.abs(evolved - rho_ss).max() < 1e-8

    def test_residual_is_tiny(self, rng):
        model = random_model(rng, 3, 2)
        rho_ss = steady_state(model)
        assert np.abs(liouvillian_apply(model, rho_ss)).max() < 1e-9

    def test_degenerate_kernel_raises(self):
        model = LindbladModel(hamiltonian=SIGMA_Z, lindblads=())
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(model)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(
            projector(KET_EXCITED), projector(KET_GROUND)
        ) == pytest.approx(1.0)

    def test_identical_states(self):
        rho = projector(plus_x_state())
        assert trace_distance(rho, rho) == 0.0

    def test_excited_versus_plus_x(self):
        got = trace_distance(projector(KET_EXCITED), projector(plus_x_state()))
        assert got == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(20):
            a = projector(random_state(rng, 3))
            b = projector(random_state(rng, 3))
            d = trace_distance(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12

    def test_stack_equals_per_pair_calls(self, rng):
        a = np.stack([projector(random_state(rng, 3)) for _ in range(6)]).reshape(2, 3, 3, 3)
        b = np.stack([projector(random_state(rng, 3)) for _ in range(6)]).reshape(2, 3, 3, 3)
        got = trace_distance(a, b)
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == trace_distance(a[i, j], b[i, j])
        # one matrix broadcasts against a stack
        one = trace_distance(a[0], b[0, 0])
        assert np.array_equal(one, [trace_distance(x, b[0, 0]) for x in a[0]])


class TestEnsembleSummary:
    def test_exact_agreement_passes(self, decay_model):
        times = np.array([0.0, 0.1])
        psi = np.array([KET_EXCITED, KET_EXCITED])
        states = np.array([psi, psi, psi])
        reference = np.array([projector(KET_EXCITED)] * 2)
        summary = ensemble_summary(times, states, reference)
        np.testing.assert_allclose(summary.trace_distances, 0.0, atol=1e-14)
        assert summary.passed()
        data = summary.to_dict()
        assert set(data) == {
            "times", "trace_distance", "stderr", "n_trajectories", "passed"
        }

    def test_biased_ensemble_fails(self):
        times = np.array([0.0])
        states = np.array([[KET_EXCITED], [KET_EXCITED], [KET_EXCITED]])
        reference = np.array([projector(KET_GROUND)])
        summary = ensemble_summary(times, states, reference)
        assert not summary.passed()

    def test_grid_mismatch_raises(self):
        states = np.array([[KET_EXCITED], [KET_EXCITED]])
        reference = np.array([projector(KET_EXCITED)] * 2)
        with pytest.raises(ValueError):
            ensemble_summary(np.array([0.0]), states, reference)

    def test_requires_two_trajectories(self):
        states = np.array([[KET_EXCITED]])
        reference = np.array([projector(KET_EXCITED)])
        with pytest.raises(ValueError):
            ensemble_summary(np.array([0.0]), states, reference)

    def test_error_shrinks_as_root_ensemble_size(self, decay_model):
        # trace distance to the deterministic solution ~ M^{-1/2}; average
        # over disjoint batches of one pool to tame realization noise
        dt, steps, stride = 1e-3, 200, 20
        reference = integrate_master(decay_model, projector(KET_EXCITED), dt, steps)
        reference = reference[np.arange(0, steps, stride)]
        total = 32000
        run = run_ensemble(
            decay_model, Heterodyne(), KET_EXCITED, n_traj=total, dt=dt,
            steps=steps, seed=2, record_stride=stride,
        )
        sizes = [250, 1000, 4000]
        devs = []
        for m in sizes:
            batches = [
                ensemble_summary(
                    run.times, run.states[b * m:(b + 1) * m], reference
                ).trace_distances[1:].mean()
                for b in range(total // m)
            ]
            devs.append(np.mean(batches))
        slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

