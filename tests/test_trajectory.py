"""Tests for conditioned-trajectory steppers, records, and batch running."""

import os
import pickle
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpc

from unravel import (
    AtomParams,
    FixedU,
    Heterodyne,
    Homodyne,
    InvariantStateDep,
    InvariantTrace,
    LindbladModel,
    NormCollapseError,
    bloch,
    build_atom,
    ensemble_summary,
    integrate_master,
    plus_x_state,
    projector,
    run_ensemble,
    shift_lindblads,
    spectral_norm,
)
from unravel.fluorescence import KET_EXCITED, KET_GROUND, SIGMA_MINUS, SIGMA_X
from unravel.operators import (
    BLAS_MIN_DIM,
    check_density_matrix,
    check_pure_state,
    transition_rate_operator,
)
from unravel.trajectory import (
    CHUNK,
    MIN_LANES,
    NOISE_BLOCK,
    _run_chunk,
    trajectory_stream,
)
from unravel.unravelings import apply_color, color_factors, extremal_u, u_trace
from unravel.verify import _effective_hamiltonian, step_nonlinear_sse, step_sme
from unravel import trajectory
from conftest import random_model, random_state, random_symmetric_u
from linear_reference import (
    VanishingLikelihoodError,
    apply_measurement,
    expected_current,
    measurement_operator,
    reference_u,
    step_linear,
)


def colored_increment(u_scalar, dt, z1, z2):
    """Single-channel increment with fixed raw draws (z1, z2)."""
    r = abs(u_scalar)
    half = np.sqrt(complex(u_scalar.real / r, u_scalar.imag / r)) if r else 1.0  # root of u / |u|
    return half * (
        np.sqrt(dt * (1 + r) / 2) * z1 + 1j * np.sqrt(dt * (1 - r) / 2) * z2
    )


class TestExpectedCurrent:
    # with zero increments the kernel's current is the record mean
    def test_plus_x_full_correlation(self):
        spec = FixedU(np.array([[1.0]]))
        for gamma in (1.0, 4.0):
            model = build_atom(AtomParams(gamma=gamma, omega=10.0))
            run = run_ensemble(model, spec, plus_x_state(), 1, 1e-3, 1, 0, increments=[[[0.0]]])
            assert run.currents[0, 0, 0] == pytest.approx(np.sqrt(gamma), abs=1e-14)

    def test_uncorrelated_reduces_to_channel_mean(self, rng, atom_model):
        psi = random_state(rng, 2)
        run = run_ensemble(atom_model, Heterodyne(), psi, 1, 1e-3, 1, 0, increments=[[[0.0]]])
        s = np.vdot(psi, atom_model.lindblads[0] @ psi)
        assert run.currents[0, 0, 0] == pytest.approx(s, abs=1e-14)


class TestStepLinear:
    """The kernel's linear step at width 1."""

    def test_matches_high_precision_duplicate(self, atom_model):
        # re-derive one step at 50 digits from the update rule itself
        mp.dps = 50
        dt = 1e-3
        u = 0.3 + 0.4j
        psi = plus_x_state()
        dxi = colored_increment(u, dt, 0.7, -0.3)
        run = run_ensemble(
            atom_model, FixedU(np.array([[u]])), psi, 1, dt, 1, 0, increments=[[[dxi]]]
        )
        got_state, got_current = run.final[0], run.currents[0, 0]

        c = [[mpc(0), mpc(0)], [mpc(1), mpc(0)]]
        h = [[mpc(0), mpc(5)], [mpc(5), mpc(0)]]
        p = [mpc(v) for v in psi]
        cp = [c[0][0] * p[0] + c[0][1] * p[1], c[1][0] * p[0] + c[1][1] * p[1]]
        s = p[0].conjugate() * cp[0] + p[1].conjugate() * cp[1]
        j_dt = (mpc(u) * s.conjugate() + s) * mp.mpf(dt) + mpc(dxi)
        # generator: -iH - c^dag c / 2 with c^dag c = diag(1, 0)
        gen = [
            [-mp.mpf(0.5), -1j * h[0][1]],
            [-1j * h[1][0], mpc(0)],
        ]
        phi = [
            p[0] + mp.mpf(dt) * (gen[0][0] * p[0] + gen[0][1] * p[1])
            + j_dt.conjugate() * cp[0],
            p[1] + mp.mpf(dt) * (gen[1][0] * p[0] + gen[1][1] * p[1])
            + j_dt.conjugate() * cp[1],
        ]
        norm = mp.sqrt(abs(phi[0]) ** 2 + abs(phi[1]) ** 2)
        want = np.array([complex(phi[0] / norm), complex(phi[1] / norm)])
        np.testing.assert_allclose(got_state, want, atol=1e-12)
        assert got_current[0] == pytest.approx(complex(j_dt / mp.mpf(dt)), abs=1e-12)

    def test_dark_state_is_exact_fixed_point(self, decay_model, rng):
        u = np.array([[0.5]])
        dxi = apply_color(color_factors(u[..., None], 1e-2), rng.standard_normal((20, 2)).T).T
        spec = FixedU(u)
        run = run_ensemble(decay_model, spec, KET_GROUND, 1, 1e-2, 20, 0, increments=dxi[None])
        for new in [*run.states[0], run.final[0]]:
            np.testing.assert_array_equal(new, KET_GROUND)
        assert np.array_equal(run.currents[0], dxi / 1e-2)

    def test_norm_collapse_raises(self, decay_model):
        with pytest.raises(NormCollapseError):
            run_ensemble(
                decay_model, Heterodyne(), KET_EXCITED, 1, 2.0, 1, 0, increments=[[[0.0]]]
            )

    def test_rejects_wrong_increment_count(self, atom_model):
        # (n_traj, steps, K) = (1, 3, 1); (3, 1) lacks the lane axis
        for shape in ((1, 3, 2), (1, 2, 1), (3, 1), (2, 3, 1)):
            with pytest.raises(ValueError, match=r"increments must have shape \(1, 3, 1\)"):
                run_ensemble(
                    atom_model, Heterodyne(), plus_x_state(), 1, 1e-3, 3, 0,
                    increments=np.zeros(shape),
                )


class TestStepperConsistency:
    def test_one_step_difference_shrinks_linearly(self, atom_model):
        # all three steppers agree to first order in dt at fixed raw draws
        psi = plus_x_state()
        u = 0.3 + 0.4j
        dts = np.array([4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4])
        d_lin, d_non = [], []
        for dt in dts:
            dxi = [colored_increment(u, dt, 0.7, -0.3)]
            spec = FixedU(np.array([[u]]))
            lin = run_ensemble(atom_model, spec, psi, 1, dt, 1, 0, increments=[[dxi]]).final[0]
            non = step_nonlinear_sse(atom_model, psi, dxi, dt)
            sme = step_sme(atom_model, projector(psi), dxi, dt)
            d_lin.append(np.abs(projector(lin) - sme).max())
            d_non.append(np.abs(projector(non) - sme).max())
        slope_lin = np.polyfit(np.log(dts), np.log(d_lin), 1)[0]
        slope_non = np.polyfit(np.log(dts), np.log(d_non), 1)[0]
        assert 0.85 < slope_lin < 1.9
        assert 0.85 < slope_non < 1.9

    def test_projector_step_requires_rank_one(self, atom_model):
        with pytest.raises(ValueError, match="rank"):
            step_sme(atom_model, np.eye(2) / 2, [0.0], 1e-3)

    def test_effective_hamiltonian_shift_is_scalar(self, rng):
        # shifting the channels moves H_eff only by a multiple of identity
        model = random_model(rng, 3, 2)
        psi = random_state(rng, 3)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        diff = _effective_hamiltonian(shift_lindblads(model, chi), psi)
        diff = diff - _effective_hamiltonian(model, psi)
        diff = diff - (np.trace(diff) / 3) * np.eye(3)
        assert np.abs(diff).max() < 1e-10


def stacked_paths(rng):
    """A random N=3, K=2 model, six states, their projectors and 20 steps of
    increments for the six, ``(20, 6, 2)``."""
    model = random_model(rng, 3, 2)
    psi = np.array([random_state(rng, 3) for _ in range(6)])
    dxi = np.sqrt(5e-4) * (rng.normal(size=(20, 6, 2)) + 1j * rng.normal(size=(20, 6, 2)))
    return model, psi, np.array([projector(x) for x in psi]), dxi


def with_member(stack, index, value):
    """A copy of ``stack`` with member ``index`` replaced by ``value``."""
    out = np.array(stack, dtype=complex)
    out[index] = value
    return out


class TestStackedSteppers:
    """``step_sme`` and ``step_nonlinear_sse`` step a stack of paths at once."""

    @pytest.mark.parametrize("stepper", [step_nonlinear_sse, step_sme], ids=["nonlinear", "sme"])
    def test_stack_equals_a_loop_of_single_calls(self, rng, stepper):
        model, psi, rho, dxi = stacked_paths(rng)
        stack = psi if stepper is step_nonlinear_sse else rho
        singles = list(stack)
        for inc in dxi:
            stack = stepper(model, stack, inc, 1e-3)
            singles = [stepper(model, one, d, 1e-3) for one, d in zip(singles, inc)]
            assert stack.shape == (6, *singles[0].shape)
            assert np.abs(stack - np.array(singles)).max() <= 1e-14

    def test_one_bad_member_rejects_the_stack_by_name(self, rng):
        model, psi, rho, dxi = stacked_paths(rng)
        bad_inc = with_member(dxi[0], 4, [0.01, np.nan])
        cases = [
            (step_sme, with_member(rho, 2, np.eye(3) / 3), dxi[0], "not a rank-one projector"),
            (step_sme, with_member(rho, 2, 2.0 * rho[2]), dxi[0], "trace is not 1"),
            (step_sme, with_member(rho, 2, np.nan), dxi[0], "density matrix contains non-finite"),
            (step_sme, rho, bad_inc, "increments must be finite"),
            (step_sme, rho, dxi[0, :5], r"increments must have shape \(6, 2\)"),
            (step_nonlinear_sse, with_member(psi, 2, 2.0 * psi[2]), dxi[0], "state norm 2"),
            (step_nonlinear_sse, with_member(psi, 2, np.nan), dxi[0], "state contains non-finite"),
            (step_nonlinear_sse, psi, bad_inc, "increments must be finite"),
            (step_nonlinear_sse, psi[:, :2], dxi[0], "expected dimension 3"),
        ]
        for stepper, stack, inc, message in cases:
            with pytest.raises(ValueError, match=message):
                stepper(model, stack, inc, 1e-3)

    def test_single_matrix_callers_reject_a_stack_by_name(self, rng, atom_model):
        rho = np.tile(projector(plus_x_state()), (3, 1, 1))
        states = np.tile(plus_x_state(), (3, 1))
        cases = [
            (bloch, (rho,), "density matrix must be one matrix"),
            (integrate_master, (atom_model, rho, 1e-3, 2), "density matrix must be one matrix"),
            (check_density_matrix, (rho,), "density matrix must be one matrix"),
            (check_pure_state, (states,), "state must be a vector"),
            (projector, (states,), "state must be a vector"),
            (transition_rate_operator, (atom_model, states), "state must be a vector"),
            (run_ensemble, (atom_model, Heterodyne(), states, 1, 1e-3, 2, 0),
             "state must be a vector"),
        ]
        for func, args, message in cases:
            with pytest.raises(ValueError, match=message):
                func(*args)


class TestMeasurementOperator:
    def test_conditioning_matches_linear_step(self, rng, atom_model):
        psi = random_state(rng, 2)
        u = random_symmetric_u(rng, 1, 0.6)
        dt = 1e-3
        dxi = apply_color(color_factors(u[..., None], dt), rng.standard_normal((2, 1)))[:, 0]
        run = run_ensemble(atom_model, FixedU(u), psi, 1, dt, 1, 0, increments=[[dxi]])
        omega = measurement_operator(atom_model, run.currents[0, 0], dt)
        conditioned = apply_measurement(omega, projector(psi))
        np.testing.assert_allclose(conditioned, projector(run.final[0]), atol=1e-10)

    def test_zero_mean_records_resolve_identity(self, rng):
        # E[Omega^dag Omega] = 1 + dt^2 G^dag G under the raw noise measure
        model = random_model(rng, 3, 2)
        u = random_symmetric_u(rng, 2, 0.7)
        dt = 1e-2
        n = 40000
        draws = apply_color(color_factors(u[..., None], dt), rng.standard_normal((n, 4)).T).T
        acc = np.zeros((3, 3), dtype=complex)
        for dxi in draws:
            omega = measurement_operator(model, dxi / dt, dt)
            acc += omega.conj().T @ omega
        acc /= n
        gen = -1j * model.hamiltonian.astype(complex)
        for c in model.lindblads:
            gen -= 0.5 * (c.conj().T @ c)
        want = np.eye(3) + dt**2 * (gen.conj().T @ gen)
        # sampling error ~ ||c|| sqrt(dt / n)
        assert np.abs(acc - want).max() < 10 * np.sqrt(dt / n)

    def test_vanishing_likelihood_raises(self, atom_model):
        with pytest.raises(VanishingLikelihoodError):
            apply_measurement(np.zeros((2, 2)), projector(KET_EXCITED))


class TestRunTrajectory:
    """One trajectory: ``run_ensemble`` at width 1."""

    def test_closed_system_rabi_oscillation(self):
        omega = 10.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X, lindblads=())
        dt = 1e-4
        run = run_ensemble(
            model, FixedU(np.zeros((0, 0))), KET_EXCITED, n_traj=1, dt=dt, steps=2000,
            seed=0, record_stride=100,
        )
        assert run.increments.shape == (1, 20, 0)
        z = np.array([bloch(s)[2] for s in run.states[0]])
        np.testing.assert_allclose(z, np.cos(omega * run.times), atol=10 * dt)

    def test_closed_system_rabi_oscillation_ensemble(self):
        omega = 10.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X, lindblads=())
        dt = 1e-4
        for spec in (Heterodyne(), InvariantStateDep(sign=1)):
            run = run_ensemble(
                model, spec, KET_EXCITED, n_traj=3, dt=dt, steps=2000, seed=0,
                record_stride=100,
            )
            assert run.currents.shape == (3, 20, 0)
            for states in run.states:
                z = np.array([bloch(s)[2] for s in states])
                np.testing.assert_allclose(z, np.cos(omega * run.times), atol=10 * dt)

    def test_record_identity(self, atom_model):
        # J dt - dxi reproduces the pre-step conditional mean exactly
        spec = FixedU(np.array([[0.5 + 0.2j]]))
        run = run_ensemble(atom_model, spec, plus_x_state(), n_traj=1, dt=1e-3, steps=50, seed=3)
        u = spec.resolve(atom_model)
        for i in range(50):
            want = expected_current(atom_model, u, run.states[0, i])
            got = run.currents[0, i] - run.increments[0, i] / 1e-3
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_repeat_runs_are_identical(self, atom_model):
        kw = dict(n_traj=1, dt=1e-3, steps=200, seed=11, start_index=4)
        a = run_ensemble(atom_model, Heterodyne(), plus_x_state(), **kw)
        b = run_ensemble(atom_model, Heterodyne(), plus_x_state(), **kw)
        for name in ("states", "currents", "increments", "final"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_stride_subsamples_the_same_path(self, atom_model):
        kw = dict(n_traj=1, dt=1e-3, steps=60, seed=5)
        full = run_ensemble(atom_model, InvariantStateDep(sign=1), plus_x_state(), **kw)
        thin = run_ensemble(
            atom_model, InvariantStateDep(sign=1), plus_x_state(), record_stride=5, **kw
        )
        for name in ("states", "currents", "increments"):
            np.testing.assert_array_equal(getattr(thin, name), getattr(full, name)[:, ::5])
        np.testing.assert_array_equal(thin.times, full.times[::5])
        np.testing.assert_array_equal(thin.final, full.final)

    def test_config_validation(self, atom_model):
        # each bad grid value fails at the boundary with its name, not in
        # the kernel or in numpy
        for name, bad in (
            ("dt", 0.0), ("steps", 0), ("steps", 5.0), ("record_stride", 0),
            ("record_stride", 2.5), ("n_traj", 0), ("n_traj", 2.5), ("seed", -1),
            ("start_index", -3),
        ):
            kw = dict(n_traj=2, dt=1e-3, steps=5, seed=0) | {name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be"):
                run_ensemble(atom_model, Heterodyne(), plus_x_state(), **kw)

    def test_config_rejects_nan_step(self, atom_model):
        for name in ("dt", "steps", "record_stride", "n_traj"):
            kw = dict(n_traj=2, dt=1e-3, steps=5, seed=0) | {name: float("nan")}
            with pytest.raises(ValueError, match=f"^{name} must be"):
                run_ensemble(atom_model, Heterodyne(), plus_x_state(), **kw)


# The per-lane arrays of an EnsembleRun.
RECORDS = ("states", "currents", "increments", "final")


def assert_lane_equals(run, lane, one):
    """Lane ``lane`` of ``run`` is bit-identical to the width-1 run ``one``."""
    for name in RECORDS:
        assert np.array_equal(getattr(run, name)[lane], getattr(one, name)[0]), name


@pytest.fixture
def set_workers(monkeypatch):
    """Sets the worker processes run_ensemble takes, through UNRAVEL_THREADS,
    at any batch width: with MIN_LANES at 1 a worker needs one lane."""
    monkeypatch.setattr(trajectory, "MIN_LANES", 1)
    return lambda count: monkeypatch.setenv("UNRAVEL_THREADS", str(count))


@pytest.fixture
def pool_tasks(monkeypatch):
    """Number of tasks in each map sent through run_ensemble's process pool."""
    tasks = []

    class CountingPool(trajectory.ProcessPoolExecutor):
        def map(self, fn, items, **kwargs):
            items = list(items)
            tasks.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", CountingPool)
    return tasks


class TestRunEnsemble:
    def test_single_channel_matches_serial_runner(self, atom_model):
        # same kernel and noise stream, run at width 3 and at width 1
        kw = dict(dt=1e-3, steps=40, seed=9)
        run = run_ensemble(atom_model, Heterodyne(), plus_x_state(), 3, start_index=2, **kw)
        for m in range(3):
            one = run_ensemble(
                atom_model, Heterodyne(), plus_x_state(), 1, start_index=2 + m, **kw
            )
            assert_lane_equals(run, m, one)

    def test_multichannel_matches_serial_runner(self, rng):
        model = random_model(rng, 2, 2)
        u = random_symmetric_u(rng, 2, 0.6)
        spec = FixedU(u)
        initial = random_state(rng, 2)
        kw = dict(dt=1e-3, steps=30, seed=21)
        run = run_ensemble(model, spec, initial, n_traj=2, **kw)
        for m in range(2):
            assert_lane_equals(run, m, run_ensemble(model, spec, initial, 1, start_index=m, **kw))

    def test_worker_count_does_not_change_output(self, atom_model, set_workers, pool_tasks):
        kw = dict(
            model=atom_model, unraveling=Heterodyne(), initial=plus_x_state(),
            n_traj=300, dt=1e-3, steps=20, seed=17,
        )
        set_workers(1)
        serial = run_ensemble(**kw)
        assert pool_tasks == []
        set_workers(4)
        parallel = run_ensemble(**kw)
        # one index range per worker went through the pool
        assert pool_tasks == [4]
        for name in RECORDS:
            np.testing.assert_array_equal(getattr(serial, name), getattr(parallel, name))

    def test_narrow_batch_starts_no_pool(self, atom_model, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started")

        monkeypatch.setenv("UNRAVEL_THREADS", "8")
        monkeypatch.setattr(trajectory, "ProcessPoolExecutor", NoPool)
        run = run_ensemble(
            atom_model, Heterodyne(), plus_x_state(), n_traj=2 * MIN_LANES - 1,
            dt=1e-3, steps=5, seed=4,
        )
        assert (run.workers, run.lane_ranges) == (1, 1)

    def test_wide_batch_fans_out_one_range_per_worker(
        self, atom_model, monkeypatch, pool_tasks
    ):
        monkeypatch.setenv("UNRAVEL_THREADS", "8")
        kw = dict(
            model=atom_model, unraveling=InvariantStateDep(sign=1), initial=plus_x_state(),
            n_traj=2 * MIN_LANES, dt=1e-3, steps=12, seed=6, record_stride=5,
        )
        fanned = run_ensemble(**kw)
        # 8 CPUs, but only two ranges of MIN_LANES lanes each
        assert pool_tasks == [2]
        assert (fanned.workers, fanned.lane_ranges) == (2, 2)
        monkeypatch.setenv("UNRAVEL_THREADS", "1")
        serial = run_ensemble(**kw)
        assert (serial.workers, serial.lane_ranges) == (1, 1)
        assert np.array_equal(fanned.times, serial.times)
        for name in RECORDS:
            assert np.array_equal(getattr(fanned, name), getattr(serial, name))

    def test_mixed_specs_one_per_trajectory(self, atom_model):
        specs = [Heterodyne(), FixedU(np.array([[1.0]])), InvariantStateDep(sign=1)]
        kw = dict(dt=1e-3, steps=25, seed=2)
        run = run_ensemble(atom_model, specs, plus_x_state(), n_traj=3, **kw)
        for m, spec in enumerate(specs):
            one = run_ensemble(atom_model, spec, plus_x_state(), 1, start_index=m, **kw)
            assert_lane_equals(run, m, one)

    def test_spec_count_mismatch_raises(self, atom_model):
        with pytest.raises(ValueError, match="unravelings"):
            run_ensemble(
                atom_model, [Heterodyne()] * 2, plus_x_state(), n_traj=3,
                dt=1e-3, steps=5, seed=0,
            )

    @pytest.mark.parametrize("unraveling", [
        None, "heterodyne", (spec for spec in [Heterodyne()] * 2),
        np.array([Heterodyne(), Heterodyne()], dtype=object), [Heterodyne(), "heterodyne"],
    ], ids=["none", "string", "generator", "object-array", "list-with-string"])
    def test_bad_unraveling_is_named(self, atom_model, unraveling):
        # each once raised an unnamed AttributeError from inside the kernel
        with pytest.raises(ValueError, match="^unraveling must be"):
            run_ensemble(atom_model, unraveling, plus_x_state(), 2, 1e-3, 5, 0)

    def test_decay_ensemble_tracks_exponential(self, decay_model):
        # conditional averages must reproduce the deterministic evolution
        dt, steps, stride = 1e-3, 400, 40
        run = run_ensemble(
            decay_model, Heterodyne(), KET_EXCITED, n_traj=400, dt=dt,
            steps=steps, seed=8, record_stride=stride,
        )
        reference = integrate_master(decay_model, projector(KET_EXCITED), dt, steps)
        summary = ensemble_summary(
            run.times, run.states, reference[np.arange(0, steps, stride)]
        )
        assert summary.passed()

    def test_zero_trajectories_rejected(self, atom_model):
        with pytest.raises(ValueError, match="n_traj"):
            run_ensemble(
                atom_model, Heterodyne(), plus_x_state(), n_traj=0, dt=1e-3,
                steps=5, seed=0,
            )

    def test_negative_step_rejected(self, atom_model):
        with pytest.raises(ValueError, match="dt"):
            run_ensemble(
                atom_model, Heterodyne(), plus_x_state(), n_traj=2, dt=-1e-3,
                steps=5, seed=0,
            )

    def test_nan_step_rejected(self, atom_model):
        with pytest.raises(ValueError, match="dt"):
            run_ensemble(
                atom_model, Heterodyne(), plus_x_state(), n_traj=2, dt=float("nan"),
                steps=5, seed=0,
            )

    def test_non_finite_norm_trips_guard(self):
        # the first step overflows to inf, and renormalizing gives NaN
        model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=(SIGMA_MINUS,))
        with pytest.raises(NormCollapseError), np.errstate(all="ignore"):
            run_ensemble(
                model, Heterodyne(), plus_x_state(), n_traj=2, dt=1e10, steps=3, seed=0
            )

    def test_norm_collapse_names_trajectory_step_and_time(self):
        # the overflow model above; inside the kernel the constant lane
        # (index 8) steps ahead of the state-dependent one, and both fail at
        # step 0, so the lowest failing index must be mapped back
        model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=(SIGMA_MINUS,))
        with pytest.raises(NormCollapseError) as info, np.errstate(all="ignore"):
            run_ensemble(
                model, [InvariantStateDep(1), Heterodyne()], plus_x_state(), n_traj=2,
                dt=1e10, steps=3, seed=0, start_index=7,
            )
        err = info.value
        assert (err.trajectory_index, err.step, err.t) == (7, 0, 0.0)
        assert "trajectory 7" in str(err)
        assert "step 0" in str(err)
        assert "t = 0" in str(err)
        # the fields survive the trip back from a worker process
        again = pickle.loads(pickle.dumps(err))
        assert (again.trajectory_index, again.step, again.t, str(again)) == (
            7, 0, 0.0, str(err)
        )

    def test_norm_collapse_crosses_the_pool(self, set_workers, pool_tasks):
        # the overflow model above, one lane per worker: both ranges fail at
        # step 0, and the error names the lowest failing trajectory
        model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=(SIGMA_MINUS,))
        set_workers(2)
        with pytest.raises(NormCollapseError) as info, np.errstate(all="ignore"):
            run_ensemble(
                model, [InvariantStateDep(1), Heterodyne()], plus_x_state(), n_traj=2,
                dt=1e10, steps=3, seed=0, start_index=7,
            )
        assert pool_tasks == [2]
        err = info.value
        assert (err.trajectory_index, err.step, err.t) == (7, 0, 0.0)
        assert "trajectory 7" in str(err)

    def test_distinct_constant_specs_one_per_lane(self, atom_model):
        # each constant spec object is resolved once per kernel call; lanes
        # holding different objects must still get their own u
        fixed = [FixedU(np.array([[0.15 * j * np.exp(0.7j * j)]])) for j in range(6)]
        homodyne = [Homodyne(eta=1.0, theta1=0.3), Homodyne(eta=1.0, theta1=-0.9)]
        plus, minus = InvariantStateDep(sign=1), InvariantStateDep(sign=-1)
        specs = [
            fixed[0], plus, fixed[1], homodyne[0], fixed[2], minus, fixed[3],
            plus, homodyne[1], fixed[4], minus, fixed[0], fixed[5], plus,
        ]
        kw = dict(dt=1e-3, steps=NOISE_BLOCK + 16, seed=8, record_stride=3)
        run = run_ensemble(atom_model, specs, plus_x_state(), n_traj=len(specs), **kw)
        for lane, spec in enumerate(specs):
            one = run_ensemble(atom_model, spec, plus_x_state(), 1, start_index=lane, **kw)
            assert_lane_equals(run, lane, one)


def kernel_specs(model, rng):
    """One specification of every kind valid for ``model``."""
    k = model.num_lindblads
    trace_norm = spectral_norm(u_trace(model, 1.0))
    specs = [
        Heterodyne(),
        FixedU(random_symmetric_u(rng, k, 0.7)),
        InvariantStateDep(sign=1),
        InvariantStateDep(sign=-1),
        InvariantTrace(weight=0.9 / trace_norm if trace_norm else 0.0),
    ]
    if k == 1:
        specs.append(Homodyne(eta=0.3, theta1=0.4, theta2=-1.1))
    return specs


def trace_free(model):
    """The presentation of ``model`` the kernel steps, written out: each
    channel less ``t_k = Tr c_k / N``, the Hamiltonian compensated by
    ``(i/2) sum_k (t_k^* c_k - t_k c_k^dag)`` and then made traceless."""
    n, eye = model.dim, np.eye(model.dim)
    ts = [np.trace(c) / n for c in model.lindblads]
    h = model.hamiltonian + 0.5j * sum(
        (t.conjugate() * c - t * c.conj().T for t, c in zip(ts, model.lindblads)),
        np.zeros((n, n)),
    )
    h = h - np.trace(h).real / n * eye
    return LindbladModel(h, tuple(c - t * eye for t, c in zip(ts, model.lindblads)))


def assert_rows_follow_reference_stepper(model, spec, run, lane, dt):
    """Each step of a stride-1 run's ``lane`` is one reference
    ``step_linear`` step of the trace-free presentation from the row before,
    with the reference's own state-dependent ``u``, the last one ending on
    the final state; each current is that of the caller's channels."""
    free = trace_free(model)
    states = [*run.states[lane], run.final[lane]]
    for i, (dxi, current) in enumerate(zip(run.increments[lane], run.currents[lane])):
        u = reference_u(model, spec, states[i])
        new, _ = step_linear(free, u, states[i], dxi, dt)
        want = expected_current(model, u, states[i]) + dxi / dt
        np.testing.assert_allclose(new, states[i + 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(want, current, rtol=0, atol=1e-12)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("dim,channels", [(2, 1), (3, 2), (4, 3)])
    def test_one_step_agreement(self, dim, channels):
        rng = np.random.default_rng(100 * dim + channels)
        model = random_model(rng, dim, channels)
        initial = random_state(rng, dim)
        dt = 1e-3
        for index, spec in enumerate(kernel_specs(model, rng)):
            run = run_ensemble(model, spec, initial, 1, dt, 30, 4, start_index=index)
            assert_rows_follow_reference_stepper(model, spec, run, 0, dt)

    def test_one_step_agreement_mixed_batch(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 2)
        initial = random_state(rng, 3)
        specs = kernel_specs(model, rng)
        dt = 1e-3
        run = run_ensemble(model, specs, initial, len(specs), dt, 30, 6)
        for m, spec in enumerate(specs):
            assert_rows_follow_reference_stepper(model, spec, run, m, dt)

    @pytest.mark.parametrize("dim,channels", [(2, 1), (4, 3), (8, 2), (24, 1)])
    def test_lane_is_independent_of_batch_width(self, dim, channels):
        rng = np.random.default_rng(dim + channels)
        model = random_model(rng, dim, channels)
        initial = random_state(rng, dim)
        pool = kernel_specs(model, rng)
        mixed = [pool[i % len(pool)] for i in range(300)]
        kw = dict(dt=1e-3, steps=40, seed=12, record_stride=3)
        for specs in (mixed, [InvariantStateDep(sign=1)] * 300):
            wide = run_ensemble(model, specs, initial, n_traj=300, **kw)
            five = run_ensemble(model, specs[:5], initial, n_traj=5, **kw)
            for lane in (0, 3, 4, 299):
                one = run_ensemble(model, specs[lane], initial, 1, start_index=lane, **kw)
                assert_lane_equals(wide, lane, one)
                if lane < 5:
                    assert_lane_equals(five, lane, one)

    def test_lane_is_independent_of_chunk_boundary(self, set_workers):
        # lanes CHUNK - 1 and CHUNK run in different kernel calls, the last
        # of width 3, for a model below the BLAS cut-off and one above it
        assert BLAS_MIN_DIM <= 8
        set_workers(1)
        for dim, channels in ((2, 1), (8, 2)):
            rng = np.random.default_rng(9)
            model = random_model(rng, dim, channels)
            initial = random_state(rng, dim)
            pool = kernel_specs(model, rng)
            n_traj = CHUNK + 3
            mixed = [pool[i % len(pool)] for i in range(n_traj)]
            kw = dict(dt=1e-3, steps=12, seed=5, record_stride=2)
            for specs in (mixed, [InvariantStateDep(sign=1)] * n_traj, [Heterodyne()] * n_traj):
                run = run_ensemble(model, specs, initial, n_traj=n_traj, **kw)
                for lane in (CHUNK - 1, CHUNK, CHUNK + 2):
                    one = run_ensemble(model, specs[lane], initial, 1, start_index=lane, **kw)
                    assert_lane_equals(run, lane, one)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_resolve_is_the_kernels_width_one_u(self, monkeypatch, sign):
        # InvariantStateDep.resolve is the kernel's formula at width 1: above
        # the BLAS cut-off both take the padded product, the kernel on its
        # (K+1)-operator stack and resolve on the channels alone, and
        # resolve's extremal_u draws no normals
        rng = np.random.default_rng(30 + sign)
        dim = BLAS_MIN_DIM + 1
        model = random_model(rng, dim, 3)
        seen = []

        def kernel_u(*args, **kwargs):
            u, dxi = extremal_u(*args, **kwargs)
            seen.append(u[..., 0].copy())
            return u, dxi

        monkeypatch.setattr(trajectory, "extremal_u", kernel_u)
        spec = InvariantStateDep(sign=sign)
        run = run_ensemble(model, spec, random_state(rng, dim), 1, dt=1e-3, steps=25, seed=2)
        assert len(seen) == 25
        for psi, u in zip(run.states[0], seen):
            assert np.array_equal(spec.resolve(model, psi), u)

    def test_single_channel_noise_mapping(self, atom_model):
        # the pinned-seed gates rest on this exact map from the stream's
        # normals to the increments
        dt = 1e-3
        steps = NOISE_BLOCK + 5
        specs = (Heterodyne(), FixedU(np.array([[0.3 + 0.4j]])), Homodyne(0.25, 0.7, -0.2))
        for index, spec in enumerate(specs):
            run = run_ensemble(
                atom_model, spec, plus_x_state(), 1, dt, steps, 3, start_index=index
            )
            z = trajectory_stream(3, index).standard_normal((steps, 2))
            u = complex(spec.resolve(atom_model)[0, 0])
            want = colored_increment(u, dt, z[:, 0], z[:, 1])
            np.testing.assert_array_equal(run.increments[0, :, 0], want)

        spec = InvariantStateDep(sign=-1)
        run = run_ensemble(atom_model, spec, plus_x_state(), 1, dt, 200, 3, start_index=5)
        z = trajectory_stream(3, 5).standard_normal((200, 2))
        for i, psi in enumerate(run.states[0]):
            u = complex(InvariantStateDep(sign=-1).resolve(atom_model, psi)[0, 0])
            # |u| = 1 up to rounding eps (clamped like the package does when
            # above), and the frozen quadrature's amplitude sqrt(dt (1 - |u|) / 2)
            # turns that into ~sqrt(eps dt) ~ 5e-10
            want = colored_increment(u / max(abs(u), 1.0), dt, z[i, 0], z[i, 1])
            assert run.increments[0, i, 0] == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_coloured_stream_equals_kernel_increments(self, atom_model, channels):
        # the stream's normals for 2K per step, drawn as one block and
        # coloured by the run's factors, are the kernel's increments
        if channels == 1:
            model, u = atom_model, np.array([[0.3 + 0.4j]])
        else:
            rng = np.random.default_rng(11)
            model, u = random_model(rng, 4, 3), random_symmetric_u(rng, 3, 0.8)
        initial = np.eye(model.dim)[0].astype(complex)
        run = run_ensemble(model, FixedU(u), initial, n_traj=1, dt=1e-3, steps=200, seed=3)
        z = trajectory_stream(3, 0).standard_normal((200, 2 * channels))
        draws = apply_color(color_factors(u[..., None], 1e-3), z.T)
        assert np.array_equal(draws.T, run.increments[0])


class TestSuppliedIncrements:
    @pytest.mark.parametrize("channels", [0, 1, 2, 3])
    def test_recorded_increments_reproduce_the_run(self, channels):
        rng = np.random.default_rng(60 + channels)
        model = random_model(rng, 3, channels)
        initial = random_state(rng, 3)
        for index, spec in enumerate(kernel_specs(model, rng)):
            kw = dict(n_traj=1, dt=1e-3, steps=NOISE_BLOCK + 9, seed=8, start_index=index)
            run = run_ensemble(model, spec, initial, **kw)
            replay = run_ensemble(model, spec, initial, increments=run.increments, **kw)
            for name in RECORDS:
                assert np.array_equal(getattr(replay, name), getattr(run, name)), (spec, name)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_supplied_increments_reproduce_a_mixed_batch(self, channels, set_workers):
        # the state-dependent lanes run after the constant ones inside the
        # kernel, so the supplied rows must follow their lanes there
        rng = np.random.default_rng(70 + channels)
        model = random_model(rng, 3, channels)
        initial = random_state(rng, 3)
        pool = kernel_specs(model, rng)
        specs = [pool[(3 * i) % len(pool)] for i in range(11)]
        kw = dict(dt=1e-3, steps=NOISE_BLOCK + 3, seed=4, start_index=2)
        set_workers(1)
        drawn = run_ensemble(model, specs, initial, 11, **kw)
        # in one kernel call, and sliced over three index ranges
        for workers in (1, 3):
            set_workers(workers)
            replay = run_ensemble(model, specs, initial, 11, increments=drawn.increments, **kw)
            assert replay.lane_ranges == workers
            for name in RECORDS:
                assert np.array_equal(getattr(replay, name), getattr(drawn, name)), name
        # the states after the last step come back in the order of specs
        for lane in (0, 4, 10):
            one = run_ensemble(
                model, specs[lane], initial, 1, increments=drawn.increments[lane : lane + 1], **kw
            )
            assert np.array_equal(one.final[0], drawn.final[lane])


def range_records(first, times, states, currents):
    """A per-range function for run_ensemble: the records it was handed."""
    return first, times, states, currents


class TestPerRange:
    def test_records_stay_with_the_range_and_come_back_in_order(self, atom_model, set_workers):
        kw = dict(
            model=atom_model, unraveling=Homodyne(0.6, 0.3), initial=plus_x_state(),
            n_traj=7, dt=1e-3, steps=20, seed=2, record_stride=3, start_index=5,
        )
        set_workers(1)
        whole = run_ensemble(**kw)
        for workers, firsts in ((1, [5]), (3, [5, 8, 11])):
            set_workers(workers)
            run = run_ensemble(per_range=range_records, **kw)
            assert run.states is None and run.currents is None
            assert run.increments is None and run.final is None
            assert (run.workers, run.lane_ranges) == (workers, workers)
            assert [r[0] for r in run.range_results] == firsts
            states = np.concatenate([r[2] for r in run.range_results])
            currents = np.concatenate([r[3] for r in run.range_results])
            assert np.array_equal(states, whole.states)
            assert np.array_equal(currents, whole.currents)
            assert all(np.array_equal(r[1], whole.times) for r in run.range_results)

    def test_ensemble_ranges_keep_no_increments(self):
        # handed to per_range, a range's records are the default run's, and
        # its peak memory is lower by the increments it never allocates
        rng = np.random.default_rng(3)
        model = random_model(rng, 4, 3)
        shared = (model, random_state(rng, 4), 1e-3, 500, 1, 1)
        lanes = (0, [Heterodyne()] * 64, None)
        outs, peaks = [], []
        tracemalloc.start()
        try:
            for per_range in (None, range_records):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                outs.append(_run_chunk(*shared, per_range, lanes))
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        full, (times, (first, _, states, currents)) = outs
        assert first == 0 and np.array_equal(times, full.times)
        assert np.array_equal(states, full.states)
        assert np.array_equal(currents, full.currents)
        assert full.increments.shape == (64, 500, 3)
        assert peaks[0] - peaks[1] == pytest.approx(full.increments.nbytes, rel=0.02)

    def test_caller_holds_about_one_range_at_a_time(self, atom_model, monkeypatch):
        # besides the result, stitching 8 ranges in this process holds about
        # one range at a time (1.2 measured; a zip over the ranges held 2.2)
        monkeypatch.setenv("UNRAVEL_THREADS", "1")
        monkeypatch.setattr(trajectory, "CHUNK", 64)
        args = (atom_model, InvariantStateDep(sign=1), plus_x_state())
        run_ensemble(*args, 2, 1e-3, 5, 0)  # numpy's lazy imports load outside the trace
        tracemalloc.start()
        try:
            run = run_ensemble(*args, 512, 1e-3, 400, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.lane_ranges == 8
        result = sum(getattr(run, name).nbytes for name in RECORDS)
        assert peak <= result + 1.5 * result / run.lane_ranges


class TestStateDependentManyChannels:
    def test_lane_below_moment_floor_draws_uncorrelated_noise(self):
        # c_k = |0><k| annihilate |0>, and a diagonal H keeps the state
        # there, so the moments vanish at every step and u falls back to 0
        dim, dt, steps, seed, index = 4, 1e-3, NOISE_BLOCK + 10, 5, 2
        lindblads = []
        for k in range(1, dim):
            c = np.zeros((dim, dim), dtype=complex)
            c[0, k] = 1.0
            lindblads.append(c)
        model = LindbladModel(hamiltonian=np.diag([0.0, 1.0, 2.0, 3.0]), lindblads=tuple(lindblads))
        initial = np.eye(dim)[0].astype(complex)
        run = run_ensemble(
            model, InvariantStateDep(1), initial, 1, dt, steps, seed, start_index=index
        )
        assert np.abs(run.states[0, :, 1:]).max() == 0.0
        z = trajectory_stream(seed, index).standard_normal((steps, 6))
        draws = apply_color(color_factors(np.zeros((3, 3, 1)), dt), z.T)
        assert np.array_equal(draws.T, run.increments[0])


class TestDeadLanes:
    # Where the centered moments vanish, u = 0 and an InvariantStateDep lane
    # colours its normals as a Heterodyne lane with the same stream does.
    MIXED = (Heterodyne(), InvariantStateDep(1), Heterodyne(), InvariantStateDep(-1))

    def test_atom_from_the_ground_state_starts_heterodyne(self, atom_model):
        # sigma_minus annihilates the ground state, so M = 0 at step 0 only
        args = (KET_GROUND, 4, 1e-3, 3, 7)
        want = run_ensemble(atom_model, Heterodyne(), *args).increments[:, 0]
        got = run_ensemble(atom_model, list(self.MIXED), *args).increments[:, 0]
        assert np.array_equal(got, want)
        for sign in (1, -1):
            alone = run_ensemble(atom_model, InvariantStateDep(sign), *args).increments[:, 0]
            assert np.array_equal(alone, want)

    def test_diagonal_channels_keep_every_step_heterodyne(self):
        # diagonal H and channels keep basis state 0 up to a phase, so M stays 0
        rng = np.random.default_rng(17)
        diagonals = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        model = LindbladModel(
            hamiltonian=np.diag(rng.standard_normal(4)),
            lindblads=tuple(np.diag(d) for d in diagonals),
        )
        args = (np.eye(4)[0].astype(complex), 4, 1e-3, NOISE_BLOCK + 10, 5)
        want = run_ensemble(model, Heterodyne(), *args)
        for spec in (list(self.MIXED), InvariantStateDep(1), InvariantStateDep(-1)):
            run = run_ensemble(model, spec, *args)
            assert np.array_equal(run.increments, want.increments)
            assert np.array_equal(run.states, want.states)


class TestStreams:
    def test_streams_differ_by_index(self):
        a = trajectory_stream(0, 0).standard_normal(4)
        b = trajectory_stream(0, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_streams_reproducible(self):
        a = trajectory_stream(42, 7).standard_normal(4)
        b = trajectory_stream(42, 7).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        from unravel.trajectory import default_workers

        monkeypatch.setenv("UNRAVEL_THREADS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("UNRAVEL_THREADS")
        assert default_workers() == len(os.sched_getaffinity(0))
        # zero, negatives, fractions and words are no worker count
        for raw in ("0", "-1", "2.5", "1.5", "abc"):
            monkeypatch.setenv("UNRAVEL_THREADS", raw)
            with pytest.raises(ValueError, match="UNRAVEL_THREADS must be a positive integer"):
                default_workers()
