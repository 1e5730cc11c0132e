"""Tests for correlation-matrix validation, sampling, and scheme resolution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unravel import (
    CovarianceError,
    FixedU,
    Heterodyne,
    Homodyne,
    InvariantStateDep,
    InvariantTrace,
    LindbladModel,
    homodyne_u,
    is_valid_u,
    plus_x_state,
    real_embedding,
    rotate_lindblads,
    sample_increments,
    spec_from_dict,
    spectral_norm,
    validate_u,
)
from unravel.fluorescence import SIGMA_X, SIGMA_Z
from unravel.unravelings import (
    AsymmetricUMatrixError,
    MOMENT_FLOOR,
    NormExceededError,
    apply_color,
    centered_moments,
    color_factors,
    extremal_u,
    moment_pairs,
    takagi,
    u_trace,
)
from conftest import random_model, random_state, random_symmetric_u, random_unitary
from linear_reference import state_moments


def package_moments(model, states):
    """``centered_moments`` of the given states, lane-first."""
    psi = np.stack(states, axis=1)
    cs = np.array(model.lindblads, dtype=complex)
    means = np.einsum("am,kam->km", psi.conj(), np.einsum("kab,bm->kam", cs, psi))
    pairs = np.einsum("am,jlab,bm->jlm", psi.conj(), moment_pairs(cs), psi)
    return centered_moments(pairs, means).transpose(2, 0, 1)


def one_shot_increments(u, z, dt):
    """The colouring written as one expression, refactoring u at each call:
    ``u`` ``(K, K, ...)`` and ``z`` ``(2K, ...)`` give ``(K, ...)``."""
    a = np.asarray(u, dtype=complex)
    k = a.shape[0]
    if k == 1:
        r = np.abs(a[0, 0])
        # the principal root of the unit phase u / |u|, and 1 at u = 0
        unit = np.ones_like(a[0, 0])
        unit.real[r > 0] = a[0, 0].real[r > 0] / r[r > 0]
        unit.imag[r > 0] = a[0, 0].imag[r > 0] / r[r > 0]
        half = np.sqrt(unit)
        lam_minus = np.maximum(dt * (1.0 - r) / 2.0, 0.0)
        val = half * (
            np.sqrt(dt * (1.0 + r) / 2.0) * z[0] + 1j * np.sqrt(lam_minus) * z[1]
        )
        return val[None]
    v, sigma = takagi(a)
    w = np.sqrt(dt * (1.0 + sigma) / 2.0) * z[:k] + 1j * np.sqrt(
        np.maximum(dt * (1.0 - sigma) / 2.0, 0.0)
    ) * z[k:]
    # the matrix product over the stack, matrix axes last
    v, w = np.moveaxis(v, (0, 1), (-2, -1)), np.moveaxis(w, 0, -1)
    return np.moveaxis((v @ w[..., None])[..., 0], -1, 0)


class TestValidation:
    def test_accepts_boundary_norm(self):
        u = validate_u([[1.0]])
        assert u.shape == (1, 1)

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricUMatrixError):
            validate_u([[0.0, 0.5], [0.2, 0.0]])

    def test_rejects_norm_above_one(self):
        with pytest.raises(NormExceededError) as info:
            validate_u([[1.5]])
        assert info.value.norm == pytest.approx(1.5)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_u(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            validate_u([[np.inf]])

    def test_is_valid_u_matches_validate(self, rng):
        assert is_valid_u(random_symmetric_u(rng, 3, 0.9))
        assert not is_valid_u(random_symmetric_u(rng, 3, 1.1))


class TestRealEmbedding:
    def test_fully_correlated_single_channel(self):
        dt = 0.25
        cov = real_embedding([[1.0]], dt)
        np.testing.assert_allclose(cov, [[dt, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_minimum_eigenvalue_tracks_spectral_norm(self, rng):
        # holds for any complex symmetric matrix, valid or not
        dt = 1e-3
        for norm in (0.0, 0.4, 1.0, 1.3):
            u = random_symmetric_u(rng, 3, norm)
            evals = np.linalg.eigvalsh(real_embedding(u, dt))
            want = dt * (1.0 - spectral_norm(u)) / 2.0
            assert evals.min() == pytest.approx(want, abs=1e-12)

    def test_embedding_is_symmetric(self, rng):
        u = random_symmetric_u(rng, 4, 0.7)
        cov = real_embedding(u, 1e-2)
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)


class TestSampling:
    def test_moments_match_request(self, rng):
        dt = 0.01
        u = random_symmetric_u(rng, 2, 0.8)
        n = 40000
        draws = np.array([sample_increments(u, dt, rng) for _ in range(n)])
        scale = dt / np.sqrt(n)
        np.testing.assert_allclose(
            draws.mean(axis=0), np.zeros(2), atol=6 * np.sqrt(dt / n)
        )
        np.testing.assert_allclose(
            np.einsum("nj,nk->jk", draws, draws.conj()) / n,
            dt * np.eye(2),
            atol=8 * scale,
        )
        np.testing.assert_allclose(
            np.einsum("nj,nk->jk", draws, draws) / n, dt * u, atol=8 * scale
        )

    def test_full_correlation_gives_real_increments(self, rng):
        for _ in range(50):
            dxi = sample_increments([[1.0]], 0.01, rng)
            assert dxi.imag[0] == 0.0

    def test_opposite_correlation_gives_imaginary_increments(self, rng):
        for _ in range(50):
            dxi = sample_increments([[-1.0]], 0.01, rng)
            assert abs(dxi.real[0]) < 1e-15

    def test_consumes_fixed_normal_count(self, rng):
        # generator state after sampling K channels == after 2K raw normals
        u = random_symmetric_u(rng, 3, 0.5)
        g1 = np.random.default_rng(7)
        g2 = np.random.default_rng(7)
        sample_increments(u, 1e-3, g1)
        g2.standard_normal(6)
        assert g1.standard_normal() == g2.standard_normal()

    def test_zero_channels_give_no_increments(self, rng):
        dxi = sample_increments(np.zeros((0, 0)), 1e-3, rng)
        assert dxi.shape == (0,) and dxi.dtype == complex

    def test_rejects_invalid_covariance(self, rng):
        with pytest.raises(CovarianceError):
            sample_increments([[1.5]], 1e-3, rng)


class TestFactoredColoring:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("norm", [0.0, 0.7, 1.0])
    def test_factors_applied_per_block_equal_one_shot(self, channels, norm):
        # Stacks throughout: numpy scalars take another arithmetic path than
        # arrays, and the kernel only ever colours arrays.
        rng = np.random.default_rng(31 + channels)
        dt = 1e-3
        # three u, each colouring a block of five steps of normals
        us = np.stack([random_symmetric_u(rng, channels, norm) for _ in range(3)], axis=-1)
        z = np.moveaxis(rng.standard_normal((3, 5, 2 * channels)), -1, 0)
        factored = apply_color(color_factors(us[..., None], dt), z)
        assert factored.shape == (channels, 3, 5)

        def assert_matches_reference(got, want):
            if channels == 1:
                assert np.array_equal(got, want)
            else:  # apply_color sums in another order than the matrix product
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

        assert_matches_reference(factored, one_shot_increments(us[..., None], z, dt))
        for j in range(5):
            want = one_shot_increments(us, z[..., j], dt)
            assert_matches_reference(factored[..., j], want)
            assert_matches_reference(apply_color(color_factors(us, dt), z[..., j]), want)
            assert_matches_reference(
                apply_color(color_factors(us[..., 1:2], dt), z[:, 1:2, j]), want[:, 1:2]
            )

    def test_wide_and_narrow_stacks_colour_alike(self, rng):
        # a lane's bits depend neither on the size of the stack nor on its
        # layout
        dt = 1e-3
        us = np.stack([random_symmetric_u(rng, 3, 0.9) for _ in range(4)], axis=-1)
        factors = color_factors(us, dt)
        per_row = tuple(f[..., None, :] for f in factors)
        rows = 342
        # components last in memory, the layout the stream draws come in
        z = np.moveaxis(rng.standard_normal((rows, 4, 6)), -1, 0)
        wide = apply_color(per_row, z)
        lanes_last = np.ascontiguousarray(z)
        out = np.empty((rows, 4, 3), dtype=complex)
        apply_color(per_row, lanes_last, out=np.moveaxis(out, -1, 0))
        assert np.array_equal(np.moveaxis(out, -1, 0), wide)
        for row in (0, 17, rows - 1):
            assert np.array_equal(apply_color(factors, z[:, row]), wide[:, row])
            for lane in range(4):
                one = tuple(f[..., lane : lane + 1] for f in factors)
                assert np.array_equal(
                    apply_color(one, z[:, row, lane][:, None])[:, 0], wide[:, row, lane]
                )

    @pytest.mark.parametrize("sigma", [[0.3], [1.0, 0.5], [0.9, 0.5, 0.1], [0.7, 0.6, 0.3, 0.2]])
    def test_takagi_of_descending_diagonal_is_the_identity(self, sigma):
        # distinct positive singular values, largest first: V = I exactly, so
        # a diagonal u colours channel j by its own pair of normals
        v, s = takagi(np.diag(sigma).astype(complex))
        assert np.array_equal(v, np.eye(len(sigma)))
        assert np.array_equal(s, sigma)

    def test_clamp_check_runs_at_factor_time(self):
        with pytest.raises(CovarianceError):
            color_factors(np.array([[1.5]]), 1e-3)
        with pytest.raises(CovarianceError):
            color_factors(1.5 * np.eye(3), 1e-3)


class TestExtremalFactors:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_eigh_factors_colour_like_the_resolved_u(self, sign):
        # the eigenvectors may differ in sign or order from those of
        # color_factors, so the coloured normals are compared through their
        # covariance: colour each unit normal and form the Gram matrix
        rng = np.random.default_rng(40 + sign)
        model = random_model(rng, 4, 3)
        dt = 1e-3
        states = [random_state(rng, 4) for _ in range(5)]
        unit = np.eye(6)
        for psi in states:
            # six lanes of one state's moments, one unit normal each
            lanes = np.repeat(state_moments(model, psi)[..., None], 6, axis=-1)
            u, got = extremal_u(lanes, np.full(6, float(sign)), unit, dt)
            want_u = InvariantStateDep(sign).resolve(model, psi)
            np.testing.assert_allclose(u[..., 0], want_u, rtol=0, atol=1e-14)
            want = apply_color(color_factors(want_u[..., None], dt), unit)
            gram = [np.concatenate([x.real, x.imag]).T for x in (got, want)]
            np.testing.assert_allclose(
                gram[0].T @ gram[0], gram[1].T @ gram[1], rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                gram[0].T @ gram[0], real_embedding(want_u, dt), rtol=0, atol=1e-14
            )

    def test_below_the_moment_floor_the_factors_are_those_of_zero(self):
        moments = np.zeros((3, 3, 2), dtype=complex)
        moments[0, 0, 1] = 0.5 * MOMENT_FLOOR
        z = np.random.default_rng(5).standard_normal((2, 6)).T
        u, dxi = extremal_u(moments, np.array([1.0, -1.0]), z, 1e-3)
        assert np.array_equal(u, np.zeros((3, 3, 2)))
        zero = tuple(f[..., None] for f in color_factors(np.zeros((3, 3)), 1e-3))
        for lane in range(2):
            want = apply_color(zero, z[:, lane][:, None])[:, 0]
            assert np.array_equal(dxi[:, lane], want)

    def test_frozen_quadrature_is_exactly_silent(self):
        # ||u|| = 1, so one covariance eigenvalue is zero: u_00 = -1 freezes
        # the real part of the first increment
        moments = np.repeat(np.diag([1.0, 0.5, 0.2]).astype(complex)[..., None], 20, axis=-1)
        z = np.random.default_rng(6).standard_normal((20, 6)).T
        u, dxi = extremal_u(moments, np.full(20, -1.0), z, 1e-3)
        assert u[0, 0, 0] == -1.0
        assert np.array_equal(dxi.real[0], np.zeros(20))
        assert np.abs(dxi.imag[0]).min() > 0.0


class TestHomodyneU:
    def test_balanced_orthogonal_split_cancels(self):
        np.testing.assert_allclose(
            homodyne_u(0.5, 0.0, np.pi / 2), [[0.0]], atol=1e-15
        )

    def test_single_phase_has_unit_modulus(self):
        got = homodyne_u(1.0, 0.3, 1.7)[0, 0]
        assert got == pytest.approx(np.exp(0.6j))

    def test_rejects_eta_outside_range(self):
        with pytest.raises(ValueError, match="eta"):
            homodyne_u(1.2, 0.0, 0.0)

    @pytest.mark.parametrize("theta1, theta2", [(np.inf, 0.0), (0.0, np.nan), (-np.inf, 0.0)])
    def test_rejects_non_finite_phase(self, theta1, theta2):
        with pytest.raises(ValueError, match="phases must be finite"):
            homodyne_u(0.5, theta1, theta2)

    @given(
        eta=st.floats(min_value=0.0, max_value=1.0),
        theta1=st.floats(min_value=-10.0, max_value=10.0),
        theta2=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_valid(self, eta, theta1, theta2):
        assert is_valid_u(homodyne_u(eta, theta1, theta2))


class TestStateDependentU:
    def test_plus_x_moment(self, atom_model):
        got = package_moments(atom_model, [plus_x_state()])[0]
        np.testing.assert_allclose(got, [[-0.25]], atol=1e-14)
        np.testing.assert_allclose(state_moments(atom_model, plus_x_state()), got, atol=1e-14)

    def test_moments_match_the_per_state_reference(self, rng):
        model = random_model(rng, 4, 3)
        states = [random_state(rng, 4) for _ in range(6)]
        got = package_moments(model, states)
        for m, psi in zip(got, states):
            np.testing.assert_allclose(m, state_moments(model, psi), rtol=0, atol=1e-14)

    def test_transforms_congruently_under_remixing(self, rng):
        model = random_model(rng, 3, 2)
        psi = random_state(rng, 3)
        t_mat = random_unitary(rng, 2)
        rotated = rotate_lindblads(model, t_mat)
        np.testing.assert_allclose(
            package_moments(rotated, [psi])[0],
            t_mat @ package_moments(model, [psi])[0] @ t_mat.T,
            atol=1e-12,
        )
        # ||T M T^T|| = ||M||, so the extremal u transforms the same way
        for sign in (1, -1):
            spec = InvariantStateDep(sign)
            np.testing.assert_allclose(
                spec.resolve(rotated, psi),
                t_mat @ spec.resolve(model, psi) @ t_mat.T,
                atol=1e-12,
            )

    def test_result_is_symmetric(self, rng):
        model = random_model(rng, 4, 3)
        psi = random_state(rng, 4)
        m = package_moments(model, [psi])[0]
        np.testing.assert_allclose(m, m.T, atol=1e-14)
        u = InvariantStateDep(1).resolve(model, psi)
        np.testing.assert_allclose(u, u.T, atol=1e-14)

    def test_trace_variant_on_x_channel(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(SIGMA_X,))
        np.testing.assert_allclose(u_trace(model, 0.3), [[0.6]], atol=1e-14)


def z_channel_model(scale):
    """One channel ``scale * sigma_z``, whose +x moment is ``scale**2``."""
    return LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(scale * SIGMA_Z,))


class TestExtremalWeight:
    def test_inverse_norm(self, rng):
        # u / M is sign / ||M||: for K = 1 in closed form, for K = 2 from the
        # eigh, in the batched form and at width 1 in resolve
        for sign in (1, -1):
            signs = np.array([float(sign)])
            u, dxi = extremal_u(np.full((1, 1, 1), 2.0 + 0j), signs)
            assert dxi is None
            assert u[0, 0, 0] / 2.0 == pytest.approx(sign * 0.5)
            u = InvariantStateDep(sign).resolve(z_channel_model(np.sqrt(2.0)), plus_x_state())
            assert u[0, 0] / 2.0 == pytest.approx(sign * 0.5)
            model = random_model(rng, 3, 2)
            psi = random_state(rng, 3)
            m = package_moments(model, [psi])[0]
            want = sign / np.linalg.norm(m, 2) * m
            u, _ = extremal_u(m[..., None], signs)
            np.testing.assert_allclose(u[..., 0], want, rtol=0, atol=1e-14)
            got = InvariantStateDep(sign).resolve(model, psi)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_vanishing_moment_falls_back_to_zero(self):
        # at the excited state, an eigenstate of sigma_z, the moment is 0
        for sign in (1, -1):
            u = InvariantStateDep(sign).resolve(z_channel_model(1.0), np.array([1.0, 0.0]))
            assert np.array_equal(u, np.zeros((1, 1)))
        # at +x the moment of scale * sigma_z is scale**2: 9e-10 is below
        # the floor, 1.024e-9 above it (too small a channel for a model)
        assert 9e-10 < MOMENT_FLOOR < 1.024e-9
        psi = plus_x_state()[:, None]
        for scale, want in ((3e-5, 0.0), (3.2e-5, 1.0)):
            pairs = moment_pairs((scale * SIGMA_Z)[None])
            pair_means = np.einsum("am,jlab,bm->jlm", psi.conj(), pairs, psi)
            u, _ = extremal_u(centered_moments(pair_means, np.zeros((1, 1))), np.array([1.0]))
            np.testing.assert_allclose(u, [[[want]]], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("width", [1, 7])
    def test_u_without_normals_has_the_bits_of_u_with_them(self, k, width):
        # u comes from the same takagi(M) with or without normals;
        # in the wide stack the last lane lies below the moment floor
        rng = np.random.default_rng(10 * k + width)
        scale = rng.uniform(0.01, 2.0, width)
        if width > 1:
            scale[-1] = 0.5 * MOMENT_FLOOR
        moment = np.stack([c * random_symmetric_u(rng, k, 1.0) for c in scale], axis=-1)
        signs = rng.choice([1.0, -1.0], width)
        u, dxi = extremal_u(moment, signs)
        assert dxi is None
        z = rng.standard_normal((2 * k, width))
        assert np.array_equal(u, extremal_u(moment, signs, z, 1e-3)[0])

    def test_rejects_other_signs(self):
        for sign in (2, 0, -2):
            with pytest.raises(ValueError, match="sign"):
                InvariantStateDep(sign)


class TestSpecs:
    def test_fixed_rejects_invalid_matrix(self):
        with pytest.raises(NormExceededError):
            FixedU(np.array([[2.0]]))

    def test_heterodyne_resolves_to_zero(self, atom_model):
        np.testing.assert_array_equal(
            Heterodyne().resolve(atom_model), np.zeros((1, 1))
        )

    def test_homodyne_resolves_to_closed_form(self, atom_model):
        spec = Homodyne(eta=0.25, theta1=0.4, theta2=1.1)
        np.testing.assert_allclose(
            spec.resolve(atom_model), homodyne_u(0.25, 0.4, 1.1), atol=1e-15
        )

    def test_invariant_resolves_to_extremal_multiple(self, atom_model):
        got = InvariantStateDep(sign=1).resolve(atom_model, plus_x_state())
        np.testing.assert_allclose(got, [[-1.0]], atol=1e-12)

    def test_invariant_without_channels_resolves_to_empty(self):
        model = LindbladModel(hamiltonian=SIGMA_X, lindblads=())
        for sign in (1, -1):
            u = InvariantStateDep(sign).resolve(model, plus_x_state())
            assert u.shape == (0, 0)

    def test_invariant_opposite_sign_flips(self, atom_model):
        got = InvariantStateDep(sign=-1).resolve(atom_model, plus_x_state())
        np.testing.assert_allclose(got, [[1.0]], atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("kind", ["n3-k2", "atom", "no-channels"])
    def test_stacked_resolve_is_the_per_state_resolve(self, rng, atom_model, kind, sign):
        # one call over a (2, 3, N) stack gives each state the bits of its
        # own call; the atom's basis states lie below the moment floor
        model = {"n3-k2": random_model(rng, 3, 2), "atom": atom_model,
                 "no-channels": LindbladModel(hamiltonian=SIGMA_X, lindblads=())}[kind]
        states = np.array([random_state(rng, model.dim) for _ in range(6)])
        states[0] = np.eye(model.dim)[0]
        states = states.reshape(2, 3, model.dim)
        spec = InvariantStateDep(sign)
        got = spec.resolve(model, states)
        k = model.num_lindblads
        assert got.shape == (2, 3, k, k)
        want = np.array([[spec.resolve(model, psi) for psi in row] for row in states])
        assert got.tobytes() == want.reshape(got.shape).tobytes()
        if kind == "atom":
            assert np.array_equal(got[0, 0], np.zeros((1, 1)))
        with pytest.raises(ValueError, match="expected dimension"):
            spec.resolve(model, states[..., :1])

    def test_state_dependence_flags(self):
        assert InvariantStateDep().state_dependent
        assert not FixedU(np.zeros((1, 1))).state_dependent
        assert not Homodyne(eta=1.0, theta1=0.0).state_dependent
        assert not Heterodyne().state_dependent
        assert not InvariantTrace().state_dependent

    @pytest.mark.parametrize(
        "spec",
        [
            FixedU(np.array([[0.3 + 0.1j]])),
            Homodyne(eta=0.6, theta1=0.2, theta2=1.3),
            Heterodyne(),
            InvariantStateDep(sign=-1),
            InvariantTrace(weight=0.25),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_dict_round_trip(self, spec, atom_model):
        back = spec_from_dict(spec.to_dict())
        assert type(back) is type(spec)
        state = plus_x_state()
        np.testing.assert_allclose(
            back.resolve(atom_model, state), spec.resolve(atom_model, state), atol=1e-15
        )

    def test_spec_from_dict_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="type"):
            spec_from_dict({"type": "something-else"})

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"type": "homodyne", "eta": 0.5, "theta": 0.3}, "theta"),
            ({"type": "heterodyne", "eta": 0.5}, "eta"),
            ({"type": "invariant_trace", "weight": 0.2}, "weight"),
        ],
    )
    def test_spec_from_dict_rejects_fields_the_type_does_not_take(self, data, field):
        with pytest.raises(ValueError, match=f"takes no field {field}"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"type": "fixed"}, "unraveling type 'fixed' requires field u"),
            ({"type": "homodyne", "eta": None}, "unraveling type 'homodyne' field eta"),
            ({"type": "invariant_trace", "R": None}, "unraveling type 'invariant_trace' field R"),
            ({"type": "homodyne", "theta1": [1]}, "unraveling type 'homodyne' field theta1"),
            # float() reads true, false and "0.5" as numbers
            ({"type": "homodyne", "eta": True}, "unraveling type 'homodyne' field eta"),
            ({"type": "invariant_trace", "R": False}, "unraveling type 'invariant_trace' field R"),
            ({"type": "homodyne", "eta": "0.5"}, "unraveling type 'homodyne' field eta"),
            # numpy reads them too, inside a matrix
            ({"type": "fixed", "u": [[[True, False]]]}, "unraveling type 'fixed' field u"),
            ({"type": "fixed", "u": [[["0.5", "0"]]]}, "unraveling type 'fixed' field u"),
        ],
        ids=["fixed-no-u", "eta-null", "R-null", "theta1-list", "eta-true", "R-false",
             "eta-string", "u-true", "u-string"],
    )
    def test_spec_from_dict_names_a_missing_or_unreadable_field(self, data, message):
        with pytest.raises(ValueError, match=message):
            spec_from_dict(data)

    def test_spec_from_dict_rejects_non_integral_sign(self):
        with pytest.raises(ValueError, match="sign must be"):
            spec_from_dict({"type": "invariant", "sign": 1.5})

    def test_true_is_not_a_sign(self):
        # True == 1, so a membership test alone would take it
        with pytest.raises(ValueError, match="sign must be"):
            spec_from_dict({"type": "invariant", "sign": True})
        with pytest.raises(ValueError, match="sign must be"):
            InvariantStateDep(sign=True)

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("homodyne", Homodyne(eta=1.0, theta1=0.0, theta2=0.0)),
            ("invariant", InvariantStateDep(sign=1)),
            ("invariant_trace", InvariantTrace(weight=0.0)),
        ],
    )
    def test_spec_from_dict_defaults_are_the_cli_defaults(self, kind, expected):
        assert spec_from_dict({"type": kind}) == expected
