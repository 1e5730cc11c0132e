"""Tests for model containers, validation, and channel transformations."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unravel import (
    LindbladModel,
    liouvillian_apply,
    plus_x_state,
    projector,
    rotate_lindblads,
    shift_lindblads,
    transition_rate,
)
from unravel.fluorescence import KET_EXCITED, KET_GROUND, SIGMA_MINUS, SIGMA_Z
from unravel.operators import (
    check_density_matrix,
    check_pure_state,
    matrix_from_pairs,
    matrix_to_pairs,
    transition_rate_operator,
)
from conftest import random_model, random_state, random_unitary
from linear_reference import expectation


class TestValidation:
    def test_pure_state_accepts_normalized_vector(self):
        psi = check_pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert psi.dtype == complex
        assert psi.shape == (2,)

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            check_pure_state([1.0, 1.0])

    def test_pure_state_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            check_pure_state([1.0, 0.0], dim=3)

    def test_pure_state_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            check_pure_state(np.eye(2))

    def test_pure_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            check_pure_state([np.nan, 0.0])

    def test_density_matrix_accepts_maximally_mixed(self):
        rho = check_density_matrix(np.eye(2) / 2)
        assert rho.shape == (2, 2)

    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            check_density_matrix([[0.5, 0.1], [0.3, 0.5]])

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        bad = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(ValueError):
            check_density_matrix(bad)

    def test_model_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            LindbladModel(
                hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]),
                lindblads=(SIGMA_MINUS,),
            )

    def test_model_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LindbladModel(hamiltonian=np.eye(2), lindblads=(np.eye(3),))

    def test_model_rejects_dependent_lindblads(self):
        # identity plus opposite shifts of the same operator: the span of
        # {1, c_1, c_2} has rank 2, not 3
        c = SIGMA_MINUS
        with pytest.raises(ValueError):
            LindbladModel(
                hamiltonian=np.zeros((2, 2)),
                lindblads=(c + np.eye(2), c - np.eye(2), c),
            )

    def test_model_rejects_identity_channel(self):
        with pytest.raises(ValueError):
            LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(np.eye(2),))

    def test_model_accepts_weak_channels(self):
        # rates near 1e-9 and 1e-8: weak, but independent of the identity
        for c in (3e-5 * SIGMA_Z, 1e-4 * SIGMA_MINUS):
            assert LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(c,)).num_lindblads == 1

    @pytest.mark.parametrize(
        "lindblads",
        [(SIGMA_MINUS, 2.0 * SIGMA_MINUS), (np.zeros((2, 2)),), (0.3j * np.eye(2),)],
        ids=["double", "zero", "multiple-of-identity"],
    )
    def test_model_rejects_dependent_channels_at_any_scale(self, lindblads):
        with pytest.raises(ValueError, match="linearly dependent"):
            LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=lindblads)

    def test_model_allows_zero_channels(self):
        model = LindbladModel(hamiltonian=SIGMA_Z, lindblads=())
        assert model.num_lindblads == 0
        assert model.dim == 2


class TestSerialization:
    def test_pairs_round_trip(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = matrix_from_pairs(matrix_to_pairs(m))
        np.testing.assert_array_equal(back, m)

    def test_pairs_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            matrix_from_pairs([[[1.0, 0.0, 0.0]]])

    def test_model_json_round_trip(self, rng):
        model = random_model(rng, 3, 2)
        back = LindbladModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_allclose(back.hamiltonian, model.hamiltonian, atol=1e-15)
        assert back.num_lindblads == model.num_lindblads
        for c_back, c_orig in zip(back.lindblads, model.lindblads):
            np.testing.assert_allclose(c_back, c_orig, atol=1e-15)

    def test_model_dict_has_dimension(self, atom_model):
        data = atom_model.to_dict()
        assert data["dim"] == 2
        assert len(data["lindblads"]) == 1

    def test_model_dict_rejects_non_integral_dimension(self, atom_model):
        with pytest.raises(ValueError, match="declared dim 2.7"):
            LindbladModel.from_dict({**atom_model.to_dict(), "dim": 2.7})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hamiltonian", [[[0.0, 0.0], [True, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]),
            ("hamiltonian", [[[0.0, 0.0], ["1", 0.0]], [[1.0, 0.0], [0.0, 0.0]]]),
            ("lindblads", [[[[0.0, 0.0], [0.0, 0.0]], [[True, 0.0], [0.0, 0.0]]]]),
            ("lindblads", [[[[0.0, 0.0], [0.0, 0.0]], [["1", 0.0], [0.0, 0.0]]]]),
        ],
        ids=["hamiltonian-true", "hamiltonian-string", "lindblads-true", "lindblads-string"],
    )
    def test_model_dict_names_a_value_that_is_not_a_number(self, atom_model, field, value):
        # float() and numpy read true as 1 and "1" as 1
        with pytest.raises(ValueError, match=f"{field}.* must hold numbers"):
            LindbladModel.from_dict({**atom_model.to_dict(), field: value})

    def test_true_is_not_a_dimension(self):
        # true == 1, so with a 1x1 Hamiltonian the shape check would take it
        with pytest.raises(ValueError, match="dim of the model must hold numbers"):
            LindbladModel.from_dict({"dim": True, "hamiltonian": [[[1.0, 0.0]]]})

    def test_model_dict_rejects_unknown_fields(self, atom_model):
        with pytest.raises(ValueError, match="takes no field lindblad, omega"):
            LindbladModel.from_dict({**atom_model.to_dict(), "lindblad": [], "omega": 1.0})


class TestExpectation:
    def test_vector_and_projector_agree(self, rng):
        psi = random_state(rng, 4)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert expectation(op, psi) == pytest.approx(
            expectation(op, projector(psi)), abs=1e-12
        )

    def test_sigma_z_on_basis_states(self):
        assert expectation(SIGMA_Z, KET_EXCITED) == pytest.approx(1.0)
        assert expectation(SIGMA_Z, KET_GROUND) == pytest.approx(-1.0)


class TestLiouvillian:
    def test_pure_decay_of_excited_state(self, decay_model):
        got = liouvillian_apply(decay_model, projector(KET_EXCITED))
        want = projector(KET_GROUND) - projector(KET_EXCITED)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_maximally_mixed_state_relaxes_down(self, atom_model):
        # identity commutes with the drive, so only the damping term acts
        got = liouvillian_apply(atom_model, np.eye(2) / 2)
        np.testing.assert_allclose(got, -0.5 * SIGMA_Z, atol=1e-14)

    def test_trace_is_preserved(self, rng):
        model = random_model(rng, 4, 3)
        rho = projector(random_state(rng, 4))
        drho = liouvillian_apply(model, rho)
        assert abs(np.trace(drho)) < 1e-12


class TestChannelTransformations:
    def test_rotation_leaves_liouvillian_unchanged(self, rng):
        model = random_model(rng, 3, 2)
        t_mat = random_unitary(rng, 2)
        rotated = rotate_lindblads(model, t_mat)
        rho = projector(random_state(rng, 3))
        np.testing.assert_allclose(
            liouvillian_apply(rotated, rho),
            liouvillian_apply(model, rho),
            atol=1e-12,
        )

    def test_rotation_rejects_nonunitary(self, atom_model):
        with pytest.raises(ValueError, match="unitary"):
            rotate_lindblads(atom_model, np.array([[2.0]]))

    # a channel-free model's only remix (T is 0 x 0) and shift leave it as it is
    @pytest.mark.parametrize(
        "transform, arg",
        [(rotate_lindblads, np.zeros((0, 0))), (shift_lindblads, np.zeros(0))],
        ids=["rotate", "shift"],
    )
    def test_channel_free_model_transforms_to_itself(self, transform, arg):
        model = LindbladModel(hamiltonian=SIGMA_Z)
        out = transform(model, arg)
        assert out.num_lindblads == 0
        np.testing.assert_array_equal(out.hamiltonian, model.hamiltonian)

    def test_shift_leaves_liouvillian_unchanged(self, rng):
        model = random_model(rng, 3, 2)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        shifted = shift_lindblads(model, chi)
        rho = projector(random_state(rng, 3))
        np.testing.assert_allclose(
            liouvillian_apply(shifted, rho),
            liouvillian_apply(model, rho),
            atol=1e-12,
        )

    def test_shift_offsets_channels_and_hamiltonian(self, decay_model):
        shifted = shift_lindblads(decay_model, [0.5 + 0.25j])
        np.testing.assert_allclose(
            shifted.lindblads[0], SIGMA_MINUS + (0.5 + 0.25j) * np.eye(2), atol=1e-15
        )
        assert not np.allclose(shifted.hamiltonian, decay_model.hamiltonian)

    def test_centered_rates_are_shift_invariant(self, rng):
        model = random_model(rng, 3, 2)
        psi = random_state(rng, 3)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        shifted = shift_lindblads(model, chi)
        np.testing.assert_allclose(
            transition_rate_operator(shifted, psi),
            transition_rate_operator(model, psi),
            atol=1e-12,
        )
        assert transition_rate(shifted, psi) == pytest.approx(
            transition_rate(model, psi), abs=1e-12
        )


class TestTransitionRate:
    def test_excited_state_rate_operator(self, decay_model):
        got = transition_rate_operator(decay_model, KET_EXCITED)
        np.testing.assert_allclose(got, projector(KET_GROUND), atol=1e-14)

    def test_plus_x_rate_value(self, decay_model):
        assert transition_rate(decay_model, plus_x_state()) == pytest.approx(0.25)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_rate_is_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 3, 2)
        psi = random_state(rng, 3)
        assert transition_rate(model, psi) >= -1e-12

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_rate_equals_operator_trace(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, 2)
        psi = random_state(rng, 4)
        # the rate is the trace of W, a sum of variances of the channels
        rate = sum(
            expectation(c.conj().T @ c, psi).real - abs(expectation(c, psi)) ** 2
            for c in model.lindblads
        )
        assert transition_rate(model, psi) == pytest.approx(rate, abs=1e-12)
