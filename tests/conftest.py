"""Shared fixtures for the test suite, and the random instances it draws,
which are the self-checks' own (``unravel.verify``)."""

import numpy as np
import pytest

from unravel import AtomParams, build_atom
from unravel.verify import (  # noqa: F401  (the random instances the tests draw)
    _random_model as random_model,
    _random_state as random_state,
    _random_symmetric as random_symmetric_u,
    _random_unitary as random_unitary,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def atom_params():
    return AtomParams(gamma=1.0, omega=10.0)


@pytest.fixture
def atom_model(atom_params):
    return build_atom(atom_params)


@pytest.fixture
def decay_model():
    """Pure decay: no Hamiltonian, one lowering channel at unit rate."""
    return build_atom(AtomParams(gamma=1.0, omega=0.0))
