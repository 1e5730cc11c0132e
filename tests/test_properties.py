"""Property tests: malformed configurations, short random ensembles, the
colouring of degenerate correlation matrices, the lane stability of the
kernel's operator product and the shift invariance of the CLI's step check."""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from unravel import (
    FixedU,
    Heterodyne,
    Homodyne,
    InvariantStateDep,
    InvariantTrace,
    real_embedding,
    run_ensemble,
    shift_lindblads,
)
from unravel.cli import EXIT_CONFIG, _step_rate, main
from unravel.operators import BLAS_MIN_DIM, _stack_apply
from unravel.unravelings import (
    MOMENT_FLOOR,
    apply_color,
    color_factors,
    extremal_u,
    takagi,
    u_trace,
)
from conftest import random_model, random_state, random_symmetric_u, random_unitary

# Text that no float() or int() parses: no digit, and no letter of inf or nan.
WORDS = st.text(alphabet="abcxyz _-", max_size=4)
JUNK = st.one_of(
    WORDS, st.lists(st.integers(), max_size=2), st.dictionaries(WORDS, st.integers(), max_size=1)
)
HUGE = st.integers(min_value=10**309, max_value=10**400)
BAD_POSITIVE = st.one_of(
    st.floats(max_value=0.0), st.just(float("nan")), st.just(float("inf")), HUGE, JUNK
)
BAD_COUNT = st.one_of(
    st.integers(max_value=0),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    st.just(float("nan")),
    st.just(float("inf")),
    JUNK,
)
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def atom_model(dim=2, coupling=1.0) -> dict:
    """A driven-atom model object, for one of its numbers to be replaced."""
    return {
        "dim": dim,
        "hamiltonian": [[[0.0, 0.0], [coupling, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "lindblads": [[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
    }


BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["dt", "t_max", "gamma"]), BAD_POSITIVE),
    st.tuples(st.sampled_from(["n_traj", "record_stride"]), BAD_COUNT),
    st.tuples(st.just("seed"), st.one_of(st.integers(max_value=-1), JUNK)),
    st.tuples(st.just("omega"), st.one_of(st.floats(max_value=-1e-300), HUGE, WORDS)),
    st.tuples(
        st.just("initial"),
        st.one_of(
            JUNK,
            st.just([[0.0, 0.0], [0.0, 0.0]]),
            st.just([[float("nan"), 0.0], [1.0, 0.0]]),
            st.just([[1.0, 0.0], [float("inf"), 0.0]]),
            st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2), min_size=3, max_size=4),
        ),
    ),
    st.tuples(
        st.just("unraveling"),
        st.one_of(WORDS, st.dictionaries(WORDS, st.integers(), max_size=2)),
    ),
    st.tuples(
        st.just("model"),
        st.one_of(WORDS.map(lambda w: w + ".json"), st.dictionaries(WORDS, JUNK, max_size=2)),
    ),
    st.tuples(st.just("mode"), st.one_of(WORDS, st.none())),
    st.tuples(WORDS.map(lambda w: "unknown_" + w), st.integers()),
    # a JSON true or false, which float() and int() would read as 1 or 0
    st.tuples(
        st.sampled_from(["omega", "eta", "theta1", "theta2", "sign", "trace_r", "u_json"]),
        st.booleans(),
    ),
    st.tuples(st.just("initial"), st.booleans().map(lambda b: [[b, 0.0], [1.0, 0.0]])),
    st.tuples(
        st.just("unraveling"),
        st.one_of(
            st.booleans().map(lambda b: {"type": "fixed", "u": [[[b, 0.0]]]}),
            st.booleans().map(lambda b: {"type": "homodyne", "eta": b}),
            st.booleans().map(lambda b: {"type": "invariant", "sign": b}),
            st.tuples(st.sampled_from(["theta1", "theta2"]), NON_FINITE).map(
                lambda field: {"type": "homodyne", field[0]: field[1]}
            ),
            st.floats(-10, 10).filter(lambda x: x != int(x)).map(
                lambda sign: {"type": "invariant", "sign": sign}
            ),
        ),
    ),
    st.tuples(
        st.just("model"),
        st.one_of(
            st.booleans().map(lambda b: atom_model(coupling=b)),
            st.booleans().map(lambda b: atom_model(dim=b)),
        ),
    ),
    # a number given as a JSON string, which float() and int() would read
    st.tuples(
        st.sampled_from(["dt", "t_max", "gamma", "omega", "eta", "theta1", "theta2", "trace_r"]),
        st.sampled_from(["0.001", "1e-3", "0.5", "2"]),
    ),
    st.tuples(st.sampled_from(["n_traj", "seed", "record_stride"]), st.sampled_from(["1", "3"])),
    st.tuples(st.just("sign"), st.sampled_from(["1", "-1"])),
    st.tuples(st.just("initial"), st.just([["1.0", "0.0"], [0.0, 0.0]])),
    st.tuples(
        st.just("unraveling"),
        st.sampled_from([
            {"type": "fixed", "u": [[["0.5", 0.0]]]},
            {"type": "homodyne", "eta": "0.5"},
            {"type": "homodyne", "theta1": "0.3"},
            {"type": "invariant", "sign": "1"},
            {"type": "invariant_trace", "R": "0.1"},
        ]),
    ),
    st.tuples(
        st.just("model"), st.sampled_from([atom_model(coupling="1.0"), atom_model(dim="2")])
    ),
)
MODES = st.sampled_from(["trajectories", "ensemble-check", "figures", "verify"])


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mode=MODES, bad=st.lists(BAD_FIELDS, min_size=1, max_size=2))
def test_malformed_config_exits_2(tmp_path, capsys, mode, bad):
    # a small valid run, so a field that slips through fails fast
    config = {"mode": mode, "dt": 1e-3, "t_max": 0.01, "n_traj": 2,
              "output_dir": str(tmp_path / "out")}
    config.update(bad)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(bad=st.lists(BAD_FIELDS, min_size=1, max_size=2))
def test_malformed_figures_config_exits_2(tmp_path, capsys, bad):
    # figures rejects n_traj as such, so this valid base run leaves it out
    config = {"mode": "figures", "dt": 1e-3, "t_max": 0.01, "output_dir": str(tmp_path / "out")}
    config.update(bad)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _colour_covariance(dxi):
    """Covariance of (Re dxi, Im dxi) over the colourings of the 2K unit
    normals, one per column of ``dxi``."""
    x = np.concatenate([dxi.real, dxi.imag]).T
    return x.T @ x


# Singular values with zeros, repeats and ones among them.
SINGULAR = st.sampled_from([0.0, 0.0, 1.0, 0.5, 0.25]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(sigma=st.lists(SINGULAR, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
@example(sigma=[0.0], seed=0)
@example(sigma=[0.0, 0.0, 0.0], seed=1)
@example(sigma=[1.0, 0.0, 0.0, 0.0, 0.0], seed=2)
@example(sigma=[0.5, 0.5, 0.0, 0.0], seed=3)
@example(sigma=[2.2250738585e-313], seed=0)  # a subnormal u: its phase must stay unit
def test_degenerate_u_colours_exactly(sigma, seed):
    # u = W diag(sigma) W^T for Haar W; u = 0 when every sigma is 0
    k, dt = len(sigma), 1e-3
    w = random_unitary(np.random.default_rng(seed), k)
    u = w @ np.diag(sigma) @ w.T
    v, s = takagi(u)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(v @ np.diag(s) @ v.T, u, rtol=0, atol=1e-12)
    dxi = apply_color(color_factors(u[..., None], dt), np.eye(2 * k))
    np.testing.assert_allclose(
        _colour_covariance(dxi), real_embedding(u, dt), rtol=0, atol=1e-14
    )


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1.0, -1.0])
)
def test_rank_one_extremal_moments_colour_exactly(scale, seed, sign):
    # a rank-1 K = 3 moment has two zero singular values
    dt = 1e-3
    w = random_unitary(np.random.default_rng(seed), 3)
    moment = scale * np.outer(w[:, 0], w[:, 0])
    lanes = np.repeat(moment[..., None], 6, axis=-1)
    u, dxi = extremal_u(lanes, np.full(6, sign), np.eye(6), dt)
    np.testing.assert_allclose(u[..., 0], sign * moment / scale, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        _colour_covariance(dxi), real_embedding(u[..., 0], dt), rtol=0, atol=1e-14
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1.0, -1.0]))
def test_single_channel_extremal_moments_colour_exactly(seed, sign):
    # K = 1: |u| = 1 on every live lane, so the quadrature of the second
    # normal is frozen, and that normal alone moves no increment at all,
    # on the branch cut too (real M with either sign of zero)
    dt, width = 1e-3, 10_000
    rng = np.random.default_rng(seed)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, width))
    moment = (rng.uniform(0.01, 2.0, width) * phase)[None, None]
    real = rng.random(width) < 0.1
    moment.real[..., real] = rng.choice([1.0, -1.0], real.sum()) * np.abs(moment[..., real])
    moment.imag[..., real] = np.copysign(0.0, rng.choice([1.0, -1.0], real.sum()))
    frozen = np.stack([np.zeros(width), rng.standard_normal(width)])
    u, dxi = extremal_u(moment, np.full(width, sign), frozen, dt)
    np.testing.assert_allclose(u, sign * moment / np.abs(moment), rtol=0, atol=1e-15)
    assert np.array_equal(dxi, np.zeros((1, width)))
    for lane in (0, int(np.flatnonzero(real)[0])):
        lanes = np.repeat(moment[..., lane : lane + 1], 2, axis=-1)
        _, dxi = extremal_u(lanes, np.full(2, sign), np.eye(2), dt)
        np.testing.assert_allclose(
            _colour_covariance(dxi), real_embedding(u[..., lane], dt), rtol=0, atol=1e-14
        )


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), width=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(k=1, width=40, seed=0)
@example(k=3, width=1, seed=1)
def test_each_lane_colours_as_a_stack_of_one(k, width, seed):
    # lanes last: each lane of a stack, live or below the moment floor,
    # gets the bits of its own width-1 call, u and increments alike
    rng = np.random.default_rng(seed)
    dt = 1e-3
    live = rng.random(width) < 0.5
    scale = np.where(
        live, rng.uniform(0.01, 2.0, width), rng.uniform(0.0, 0.9, width) * MOMENT_FLOOR
    )
    moment = np.stack([c * random_symmetric_u(rng, k, 1.0) for c in scale], axis=-1)
    # some lanes real, with either sign of zero: the K = 1 branch cut
    real = rng.random(width) < 0.25
    moment.imag[..., real] = np.copysign(0.0, rng.choice([1.0, -1.0], real.sum()))
    signs = rng.choice([1.0, -1.0], width)
    z = rng.standard_normal((2 * k, width))
    u, dxi = extremal_u(moment, signs, z, dt)
    coloured = apply_color(color_factors(u, dt), z)
    assert u.shape == (k, k, width) and dxi.shape == coloured.shape == (k, width)
    if k == 1:
        # the closed form is the generic colouring of its u, up to rounding:
        # |u| = 1 - O(eps) gives the frozen quadrature sqrt(dt (1 - |u|) / 2)
        bound = 2.0 * np.sqrt(np.finfo(float).eps * dt) * np.abs(z).max()
        np.testing.assert_allclose(dxi, coloured, rtol=0, atol=bound)
    unit = np.eye(2 * k)
    for lane in range(width):
        one = slice(lane, lane + 1)
        u_one, dxi_one = extremal_u(moment[..., one], signs[one], z[:, one], dt)
        assert _bits(u_one[..., 0]) == _bits(u[..., lane])
        assert _bits(dxi_one[:, 0]) == _bits(dxi[:, lane])
        alone = apply_color(color_factors(u[..., one], dt), z[:, one])
        assert _bits(alone[:, 0]) == _bits(coloured[:, lane])
        # for K > 1 the extremal V is takagi(M)'s, which may differ from
        # takagi(u)'s by column phases: the two colour u alike in law, so the
        # unit normals give both the covariance of u
        lanes = np.repeat(moment[..., one], 2 * k, axis=-1)
        _, from_m = extremal_u(lanes, np.repeat(signs[one], 2 * k), unit, dt)
        from_u = apply_color(color_factors(u[..., one], dt), unit)
        np.testing.assert_allclose(
            _colour_covariance(from_m), _colour_covariance(from_u), rtol=0, atol=1e-14
        )


def _spec(kind, model, rng, norm):
    k = model.num_lindblads
    if kind == "fixed":
        return FixedU(u=random_symmetric_u(rng, k, norm))
    if kind == "homodyne":
        return Homodyne(eta=norm, theta1=rng.uniform(0, np.pi), theta2=rng.uniform(0, np.pi))
    if kind == "heterodyne":
        return Heterodyne()
    if kind == "invariant":
        return InvariantStateDep(sign=1 if norm > 0.5 else -1)
    scale = np.linalg.norm(u_trace(model, 1.0), 2)
    return InvariantTrace(weight=norm / scale if scale > 0 else 0.0)


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 3),
    channels=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    kinds=st.lists(
        st.sampled_from(["fixed", "homodyne", "heterodyne", "invariant", "trace"]),
        min_size=1, max_size=3,
    ),
    norm=st.floats(0.0, 1.0),
    steps=st.integers(1, 12),
    stride=st.integers(1, 4),
)
def test_random_short_runs_stay_finite_and_normalised(
    dim, channels, seed, kinds, norm, steps, stride
):
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, channels)
    if channels != 1:
        kinds = [kind for kind in kinds if kind != "homodyne"] or ["heterodyne"]
    specs = [_spec(kind, model, rng, norm) for kind in kinds]
    run = run_ensemble(
        model, specs, random_state(rng, dim), n_traj=len(specs),
        dt=1e-3, steps=steps, seed=seed, record_stride=stride,
    )
    n_rec = len(range(0, steps, stride))
    assert run.states.shape == (len(specs), n_rec, dim)
    assert run.currents.shape == (len(specs), n_rec, channels)
    assert np.all(np.isfinite(run.states)) and np.all(np.isfinite(run.currents))
    np.testing.assert_allclose(np.linalg.norm(run.states, axis=-1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 4),
    channels=st.integers(0, 3),
    radius=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_shift_keeps_the_step_rate(dim, channels, radius, seed):
    # the CLI's step check reads the rows the kernel steps, which every
    # shift of a model shares
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, channels)
    chi = radius * np.exp(2j * np.pi * rng.random(channels))
    rate = _step_rate(model)
    assert abs(_step_rate(shift_lindblads(model, chi)) - rate) <= 1e-12 * rate


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(BLAS_MIN_DIM, 24),
    height=st.integers(2, 10),
    width=st.integers(1, 1100) | st.sampled_from([255, 256, 257, 1023, 1024, 1025]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=BLAS_MIN_DIM, height=4, width=255, seed=0)
@example(n=BLAS_MIN_DIM + 1, height=10, width=257, seed=1)
@example(n=8, height=3, width=1023, seed=2)
@example(n=24, height=2, width=1025, seed=3)
@example(n=24, height=10, width=1, seed=4)
def test_each_lane_of_the_stack_product_has_its_width_one_bits(n, height, width, seed):
    # from the cut-off up the product is a padded zgemm: each lane, at any
    # width, offset and stack height, gets the bits of its own width-1 call
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((height, n, n)) + 1j * rng.standard_normal((height, n, n))
    psi = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    out = _stack_apply(stack, psi)
    assert out.shape == (height, n, width)
    np.testing.assert_allclose(
        out, np.einsum("kab,bm->kam", stack, psi), rtol=0, atol=1e-12 * n
    )
    # the lanes from an offset on, a strided view as the kernel's
    # state-dependent lanes are
    lo = int(rng.integers(width))
    assert _bits(_stack_apply(stack, psi[:, lo:])) == _bits(out[..., lo:])
    for lane in {0, lo, width - 1}:
        # one lane, and a shorter stack, as resolve applies the channels alone
        one = _stack_apply(stack[1:], psi[:, lane : lane + 1])
        assert _bits(one[..., 0]) == _bits(out[1:, :, lane])
    # a stack with more leading axes, as centered_moments' (K, K, N, N) pairs
    assert _bits(_stack_apply(stack[None], psi)[0]) == _bits(out)


def test_below_the_cut_off_the_stack_product_is_the_einsum():
    # the atom's bits: the kernel's operator stack and centered_moments'
    # pairs get exactly the einsums they had before the padded product
    assert BLAS_MIN_DIM > 2
    rng = np.random.default_rng(0)
    ops = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    pairs = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
    for width in (1, 5, 1024):
        psi = rng.standard_normal((2, width)) + 1j * rng.standard_normal((2, width))
        assert _bits(_stack_apply(ops, psi)) == _bits(np.einsum("kab,bm->kam", ops, psi))
        assert _bits(_stack_apply(pairs, psi)) == _bits(np.einsum("jlab,bm->jlam", pairs, psi))
