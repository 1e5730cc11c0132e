"""Tests of the benchmark's own logic: span arithmetic, patching, checks, inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, span_totals  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
    ]
    totals = span_totals(spans)
    assert totals["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert totals["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrappers_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert [s[:2] for s in tracer.spans] == [["outer", -1], ["inner", 0], ["inner", 0]]
    totals = span_totals(tracer.spans)
    # outer spans ticks 0..5, each inner one tick
    assert totals["outer"]["self_s"] == 5.0 - 2.0
    assert totals["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def _current_bindings():
    found = {}
    for module_name, attr, _ in tracing.BINDINGS:
        found[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    specs = importlib.import_module(tracing.SPEC_MODULE)
    for cls in vars(specs).values():
        if isinstance(cls, type) and "resolve" in vars(cls):
            found[(cls.__qualname__, "resolve")] = vars(cls)["resolve"]
    return found


def test_traced_run_restores_every_binding(tmp_path):
    import unravel.cli

    before = _current_bindings()
    with Tracer() as tracer:
        assert all(_current_bindings()[key] is not before[key] for key in before)
        code = unravel.cli.main(
            ["--mode", "ensemble-check", "--unraveling", "invariant_plus", "--n-traj", "8",
             "--dt", "1e-3", "--t-max", "0.02", "--output-dir", str(tmp_path)]
        )
    assert code in (0, 1)
    assert _current_bindings() == before
    assert all(_current_bindings()[key] is before[key] for key in before)
    totals = span_totals(tracer.spans)
    assert totals["cli.main"]["calls"] == 1
    assert totals["operators.liouvillian_apply"]["calls"] == 4 * 20
    assert tracer.counters["oracle.integrate_master.steps"] == 20
    assert tracer.absent == [] and tracer.hook_errors == []


def test_missing_binding_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setattr(
        tracing, "BINDINGS", tracing.BINDINGS + (("unravel.cli", "no_such_name", "x.y"),)
    )
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["unravel.cli.no_such_name"]
    metrics = tracing.layer_metrics([tracing.layer_parts(tracer, tmp_path)])
    assert metrics["trajectory.run_ensemble.calls"] == 0.0


def test_round_metrics_add_counts_and_form_ratios_from_sums():
    check = {"trajectory.traj_steps": 1000.0, "trajectory.run_ensemble.total_s": 0.003,
             "trajectory.run_ensemble.calls": 1.0, "oracle.reference_rows": 101.0,
             "oracle.useful_rows": 20.0, "oracle.gate_ratio_max": 0.9}
    figures = {"trajectory.traj_steps": 500.0, "trajectory.run_ensemble.total_s": 0.003,
               "trajectory.run_ensemble.calls": 5.0, "oracle.reference_rows": 0.0,
               "oracle.useful_rows": 0.0, "oracle.gate_ratio_max": 0.0}
    metrics = tracing.layer_metrics([check, figures])
    assert metrics["trajectory.run_ensemble.calls"] == 6.0
    assert metrics["trajectory.traj_steps"] == 1500.0
    assert metrics["trajectory.us_per_traj_step"] == pytest.approx(4.0)
    assert metrics["oracle.reference_useful_fraction"] == pytest.approx(20 / 101)
    assert metrics["oracle.gate_ratio_max"] == 0.9
    assert "oracle.reference_rows" not in metrics


def test_round_metrics_use_untraced_complete_rounds_in_reference_units():
    def sample(wall, refs, traced=False, **extra):
        return {"wall_s": wall, "ref_s": refs, "traced": traced, "setup_s": 0.3,
                "peak_rss_kib": 2048, "problems": [], **extra}

    rounds = [
        [sample(2.0, [0.1, 0.1]), sample(1.0, [0.1, 0.1])],          # 30 loops
        [sample(4.0, [0.2, 0.2]), sample(2.0, [0.2, 0.2])],          # 30 loops
        [sample(9.0, [0.1, 0.1], True), sample(9.0, [0.1, 0.1], True)],
        [sample(1.0, [0.1, 0.1]), {"problems": ["x"], "traced": False}],
    ]
    metrics = run.end_to_end(rounds, traj_steps=3000)
    assert metrics["wall_ref"] == pytest.approx(30.0)
    assert metrics["traj_steps_per_ref"] == pytest.approx(100.0)
    assert metrics["peak_rss_mib"] == pytest.approx(2.0)
    assert metrics["ok_ops"] == pytest.approx(7 / 8)


def _haar(rng, m, t, n):
    psi = rng.normal(size=(m, t, n)) + 1j * rng.normal(size=(m, t, n))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def test_z_check_accepts_exact_samples_and_rejects_shifted_reference():
    rng = np.random.default_rng(7)
    n, t_len = 4, 3
    psi = _haar(rng, 1024, t_len, n)
    reference = np.broadcast_to(np.eye(n) / n, (t_len, n, n)).astype(complex)
    z, bound = workloads.z_scores(psi, reference)
    assert z.shape == (t_len, n * n)
    assert z.max() <= bound

    # Shift one diagonal entry of the reference by 6 standard errors, away
    # from the sample mean so the shift cannot cancel the sampling deviation.
    se = np.sqrt(workloads.variance_bound(reference) / psi.shape[0])
    sample_mean = np.mean(np.abs(psi[:, 1, 2]) ** 2)
    shifted = reference.copy()
    shifted[1, 2, 2] -= np.sign(sample_mean - 0.25) * 6.0 * se[1, 2]
    z_shift, _ = workloads.z_scores(psi, shifted)
    assert z_shift.max() > bound


def test_new_seed_gives_a_different_valid_model_and_u():
    from unravel import LindbladModel, validate_u

    models = [workloads.random_model(seed) for seed in (0, 1)]
    assert models[0] != models[1]
    assert workloads.random_model(0) == models[0]
    for seed, data in zip((0, 1), models):
        model = LindbladModel.from_dict(json.loads(json.dumps(data)))
        assert (model.dim, model.num_lindblads) == (4, 3)
        u = workloads.random_u(seed)
        validate_u(u)
        assert np.allclose(u, u.T)
        assert np.linalg.norm(u, 2) == pytest.approx(0.8, abs=1e-12)
    assert not np.allclose(workloads.random_u(0), workloads.random_u(1))


def test_reference_and_bounds_match_scipy():
    from scipy import stats
    from scipy.linalg import expm

    gen = workloads.liouvillian(workloads.random_model(3))
    for t in (0.01, 1.0, 4.0):
        assert np.abs(workloads.expm(gen * t) - expm(gen * t)).max() < 1e-12
    for p in (1e-2, 5e-5):
        assert workloads.chi2_3_isf(p) == pytest.approx(stats.chi2.isf(p, 3), rel=1e-9)


def test_summary_check_flags_exit_code_that_contradicts_verdict(tmp_path):
    w = workloads.INVOCATIONS["atom_check"]
    summary = {
        "times": list(np.linspace(0, 0.95, w.n_rec)),
        "trace_distance": [0.0] + [0.01] * (w.n_rec - 1),
        "stderr": [0.0] + [0.01] * (w.n_rec - 1),
        "n_trajectories": w.n_traj,
        "passed": True,
    }
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert workloads.check_outputs("atom_check", 0, tmp_path, 0) == []
    assert workloads.check_outputs("atom_check", 0, tmp_path, 1)
    summary["trace_distance"][5] = 0.2
    summary["passed"] = False
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    problems = workloads.check_outputs("atom_check", 0, tmp_path, 1)
    assert problems and "exceeds the bound" in problems[0]


def _record_currents(rng, cs, u, psi, dt):
    """Currents J = u <c>^* + <c> + dxi / dt with dxi drawn for ``u``."""
    k = cs.shape[0]
    eye = np.eye(k)
    cov = 0.5 * np.block([[eye + u.real, u.imag], [u.imag, eye - u.real]])
    evals, evecs = np.linalg.eigh(cov)
    x = rng.normal(size=(len(psi), 2 * k)) @ (evecs * np.sqrt(np.clip(evals, 0.0, None))).T
    s = np.einsum("pi,kij,pj->pk", psi.conj(), cs, psi)
    return s.conj() @ u.T + s + (x[:, :k] + 1j * x[:, k:]) / np.sqrt(dt)


def test_increment_check_tells_which_u_ran():
    rng = np.random.default_rng(5)
    cs = np.stack([workloads.from_pairs(c) for c in workloads.random_model(0)["lindblads"]])
    psi = _haar(rng, 4096, 1, 4)[:, 0]
    dt = workloads.MULTI_DT

    def check(u_drawn, u_claimed):
        currents = _record_currents(rng, cs, u_drawn, psi, dt)
        z, bound, leak = workloads.increment_z_scores(
            cs, np.broadcast_to(u_claimed, (len(psi), 3, 3)), psi, currents, dt,
            np.random.default_rng(0),
        )
        assert z.shape == (6 + 6 + 15,)
        return z.max() / bound, leak / workloads.NULL_TOL

    u0, u1 = workloads.random_u(0), workloads.random_u(1)
    assert max(check(u0, u0)) <= 1.0
    assert check(u0, u1)[0] > 1.0
    assert check(u0, np.zeros((3, 3)))[0] > 1.0
    # At ||u|| = 1 one direction carries no noise; noise drawn for another
    # u of norm 1 shows up there.
    e0, e1 = u0 / 0.8, u1 / 0.8
    assert max(check(e0, e0)) <= 1.0
    assert check(e1, e0)[1] > 1.0


def test_invariant_u_matches_the_package():
    from unravel import InvariantStateDep, LindbladModel

    data = workloads.random_model(2)
    model = LindbladModel.from_dict(json.loads(json.dumps(data)))
    psi = _haar(np.random.default_rng(3), 16, 1, 4)[:, 0]
    cs = np.stack([workloads.from_pairs(c) for c in data["lindblads"]])
    expected = np.stack([InvariantStateDep(sign=1).resolve(model, p) for p in psi])
    assert np.abs(workloads.invariant_u(cs, psi) - expected).max() < 1e-12
