"""End-to-end tests of the command-line front end."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unravel import build_atom, AtomParams, LindbladModel, shift_lindblads
from conftest import random_model, random_symmetric_u
from unravel import cli
from unravel.cli import EXIT_CONFIG, EXIT_GATE, EXIT_OK, MODES, build_config, build_parser, main
from unravel.fluorescence import SCENARIOS, scenario_spec
from unravel.oracle import EnsembleSummary
from unravel.trajectory import MIN_LANES, EnsembleRun, NormCollapseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


# Overflows at the first step: the norm of every lane becomes infinite.
OVERFLOW_MODEL = {
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [1e300, 0.0]], [[1e300, 0.0], [0.0, 0.0]]],
    "lindblads": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
}

write_range = cli._write_range


def write_first_range_only(folder, header, combined, first, times, states, currents):
    """A per-range writer whose later ranges fail after the first has written."""
    if first > 0:
        raise NormCollapseError(f"stand-in failure of the range from {first}")
    return write_range(folder, header, combined, first, times, states, currents)


class TestTrajectoriesMode:
    def test_per_trajectory_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--model", "atom",
            "--unraveling", "heterodyne", "--n-traj", "2",
            "--dt", "1e-3", "--t-max", "0.02", "--seed", "4",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "manifest.json" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == ["trajectory_00000.csv", "trajectory_00001.csv"]
        with open(tmp_path / "trajectory_00000.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t", "re_psi_0", "im_psi_0", "re_psi_1", "im_psi_1", "re_J_0", "im_J_0"
        ]
        assert len(rows) == 21

    @pytest.mark.parametrize("n_traj, used", [(2 * MIN_LANES, 2), (2, 1)])
    def test_manifest_records_workers_and_ranges(
        self, tmp_path, capsys, monkeypatch, n_traj, used
    ):
        monkeypatch.setenv("UNRAVEL_THREADS", "2")
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--combined", "--n-traj", str(n_traj),
            "--dt", "1e-3", "--t-max", "0.01", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["workers"], manifest["lane_ranges"]) == (used, used)

    def test_csv_round_trip_preserves_purity(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--n-traj", "1",
            "--dt", "1e-3", "--t-max", "0.1", "--seed", "0",
            "--unraveling", "homodyne", "--eta", "1", "--theta1", "0",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        body = np.genfromtxt(
            tmp_path / "trajectory_00000.csv", delimiter=",", skip_header=1
        )
        psi = body[:, 1:5:2] + 1j * body[:, 2:6:2]
        np.testing.assert_allclose(
            np.linalg.norm(psi, axis=1), 1.0, atol=1e-9
        )

    def test_combined_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--n-traj", "3",
            "--dt", "1e-3", "--t-max", "0.01", "--seed", "1",
            "--combined", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        with open(tmp_path / "trajectories.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "trajectory_index"
        indices = {row[0] for row in rows[1:]}
        assert indices == {"0", "1", "2"}
        assert len(rows) == 1 + 3 * 10

    def test_closed_system_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": [[[0.0, 0.0], [5.0, 0.0]], [[5.0, 0.0], [0.0, 0.0]]],
            "lindblads": [],
        }))
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--model", str(model_path),
            "--n-traj", "2", "--dt", "1e-3", "--t-max", "0.01",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        with open(tmp_path / "trajectory_00001.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "re_psi_0", "im_psi_0", "re_psi_1", "im_psi_1"]
        assert len(rows) == 11

    @pytest.mark.parametrize("combined", [False, True])
    def test_rows_match_csv_writer(self, tmp_path, capsys, monkeypatch, combined):
        # values of every magnitude and sign, a negative zero among them
        rng = np.random.default_rng(3)
        n_traj, n_rec = 3, 7
        parts = rng.normal(size=(2, n_traj, n_rec, 3)) * 10.0 ** rng.integers(
            -300, 300, size=(2, n_traj, n_rec, 3)
        )
        parts[0, 1, 2, 0] = -0.0
        parts[1, 2, 4, 1] = -0.0
        states = parts[0, :, :, :2] + 1j * parts[1, :, :, :2]
        currents = parts[0, :, :, 2:] + 1j * parts[1, :, :, 2:]
        times = np.arange(n_rec) * (1.0 / 3.0)

        def run_ensemble(*args, per_range, **kwargs):
            # as run_ensemble does: the records go to per_range, range by range
            results = [per_range(0, times, states, currents)]
            return EnsembleRun(times=times, states=None, currents=None, range_results=results)

        monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
        flags = ["--combined"] if combined else []
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--n-traj", str(n_traj), "--dt", "1e-3",
            "--t-max", "0.007", *flags, "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK

        def row(m, r):
            values = [f"{times[r]:.10g}"]
            for z in list(states[m, r]) + list(currents[m, r]):
                values += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            return values

        header = ["t", "re_psi_0", "im_psi_0", "re_psi_1", "im_psi_1", "re_J_0", "im_J_0"]
        expected = {}
        if combined:
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["trajectory_index"] + header)
                for m in range(n_traj):
                    for r in range(n_rec):
                        writer.writerow([str(m)] + row(m, r))
            expected["trajectories.csv"] = (tmp_path / "want.csv").read_bytes()
        else:
            for m in range(n_traj):
                with open(tmp_path / "want.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    for r in range(n_rec):
                        writer.writerow(row(m, r))
                expected[f"trajectory_{m:05d}.csv"] = (tmp_path / "want.csv").read_bytes()
        assert b"-0," in b"".join(expected.values())
        for name, want in expected.items():
            assert (tmp_path / name).read_bytes() == want

    def test_identical_reruns_are_byte_identical(self, tmp_path, capsys):
        args = [
            "--mode", "trajectories", "--n-traj", "2", "--dt", "1e-3",
            "--t-max", "0.02", "--seed", "9", "--combined",
        ]
        run_cli(capsys, *args, "--output-dir", str(tmp_path / "a"))
        run_cli(capsys, *args, "--output-dir", str(tmp_path / "b"))
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a == b


class TestWorkersWriteTheRows:
    @pytest.mark.parametrize("unraveling", ["fixed", "invariant"])
    def test_combined_csv_is_byte_identical_for_any_worker_count(
        self, tmp_path, capsys, monkeypatch, unraveling
    ):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 3)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_dict()))
        u = random_symmetric_u(rng, 3, 0.8)
        scheme = ["--unraveling", unraveling]
        scheme += ["--u-json", json.dumps(pairs(u))] if unraveling == "fixed" else []
        written = {}
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("UNRAVEL_THREADS", threads)
            out_dir = tmp_path / threads
            code, _, _ = run_cli(
                capsys,
                "--mode", "trajectories", "--combined", "--model", str(model_path), *scheme,
                "--n-traj", str(4 * MIN_LANES), "--dt", "1e-3", "--t-max", "0.01",
                "--seed", "3", "--output-dir", str(out_dir),
            )
            assert code == EXIT_OK
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["workers"] == int(threads)
            assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "trajectories.csv"]
            written[threads] = (out_dir / "trajectories.csv").read_bytes()
        assert written["1"].count(b"\n") == 1 + 4 * MIN_LANES * 10
        assert written["2"] == written["1"]
        assert written["4"] == written["1"]

    @pytest.mark.parametrize("combined", [False, True])
    def test_failed_run_leaves_no_output(self, tmp_path, capsys, monkeypatch, combined):
        monkeypatch.setenv("UNRAVEL_THREADS", "2")
        # let the overflow model past the step-size check to fail in the kernel
        monkeypatch.setattr(cli, "MAX_STEP_RATE", np.inf)
        model_path = tmp_path / "overflow.json"
        model_path.write_text(json.dumps(OVERFLOW_MODEL))
        out_dir = tmp_path / "out"
        with np.errstate(all="ignore"):
            code, _, err = run_cli(
                capsys,
                "--mode", "trajectories", "--model", str(model_path),
                "--n-traj", str(2 * MIN_LANES), "--dt", "1e10", "--t-max", "3e10",
                *(["--combined"] if combined else []), "--output-dir", str(out_dir),
            )
        assert code == EXIT_GATE
        assert "property failure: NormCollapseError" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("combined", [False, True])
    def test_range_failing_after_another_wrote_leaves_no_output(
        self, tmp_path, capsys, monkeypatch, combined
    ):
        monkeypatch.setenv("UNRAVEL_THREADS", "2")
        monkeypatch.setattr(cli, "_write_range", write_first_range_only)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys,
            "--mode", "trajectories", "--n-traj", str(2 * MIN_LANES), "--dt", "1e-3",
            "--t-max", "0.005", *(["--combined"] if combined else []),
            "--output-dir", str(out_dir),
        )
        assert code == EXIT_GATE
        assert f"stand-in failure of the range from {MIN_LANES}" in err
        assert list(out_dir.iterdir()) == []


class TestEnsembleCheckMode:
    def test_passing_gate(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "--mode", "ensemble-check", "--model", "atom",
            "--unraveling", "heterodyne", "--n-traj", "64",
            "--dt", "1e-3", "--t-max", "0.5", "--seed", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "within 3 s.e." in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {
            "times", "trace_distance", "stderr", "n_trajectories", "passed"
        }
        assert summary["passed"] is True
        assert summary["n_trajectories"] == 64

    def test_failing_gate_names_the_deviation(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "--mode", "ensemble-check", "--n-traj", "4",
            "--dt", "1e-3", "--t-max", "0.2", "--seed", "0",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_GATE
        assert "deviates from the master equation" in err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is False

    def test_failure_names_a_time_that_failed(self, tmp_path, capsys, monkeypatch):
        # t=0 has no spread (error 0) and a rounding-level distance: it
        # passes through the gate's absolute slack, so only t=0.2 fails
        summary = EnsembleSummary(
            times=np.array([0.0, 0.1, 0.2]),
            mean_states=np.zeros((3, 2, 2), dtype=complex),
            trace_distances=np.array([9.2e-15, 0.01, 0.05]),
            standard_errors=np.array([0.0, 0.01, 0.001]),
            n_trajectories=4,
        )
        monkeypatch.setattr(cli, "ensemble_summary", lambda *args: summary)
        code, _, err = run_cli(
            capsys,
            "--mode", "ensemble-check", "--n-traj", "4",
            "--dt", "1e-3", "--t-max", "0.01", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_GATE
        assert "at t=0.2 (distance 5.000e-02, 3 s.e. + 1e-12 = 3.000e-03)" in err


class TestFiguresMode:
    def test_writes_scenario_pack(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "--mode", "figures", "--dt", "1e-3", "--t-max", "0.05",
            "--seed", "2", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "5 scenario file(s)" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["scenarios"].values():
            assert (tmp_path / entry["file"]).exists()

    def test_config_runs_the_scenarios(self):
        # the one run call takes figures' specs and width from the config
        config = build_config(build_parser().parse_args(["--mode", "figures"]))
        assert config.unraveling == tuple(scenario_spec(name) for name in SCENARIOS)
        assert config.n_traj == len(SCENARIOS)

    def test_gamma_omega_flags_reach_manifest(self, tmp_path, capsys):
        run_cli(
            capsys,
            "--mode", "figures", "--gamma", "2.0", "--omega", "5.0",
            "--dt", "1e-3", "--t-max", "0.01", "--seed", "0",
            "--output-dir", str(tmp_path),
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["gamma"] == 2.0
        assert manifest["parameters"]["omega"] == 5.0

    def test_csv_and_manifest(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "--mode", "figures", "--dt", "1e-3", "--t-max", "0.05", "--seed", "7",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["parameters"]["gamma"] == 1.0
        assert set(manifest["scenarios"]) == set(SCENARIOS)
        for name in SCENARIOS:
            entry = manifest["scenarios"][name]
            path = tmp_path / entry["file"]
            assert path.exists()
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["t", "x", "y", "z", "re_J", "im_J"]
            assert len(rows) == 51
            body = np.array(rows[1:], dtype=float)
            np.testing.assert_allclose(
                body[:, 0], 1e-3 * np.arange(50), atol=1e-12
            )
            # recorded points are pure states
            radii = np.sum(body[:, 1:4] ** 2, axis=1)
            np.testing.assert_allclose(radii, 1.0, atol=1e-9)

    def test_rows_match_csv_writer(self, tmp_path, capsys, monkeypatch):
        # values of every magnitude and sign, negative zeros among them
        rng = np.random.default_rng(4)
        n, n_rec = len(SCENARIOS), 6
        parts = rng.normal(size=(4, n, n_rec)) * 10.0 ** rng.integers(
            -150, 150, size=(4, n, n_rec)
        )
        states = np.stack([parts[0] + 1j * parts[1], parts[2] - 1j * parts[3]], axis=-1)
        currents = (parts[3] + 1j * parts[0])[..., None]
        currents[1, 2, 0] = complex(-0.0, 1.0)
        currents[2, 3, 0] = complex(1.0, -0.0)
        times = np.arange(n_rec) * (1.0 / 3.0)
        run = EnsembleRun(times=times, states=states, currents=currents)
        monkeypatch.setattr("unravel.cli.run_ensemble", lambda *args, **kwargs: run)
        code, _, _ = run_cli(
            capsys,
            "--mode", "figures", "--dt", "1e-3", "--t-max", "0.006", "--seed", "0",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        a, b = states[..., 0], states[..., 1]
        coherence = a * b.conj()
        xyz = np.stack(
            [2.0 * coherence.real, -2.0 * coherence.imag, np.abs(a) ** 2 - np.abs(b) ** 2],
            axis=-1,
        )
        for index, name in enumerate(SCENARIOS):
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "x", "y", "z", "re_J", "im_J"])
                for r in range(n_rec):
                    x, y, z = xyz[index, r]
                    j = currents[index, r, 0]
                    writer.writerow([f"{times[r]:.10g}"] + [
                        f"{v:.12g}" for v in (x, y, z, j.real, j.imag)
                    ])
            want = (tmp_path / "want.csv").read_bytes()
            assert (tmp_path / f"{name}.csv").read_bytes() == want
        assert b"-0," in (tmp_path / "homodyne_y.csv").read_bytes()

    def test_distinct_streams_per_scenario(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "--mode", "figures", "--dt", "1e-3", "--t-max", "0.02", "--seed", "0",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        indices = {v["trajectory_index"] for v in manifest["scenarios"].values()}
        assert len(indices) == len(SCENARIOS)

    @pytest.mark.parametrize(
        "flag, value, name", [("--dt", "0", "dt"), ("--t-max", "nan", "t_max")],
        ids=["dt=0", "t_max=nan"],
    )
    def test_bad_step_or_duration_is_config_error(self, tmp_path, capsys, flag, value, name):
        code, _, err = run_cli(
            capsys, "--mode", "figures", flag, value, "--output-dir", str(tmp_path)
        )
        assert code == EXIT_CONFIG
        assert f"{name} must be" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_model_other_than_atom_is_config_error(self, tmp_path, capsys):
        model_path = tmp_path / "decay.json"
        model_path.write_text(json.dumps(build_atom(AtomParams(gamma=2.0, omega=0.0)).to_dict()))
        code, _, err = run_cli(
            capsys,
            "--mode", "figures", "--model", str(model_path),
            "--dt", "1e-3", "--t-max", "0.01", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "--model" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_initial_state_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "figures", "initial": [[0.0, 0.0], [1.0, 0.0]],
            "dt": 1e-3, "t_max": 0.01, "output_dir": str(tmp_path),
        }))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert "initial" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("unraveling", "heterodyne"),
            ("u_json", "[[[0.5, 0.0]]]"),
            ("eta", 0.5),
            ("theta1", 0.1),
            ("theta2", 0.2),
            ("sign", -1),
            ("trace_r", 0.3),
            ("n_traj", 3),
            ("combined", True),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_ignored_option_is_config_error(self, tmp_path, capsys, key, value, source):
        flag = "--" + key.replace("_", "-")
        base = ["--mode", "figures", "--dt", "1e-3", "--t-max", "0.01",
                "--output-dir", str(tmp_path)]
        if source == "flag":
            argv = base + ([flag] if value is True else [flag, str(value)])
        else:
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({key: value}))
            argv = base + ["--config", str(config_path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert flag in err
        assert not (tmp_path / "manifest.json").exists()


class TestVerifyMode:
    def test_deterministic_report(self, capsys):
        code1, out1, _ = run_cli(capsys, "--mode", "verify", "--seed", "0")
        code2, out2, _ = run_cli(capsys, "--mode", "verify", "--seed", "0")
        assert code1 == EXIT_OK and code2 == EXIT_OK
        assert out1 == out2
        lines = out1.strip().splitlines()
        # the check names are stable, in this order
        names = [line.split(":")[0] for line in lines[:-1]]
        assert names == [
            "PASS eigenvalue-identity",
            "PASS rotation-invariance",
            "PASS shift-invariance",
            "PASS gauge-invariance",
            "PASS stepper-equivalence",
        ]
        assert "all 5 checks passed" in lines[-1]


class TestConfigHandling:
    def test_fixed_unraveling_requires_u_json(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "verify", "--unraveling", "fixed")
        assert code == EXIT_CONFIG
        assert "u-json" in err

    def test_invalid_u_matrix_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "--mode", "trajectories", "--unraveling", "fixed",
            "--u-json", "[[[2.0, 0.0]]]", "--n-traj", "1",
            "--dt", "1e-3", "--t-max", "0.01",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "norm" in err

    def test_unknown_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--mode", "nonsense"])
        assert info.value.code == 2

    def test_missing_mode_is_config_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_CONFIG
        assert "mode" in err

    def test_t_max_shorter_than_dt(self, capsys):
        code, _, err = run_cli(
            capsys, "--mode", "trajectories", "--dt", "1e-2", "--t-max", "1e-3"
        )
        assert code == EXIT_CONFIG

    def test_non_integer_thread_count_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("UNRAVEL_THREADS", "abc")
        code, _, err = run_cli(capsys, "--mode", "trajectories", "--n-traj", "1")
        assert code == EXIT_CONFIG
        assert "UNRAVEL_THREADS" in err

    def test_single_trajectory_ensemble_check_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "--mode", "ensemble-check", "--n-traj", "1", "--dt", "1e-3",
            "--t-max", "0.01", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "n_traj" in err

    def test_non_finite_initial_state_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "trajectories",
            "initial": [[float("nan"), 0.0], [1.0, 0.0]],
            "n_traj": 1, "dt": 1e-3, "t_max": 0.01,
            "output_dir": str(tmp_path),
        }))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert "initial state must have finite entries" in err

    def test_step_beyond_stability_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "--mode", "figures", "--dt", "1", "--t-max", "100",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "dt 1 is too large" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_step_check_judges_a_shifted_atom_as_the_atom(self, tmp_path, capsys):
        # the shift by 40 steps the atom's own rows, so the default dt holds
        # (the caller's channels would give dt * rate = 0.164)
        model_path = tmp_path / "model.json"
        shifted = shift_lindblads(build_atom(AtomParams()), [40.0])
        model_path.write_text(json.dumps(shifted.to_dict()))
        code, _, err = run_cli(
            capsys,
            "--mode", "trajectories", "--model", str(model_path),
            "--n-traj", "1", "--t-max", "1e-3", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK, err

    def test_step_check_reads_the_rows_the_kernel_steps(self, tmp_path, capsys):
        # c = 2.5 diag(1, 1, -1) is stepped as 2.5 diag(2, 2, -4) / 3, whose
        # rate ||c||^2 = 100 / 9 exceeds the caller's 6.25
        model_path = tmp_path / "model.json"
        model = LindbladModel(np.zeros((3, 3)), (2.5 * np.diag([1.0, 1.0, -1.0]),))
        model_path.write_text(json.dumps(model.to_dict()))
        code, _, err = run_cli(
            capsys,
            "--mode", "trajectories", "--model", str(model_path), "--dt", "0.013",
            "--n-traj", "1", "--t-max", "0.13", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "dt * rate = 0.144 exceeds 0.1" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_defaults_pass_the_step_check(self, mode):
        config = build_config(build_parser().parse_args(["--mode", mode]))
        assert config.dt == 1e-4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "mode": "trajectories",
            "model": "atom",
            "unraveling": "heterodyne",
            "n_traj": 1,
            "dt": 1e-3,
            "t_max": 0.01,
            "seed": 3,
            "output_dir": str(tmp_path),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code, _, _ = run_cli(
            capsys, "--config", str(config_path), "--dt", "2e-3"
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["dt"] == 2e-3
        assert manifest["parameters"]["seed"] == 3

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"mode": "verify", "typo_key": 1}))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert "typo_key" in err

    def test_unknown_field_of_an_unraveling_object_is_config_error(self, tmp_path, capsys):
        # a misspelt theta1 must not run on its default
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "trajectories", "n_traj": 1, "dt": 1e-3, "t_max": 0.01,
            "unraveling": {"type": "homodyne", "eta": 0.5, "theta": 0.3},
            "output_dir": str(tmp_path / "out"),
        }))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert "takes no field theta" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "unraveling, message",
        [
            ({"type": "fixed"}, "unraveling type 'fixed' requires field u"),
            ({"type": "homodyne", "eta": None}, "unraveling type 'homodyne' field eta"),
            ({"type": "invariant_trace", "R": None}, "unraveling type 'invariant_trace' field R"),
            ({"type": "homodyne", "theta1": [1]}, "unraveling type 'homodyne' field theta1"),
        ],
        ids=["fixed-no-u", "eta-null", "R-null", "theta1-list"],
    )
    def test_missing_or_unreadable_field_of_an_unraveling_object_is_named(
        self, tmp_path, capsys, unraveling, message
    ):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "trajectories", "n_traj": 1, "dt": 1e-3, "t_max": 0.01,
            "unraveling": unraveling, "output_dir": str(tmp_path / "out"),
        }))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_unknown_field_of_a_model_file_is_config_error(self, tmp_path, capsys):
        # a misspelt lindblads must not run as a closed system
        data = build_atom(AtomParams()).to_dict()
        data["lindblad"] = data.pop("lindblads")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys,
            "--mode", "trajectories", "--model", str(model_path), "--n-traj", "1",
            "--dt", "1e-3", "--t-max", "0.01", "--output-dir", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "takes no field lindblad" in err
        assert not (tmp_path / "out").exists()

    def test_model_from_json_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(build_atom(AtomParams(gamma=2.0, omega=0.0)).to_dict()))
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--model", str(model_path),
            "--n-traj", "1", "--dt", "1e-3", "--t-max", "0.01",
            "--seed", "0", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # c = sqrt(2) |g><e| in the lower-left corner
        assert manifest["model"]["lindblads"][0][1][0][0] == pytest.approx(
            np.sqrt(2.0)
        )

    def test_initial_state_from_config(self, tmp_path, capsys):
        config = {
            "mode": "trajectories",
            "unraveling": "heterodyne",
            "initial": [[0.0, 0.0], [1.0, 0.0]],
            "n_traj": 1,
            "dt": 1e-3,
            "t_max": 0.01,
            "seed": 0,
            "output_dir": str(tmp_path),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_OK
        body = np.genfromtxt(
            tmp_path / "trajectory_00000.csv", delimiter=",", skip_header=1
        )
        np.testing.assert_allclose(body[0, 1:5], [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "text, message", [(None, "cannot read config file"), ("[1, 2]", "JSON object")]
    )
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "run.json"
        if text is not None:
            config_path.write_text(text)
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert message in err

    def test_unraveling_object_from_config(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "trajectories",
            "unraveling": {"type": "homodyne", "eta": 0.5, "theta1": 0.25},
            "n_traj": 1, "dt": 1e-3, "t_max": 0.01, "output_dir": str(tmp_path),
        }))
        code, _, _ = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["unraveling"] == {
            "type": "homodyne", "eta": 0.5, "theta1": 0.25, "theta2": 0.0
        }

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["invariant_trace", "--trace-r", "0.3"], {"type": "invariant_trace", "R": 0.3}),
            (["invariant_trace"], {"type": "invariant_trace", "R": 0.0}),
            (["homodyne"], {"type": "homodyne", "eta": 1.0, "theta1": 0.0, "theta2": 0.0}),
            (
                ["homodyne", "--eta", "0.5", "--theta2", "0.2"],
                {"type": "homodyne", "eta": 0.5, "theta1": 0.0, "theta2": 0.2},
            ),
            (["invariant"], {"type": "invariant", "sign": 1}),
            (["invariant", "--sign", "-1"], {"type": "invariant", "sign": -1}),
            (["homodyne_y"], {"type": "fixed", "u": [[[-1.0, 0.0]]]}),
            (["heterodyne", "--eta", "0.5", "--sign", "-1"], {"type": "heterodyne"}),
        ],
    )
    def test_unraveling_flags_reach_manifest(self, tmp_path, capsys, flags, expected):
        code, _, _ = run_cli(
            capsys,
            "--mode", "trajectories", "--n-traj", "1", "--dt", "1e-3", "--t-max", "0.01",
            "--output-dir", str(tmp_path), "--unraveling", *flags,
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["unraveling"] == expected

    @pytest.mark.parametrize(
        "flags, messages",
        [
            (["fixed", "--u-json", "[[[1.0, 0.0]"], ["--u-json is not valid JSON"]),
            (["squeezed"], ["unknown unraveling", "'squeezed'"]),
        ],
    )
    def test_bad_unraveling_flag_is_config_error(self, capsys, flags, messages):
        code, _, err = run_cli(capsys, "--mode", "verify", "--unraveling", *flags)
        assert code == EXIT_CONFIG
        assert all(message in err for message in messages)

    @pytest.mark.parametrize(
        "initial, message",
        [
            ([[1.0, 0.0]], "initial must be 2 rows of [re, im]"),
            ([[0.0, 0.0], [0.0, 0.0]], "initial state must have a nonzero, finite norm"),
        ],
    )
    def test_bad_initial_state_is_config_error(self, tmp_path, capsys, initial, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "mode": "trajectories", "initial": initial,
            "n_traj": 1, "dt": 1e-3, "t_max": 0.01, "output_dir": str(tmp_path),
        }))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "verify", "--dt", "1e-300", "--t-max", "1e300"],
            ["--mode", "trajectories", "--dt", "1e-300", "--t-max", "0.01", "--n-traj", "2"],
        ],
        ids=["infinite", "beyond-intp"],
    )
    def test_step_count_that_cannot_run_is_config_error(self, tmp_path, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "t_max / dt" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["trajectories", "ensemble-check", "figures"])
    def test_output_dir_that_cannot_be_created_is_config_error(self, tmp_path, capsys, mode):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        code, _, err = run_cli(
            capsys,
            "--mode", mode, "--dt", "1e-3", "--t-max", "0.01",
            *([] if mode == "figures" else ["--n-traj", "2"]),
            "--output-dir", str(blocker),
        )
        assert code == EXIT_CONFIG
        assert "output directory" in err
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("combined", "false"),
            ("combined", 1),
            ("n_traj", True),
            ("record_stride", True),
            ("seed", False),
            ("t_max", True),
        ],
    )
    def test_config_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        config = {"mode": "trajectories", "n_traj": 1, "dt": 1e-3, "t_max": 0.01,
                  "output_dir": str(tmp_path)}
        config[key] = value
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert key in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "fields, flags, key",
        [
            ('"omega": true', [], "omega"),
            ('"unraveling": "invariant", "sign": true', [], "sign"),
            ('"unraveling": "homodyne", "eta": true', [], "eta"),
            ('"initial": [[true, false], [0.0, 0.0]]', [], "initial"),
            ('"unraveling": {"type": "fixed", "u": [[[true, 0.0]]]}', [], "unraveling"),
            ('"model": {"dim": 2, "hamiltonian": [[[0, 0], [true, 0]], [[1, 0], [0, 0]]], '
             '"lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}', [], "model"),
            ('"unraveling": "fixed"', ["--u-json", "[[[true, 0.0]]]"], "u_json"),
            ('"unraveling": "homodyne"', ["--theta1", "inf"], "theta1"),
            ('"unraveling": "homodyne"', ["--theta2", "nan"], "theta2"),
            ('"unraveling": "homodyne", "theta1": 1e309', [], "theta1"),
            ('"unraveling": "invariant", "sign": 1.5', [], "sign"),
            ('"unraveling": {"type": "invariant", "sign": 1.5}', [], "sign"),
            ('"model": {"dim": 2.7, "hamiltonian": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], '
             '"lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}', [], "dim"),
            ('"n_traj": "3", "dt": "1e-3", "seed": "2"', [], "n_traj"),
            ('"t_max": "0.01"', [], "t_max"),
            ('"record_stride": "2"', [], "record_stride"),
            ('"gamma": "2", "omega": "1"', [], "gamma"),
            ('"unraveling": "homodyne", "eta": "0.5"', [], "eta"),
            ('"unraveling": "homodyne", "theta2": "0.3"', [], "theta2"),
            ('"unraveling": "invariant", "sign": "-1"', [], "sign"),
            ('"unraveling": "invariant_trace", "trace_r": "0.1"', [], "trace_r"),
            ('"initial": [["1", "0"], [0.0, 0.0]]', [], "initial"),
            ('"unraveling": {"type": "homodyne", "eta": "0.5"}', [], "unraveling"),
            ('"unraveling": {"type": "fixed", "u": [[["0.5", 0.0]]]}', [], "unraveling"),
            ('"model": {"dim": "2", "hamiltonian": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], '
             '"lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}', [], "model"),
            ('"unraveling": "fixed"', ["--u-json", '[[["0.5", 0.0]]]'], "u_json"),
        ],
        ids=["omega", "sign", "eta", "initial", "unraveling-u", "model-hamiltonian", "u-json",
             "theta1-inf", "theta2-nan", "theta1-overflow", "sign-fraction",
             "invariant-sign-fraction", "model-dim-fraction", "counts-as-strings",
             "t_max-string", "record_stride-string", "gamma-string", "eta-string",
             "theta2-string", "sign-string", "trace_r-string", "initial-strings",
             "unraveling-eta-string", "unraveling-u-string", "model-dim-string",
             "u-json-string"],
    )
    def test_value_a_run_would_misread_is_config_error(self, tmp_path, capsys, fields, flags, key):
        # each of these once ran with true read as 1, 1.5 as 1, 2.7 as 2,
        # or failed only inside the run as a property failure
        config_path = tmp_path / "run.json"
        config_path.write_text(
            '{"mode": "trajectories", "n_traj": 1, "dt": 1e-3, "t_max": 0.01, '
            f'"output_dir": {json.dumps(str(tmp_path / "out"))}, {fields}}}'
        )
        code, _, err = run_cli(capsys, "--config", str(config_path), *flags)
        assert code == EXIT_CONFIG
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    def test_number_as_a_string_in_a_model_file_is_config_error(self, tmp_path, capsys):
        model = build_atom(AtomParams(gamma=2.0, omega=1.0)).to_dict()
        model["hamiltonian"][0][1][0] = "0.5"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code, _, err = run_cli(
            capsys, "--mode", "trajectories", "--model", str(model_path), "--n-traj", "1",
            "--dt", "1e-3", "--t-max", "0.01", "--output-dir", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "model must hold numbers" in err
        assert not (tmp_path / "out").exists()

    def test_string_valued_keys_are_read_from_a_config_file(self, tmp_path, capsys):
        # mode, model as a path, unraveling as a name, u_json and output_dir
        # hold strings, as does an unraveling object's type
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(build_atom(AtomParams(gamma=2.0, omega=1.0)).to_dict()))
        for unraveling in ("fixed", {"type": "fixed", "u": [[[0.5, 0.0]]]}):
            out = tmp_path / str(len(str(unraveling)))
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({
                "mode": "trajectories", "model": str(model_path), "unraveling": unraveling,
                "u_json": "[[[0.5, 0.0]]]", "n_traj": 1, "dt": 1e-3, "t_max": 0.01,
                "output_dir": str(out),
            }))
            code, _, _ = run_cli(capsys, "--config", str(config_path))
            assert code == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["unraveling"] == {"type": "fixed", "u": [[[0.5, 0.0]]]}
            assert manifest["model"]["lindblads"][0][1][0][0] == pytest.approx(np.sqrt(2.0))

    def test_every_flag_is_a_config_key(self):
        # the README's promise: every flag can be set from a config file,
        # under its own name with underscores, and only initial has no flag
        actions = [a for a in build_parser()._actions if a.dest not in ("help", "config")]
        assert {a.dest for a in actions} == set(cli._OPTIONS) - {"initial"}
        for action in actions:
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]

    def test_run_that_does_not_fit_in_memory_is_config_error(self, tmp_path):
        # 1e12 steps index an array, but their times alone need 8 TB; the
        # address-space cap makes the allocation fail on any host
        resource = pytest.importorskip("resource")
        cap = 2 * 1024**3
        env = dict(os.environ, UNRAVEL_THREADS="1", OPENBLAS_NUM_THREADS="1")
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "unravel.cli", "--mode", "trajectories", "--dt", "1e-12",
             "--t-max", "1", "--n-traj", "1", "--output-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert "config error: the run does not fit in memory" in done.stderr
        assert "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_verify_creates_no_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_all", lambda seed: [])
        code, out, _ = run_cli(capsys, "--mode", "verify", "--output-dir", str(tmp_path / "new"))
        assert code == EXIT_OK
        assert "all 0 checks passed" in out
        assert not (tmp_path / "new").exists()
