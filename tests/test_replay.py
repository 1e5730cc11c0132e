"""Replay of the written records: each row's state, stepped by the quantum
filter that the row's currents drive, gives the next row's state.

The kernel's step, psi <- psi + dt (-iH - sum_k c_k^dag c_k / 2) psi +
sum_k conj(J_k) dt c_k psi and then renormalisation, is the filter driven by
the record (Gambetta & Wiseman, PRA 64, 042105 (2001)).  It needs the
currents only: neither u nor the noise enters, so the state-dependent
schemes replay like the constant ones.  On a projector it reads
rho <- A rho A^dag / Tr, A = I + dt (-iH - sum c^dag c / 2) + sum conj(J) dt c.
This replica is numpy alone, independent of the kernel.  A current written
beside the wrong row or lane moves the replayed projector by about 1e-2;
rounding in the 17-digit trajectory CSVs moves it by under 1e-15, and in
the 12-digit figures CSVs by under 1e-12.  Scope: the atom (K=1, a channel
without trace) at record stride 1.
"""

import json

import numpy as np
import pytest

from unravel import AtomParams, build_atom
from unravel.cli import EXIT_OK, main
from unravel.fluorescence import SCENARIOS, SIGMA_X

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

DT = 1e-3
# Largest projector entry the replay may miss by: the trajectory CSVs hold
# 17 significant digits, the figures CSVs 12.
TRAJECTORY_TOL = 1e-12
FIGURES_TOL = 1e-10
# Smallest miss a current one row out of place must give.
SHIFTED_MIN = 1e-4


def replay_deviation(model, dt, rhos, currents) -> float:
    """Largest entry of ``|A_p rho_p A_p^dag / Tr - rho_{p+1}|`` over the
    rows ``p`` of one trajectory: projectors ``(T, N, N)`` and the currents
    ``(T, K)`` written beside them."""
    cs = np.array(model.lindblads, dtype=complex).reshape(-1, model.dim, model.dim)
    drift = -1j * model.hamiltonian - 0.5 * sum(c.conj().T @ c for c in cs)
    a = np.eye(model.dim) + dt * drift + dt * np.einsum("pk,kab->pab", currents[:-1].conj(), cs)
    out = a @ rhos[:-1] @ a.conj().transpose(0, 2, 1)
    out /= np.trace(out, axis1=1, axis2=2).real[:, None, None]
    return float(np.abs(out - rhos[1:]).max())


def projectors(psi):
    return np.einsum("pa,pb->pab", psi, psi.conj())


def complex_columns(table, first, count):
    """The complex values of ``count`` re, im column pairs from column ``first``."""
    pairs = table[:, first : first + 2 * count]
    return pairs[:, 0::2] + 1j * pairs[:, 1::2]


def read_trajectories(folder):
    """Each trajectory's states and currents, in index order, from the
    manifest and CSVs of ``--mode trajectories`` for a one-channel model."""
    manifest = json.loads((folder / "manifest.json").read_text())
    if manifest["parameters"]["combined"]:
        table = np.loadtxt(folder / "trajectories.csv", delimiter=",", skiprows=1)
        index = table[:, 0].astype(int)
        tables = [table[index == i, 1:] for i in range(manifest["parameters"]["n_traj"])]
    else:
        tables = [np.loadtxt(folder / name, delimiter=",", skiprows=1, ndmin=2)
                  for name in manifest["files"]]
    return [(complex_columns(t, 1, 2), complex_columns(t, 5, 1)) for t in tables]


@pytest.mark.parametrize("unraveling", ["heterodyne", "homodyne_x", "invariant_plus"])
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("combined", [False, True], ids=["per-trajectory", "combined"])
def test_trajectory_records_replay(tmp_path, capsys, monkeypatch, unraveling, threads, combined):
    monkeypatch.setenv("UNRAVEL_THREADS", threads)
    flags = ["--combined"] if combined else []
    code = main([
        "--mode", "trajectories", "--unraveling", unraveling, "--n-traj", "512",
        "--dt", str(DT), "--t-max", "0.05", "--seed", "5", *flags,
        "--output-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["workers"] == int(threads)
    model = build_atom(AtomParams())
    records = read_trajectories(tmp_path)
    assert len(records) == 512
    worst = max(replay_deviation(model, DT, projectors(psi), j) for psi, j in records)
    assert worst <= TRAJECTORY_TOL
    # the replay tells a current one row out of place
    psi, j = records[0]
    assert replay_deviation(model, DT, projectors(psi), np.roll(j, 1, axis=0)) > SHIFTED_MIN


def test_figure_records_replay(tmp_path, capsys):
    code = main(["--mode", "figures", "--dt", str(DT), "--t-max", "0.05", "--seed", "2",
                 "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    model = build_atom(AtomParams())
    for name in SCENARIOS:
        table = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1)
        x, y, z = (table[:, i, None, None] for i in (1, 2, 3))
        rhos = (np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2
        j = complex_columns(table, 4, 1)
        assert replay_deviation(model, DT, rhos, j) <= FIGURES_TOL, name
        assert replay_deviation(model, DT, rhos, np.roll(j, 1, axis=0)) > SHIFTED_MIN, name
