"""Driven two-level emitter: the standard testbed for record correlations.

A resonantly driven atom with decay rate ``gamma`` and Rabi frequency
``omega`` has Hamiltonian ``(omega/2) sigma_x`` and the single Lindblad
operator ``sqrt(gamma) sigma_minus``.  Basis order is (excited, ground), so
``sigma_z`` is +1 on the excited state, and the Bloch components obey

    x' = -(gamma/2) x
    y' = -(gamma/2) y - omega z
    z' = omega y - gamma (z + 1)

Five record correlations are bundled as named scenarios: the two quadrature
records u = +1 and u = -1, the uncorrelated record u = 0, and the two
extremal state-dependent choices.  For each, the mean record is available
in closed form; the closed forms are redundant consequences of the general
mean-current formula, so they live in the tests as cross-checks only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .operators import LindbladModel, _check_run, check_density_matrix, check_pure_state
from .trajectory import run_ensemble
from .unravelings import UnravelingSpec, spec_from_dict

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)

KET_EXCITED = np.array([1, 0], dtype=complex)
KET_GROUND = np.array([0, 1], dtype=complex)

FIGURE_HEADER = ("t", "x", "y", "z", "re_J", "im_J")

# The named scenarios as unraveling objects in their JSON form.
_SCENARIO_SPECS = {
    "homodyne_x": {"type": "fixed", "u": [[[1.0, 0.0]]]},
    "homodyne_y": {"type": "fixed", "u": [[[-1.0, 0.0]]]},
    "heterodyne": {"type": "heterodyne"},
    "invariant_plus": {"type": "invariant", "sign": 1},
    "invariant_minus": {"type": "invariant", "sign": -1},
}
SCENARIOS = tuple(_SCENARIO_SPECS)


@dataclass(frozen=True)
class AtomParams:
    """Decay rate and Rabi frequency of the driven emitter."""

    gamma: float = 1.0
    omega: float = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be non-negative and finite, got {self.omega}")


def build_atom(params: AtomParams) -> LindbladModel:
    """Model with H = (omega/2) sigma_x and c = sqrt(gamma) sigma_minus."""
    return LindbladModel(
        hamiltonian=0.5 * params.omega * SIGMA_X,
        lindblads=(np.sqrt(params.gamma) * SIGMA_MINUS,),
    )


def plus_x_state() -> np.ndarray:
    """The +1 eigenstate of sigma_x, the conventional initial condition."""
    return (KET_EXCITED + KET_GROUND) / np.sqrt(2.0)


def _bloch_xyz(psi) -> np.ndarray:
    """Bloch components of two-level amplitudes ``psi = (a, b)`` of shape
    ``(..., 2)``, stacked as ``(..., 3)``: ``x = 2 Re(a b*)``,
    ``y = -2 Im(a b*)`` and ``z = |a|^2 - |b|^2``."""
    a, b = psi[..., 0], psi[..., 1]
    coherence = a * b.conj()
    return np.stack(
        [2.0 * coherence.real, -2.0 * coherence.imag, np.abs(a) ** 2 - np.abs(b) ** 2],
        axis=-1,
    )


def bloch(state) -> np.ndarray:
    """Bloch components (x, y, z) of a two-level state vector or density
    matrix, checked by ``check_pure_state`` or ``check_density_matrix``."""
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return _bloch_xyz(check_pure_state(s, 2))
    rho = check_density_matrix(s, 2)
    return np.array([np.trace(p @ rho).real for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def scenario_spec(name: str) -> UnravelingSpec:
    """Unraveling specification for one of the named scenarios."""
    if name not in _SCENARIO_SPECS:
        raise ValueError(f"unknown scenario {name!r}; choose one of {SCENARIOS}")
    return spec_from_dict(_SCENARIO_SPECS[name])


def z_drift_residual(states, dt: float, params: AtomParams) -> np.ndarray:
    """Per-step difference between the sampled z motion and its drift.

    For consecutive recorded states (stride 1) returns
    ``z_{i+1} - z_i - dt * (omega y_i - gamma (z_i + 1))``.  Under the
    extremal sign=+1 correlations the noise leaves z entirely, so the
    residual shrinks linearly with dt; for uncorrelated records it carries
    a square-root-of-dt noise component.
    """
    _check_run(dt, ())
    psi = np.asarray(states, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] < 2:
        raise ValueError("need at least two consecutive states")
    _, y, z = _bloch_xyz(psi).T
    drift = params.omega * y[:-1] - params.gamma * (z[:-1] + 1.0)
    return z[1:] - z[:-1] - dt * drift


def write_figure_csvs(
    params: AtomParams,
    dt: float,
    t_max: float,
    seed: int,
    output_dir,
    record_stride: int = 1,
) -> dict:
    """Run one trajectory per scenario and write Bloch/record CSV files.

    The scenarios run as one batch.  Every scenario starts from the +x
    eigenstate and uses the stream keyed by ``(seed, scenario_index)``.
    Returns the manifest that is also written to ``manifest.json``.
    """
    _check_run(dt, ())
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = build_atom(params)
    steps = int(round(t_max / dt))
    manifest = {
        "parameters": {
            "gamma": params.gamma,
            "omega": params.omega,
            "dt": dt,
            "t_max": t_max,
            "record_stride": record_stride,
        },
        "seed": int(seed),
        "scenarios": {},
    }
    run = run_ensemble(
        model,
        [scenario_spec(name) for name in SCENARIOS],
        plus_x_state(),
        n_traj=len(SCENARIOS),
        dt=dt,
        steps=steps,
        seed=seed,
        record_stride=record_stride,
    )
    xyz = _bloch_xyz(run.states)
    # The format csv.writer gives these values as strings, rows ended by CRLF.
    template = "%.10g" + ",%.12g" * 5 + "\r\n"
    for index, name in enumerate(SCENARIOS):
        path = out / f"{name}.csv"
        table = np.concatenate(
            [run.times[:, None], xyz[index], run.currents[index].view(float)], axis=1
        )
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerow(FIGURE_HEADER)
            fh.write("".join([template % tuple(row) for row in table.tolist()]))
        manifest["scenarios"][name] = {"file": path.name, "trajectory_index": index}
    with (out / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
