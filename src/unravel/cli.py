"""Command-line front end for ensembles, verification gates, and CSV output.

Modes
-----
trajectories
    Run an ensemble and write one CSV per trajectory, or one combined file
    keyed by trajectory index, plus a manifest.
ensemble-check
    Run an ensemble, compare its mean state against deterministic
    integration of the master equation, write a summary JSON, and exit
    nonzero when the 3-standard-error gate fails.
figures
    Run the five named driven-atom scenarios, one trajectory each, from the
    resolved config, and write their Bloch/record CSVs and a manifest.
verify
    Run the deterministic self-check suite and report per-check lines.

Options come from an optional JSON config file (``--config``), overridden
field by field by command-line flags.  Each flag is a config key, spelled
with underscores (``--t-max`` is ``t_max``).  Only a config file can set
``initial``, the initial state as N rows of ``[re, im]`` (normalised; the
default is +x for N=2, else basis state 0), or give ``model`` and
``unraveling`` as JSON objects in their ``manifest.json`` form.  Exit
codes: 0 success, 1 gate or property failure, 2 configuration error,
which includes a step count ``t_max / dt`` too large to index an array, a
run that does not fit in memory, a config value of the wrong JSON type (a
JSON true, false or string where a number belongs, in a number key, in
``--u-json`` or in a model or unraveling object, all read by the library's
one reader of JSON numbers, ``operators._json_numbers``; or a true or false
under a string key: ``mode``, ``model``, ``unraveling``, ``u_json`` or
``output_dir``), a non-finite homodyne phase, a non-integral ``sign``, an
output directory that cannot be created, and, outside ``verify``, a ``dt``
whose product with the largest rate of the rows the kernel steps
(``_step_rate``) exceeds ``MAX_STEP_RATE`` (0.1), so that a model and its
shifts are judged alike.
Ensembles fan out over the CPUs available, with at least
``trajectory.MIN_LANES`` trajectories per worker process, so one narrower
than twice that runs in-process.  The environment variable
``UNRAVEL_THREADS`` sets the CPU count instead, and ``UNRAVEL_THREADS=1``
runs every ensemble in-process.  Output is byte-identical for any worker
count; ``trajectories`` mode records the worker processes and index ranges
used in its manifest.

In ``trajectories`` mode each worker formats and writes the CSV rows of
the index range it computed (``run_ensemble``'s ``per_range``), one
trajectory at a time, so the records never reach this process; for the
combined file the ranges' part files are appended in index order.  The
files are staged in a hidden folder inside the output directory and moved
into place only when every range has succeeded, so a failed run leaves no
CSV, part file or manifest behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .fluorescence import (
    SCENARIOS, AtomParams, _bloch_xyz, build_atom, plus_x_state, scenario_spec
)
from .operators import LindbladModel, _json_numbers, projector
from .oracle import GATE_ATOL, GATE_STANDARD_ERRORS, ensemble_summary, integrate_master
from .trajectory import NormCollapseError, default_workers, run_ensemble
from .unravelings import (
    SPEC_FIELDS,
    CovarianceError,
    UMatrixError,
    UnravelingSpec,
    _kernel_rows,
    spec_from_dict,
)
from .verify import format_report, run_all

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2

MODES = ("trajectories", "ensemble-check", "figures", "verify")

# Upper bound on dt times the largest rate the kernel steps (``_step_rate``).
# The linear stepper is first order: beyond this a step moves the state by
# a sizeable fraction of its norm, and renormalization hides the error.
MAX_STEP_RATE = 0.1

# Each option once: its config key, the value used when neither file nor
# flag sets it, and the settings of its flag ``--key-with-dashes``.  A key
# without flag settings can be set only in a config file.
_OPTIONS = {
    "mode": (None, dict(choices=MODES, help="what to run")),
    "model": ("atom", dict(help="'atom' (uses --gamma/--omega) or a path to a model JSON file")),
    "gamma": (1.0, dict(type=float, help="atom decay rate (default 1.0)")),
    "omega": (10.0, dict(type=float, help="atom Rabi frequency (default 10.0)")),
    "unraveling": ("heterodyne", dict(help=(
        "scenario name (homodyne_x, homodyne_y, heterodyne, invariant_plus, "
        "invariant_minus) or constructor (fixed, homodyne, invariant, invariant_trace)"))),
    "u_json": (None, dict(help="correlation matrix for 'fixed', rows of [re, im] pairs, "
                               "e.g. [[[1.0, 0.0]]]")),
    "eta": (None, dict(type=float, help="splitting efficiency for 'homodyne'")),
    "theta1": (None, dict(type=float, help="first phase for 'homodyne'")),
    "theta2": (None, dict(type=float, help="second phase for 'homodyne'")),
    "sign": (None, dict(type=int, choices=(1, -1), help="sign for 'invariant'")),
    "trace_r": (None, dict(type=float, help="weight for 'invariant_trace'")),
    "dt": (1e-4, dict(type=float, help="step size (default 1e-4)")),
    "t_max": (4.0, dict(type=float, help="total time (default 4.0)")),
    "n_traj": (2000, dict(type=int, help="ensemble size (default 2000)")),
    "seed": (0, dict(type=int, help="base seed for the noise streams (default 0)")),
    "record_stride": (None, dict(type=int, help="record every n-th step (default 1; "
                                                "ensemble-check defaults to steps//20)")),
    "output_dir": (".", dict(help="directory for emitted files (default '.')")),
    "initial": (None, None),
    "combined": (False, dict(action="store_true", default=None,
                             help="trajectories mode: write one CSV keyed by trajectory_index")),
}


# The unraveling flags and the fields of the unraveling object they set.
_UNRAVELING_FIELDS = {
    "eta": "eta", "theta1": "theta1", "theta2": "theta2", "sign": "sign", "trace_r": "R",
}


# The config keys whose JSON holds numbers only: the options whose flag has
# a numeric type, and the config-file-only initial state.  The others but
# combined hold strings, or model and unraveling objects the library reads.
_NUMBER_KEYS = {key for key, (_, flag) in _OPTIONS.items() if flag and "type" in flag} | {
    "initial"
}


# Options that figures mode, which runs its own five scenarios, one
# trajectory each, would otherwise ignore.
_NOT_FOR_FIGURES = ("unraveling", "u_json", *_UNRAVELING_FIELDS, "n_traj", "combined")


class ConfigError(ValueError):
    """The merged configuration violates one of its invariants."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters for one CLI invocation: ``unraveling``
    is one spec shared by the ``n_traj`` trajectories, or, for figures, the
    five scenario specs in ``SCENARIOS`` order, one per trajectory."""

    mode: str
    model: LindbladModel
    unraveling: UnravelingSpec | tuple[UnravelingSpec, ...]
    initial: np.ndarray
    atom: AtomParams
    dt: float
    t_max: float
    steps: int
    n_traj: int
    seed: int
    record_stride: int
    output_dir: Path
    combined: bool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unravel",
        description="Diffusive conditioned trajectories of Markovian open systems.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file; flags override its fields")
    for key, (_, flag) in _OPTIONS.items():
        if flag is not None:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
    return parser


def _read_json(path, what: str):
    """The JSON value in the file at ``path``, which errors call ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _merged_options(args: argparse.Namespace) -> tuple[dict, set]:
    """The options with defaults filled in, and the keys a file or flag set."""
    given = {} if args.config is None else _read_json(args.config, "config file")
    if not isinstance(given, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(given) - set(_OPTIONS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    for key, value in given.items():
        if key in _NUMBER_KEYS and value is not None:
            try:
                _json_numbers(value, key)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        elif isinstance(value, bool) and key != "combined":  # a string key
            raise ConfigError(f"{key} must not hold true or false, got {json.dumps(value)}")
    given.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)
    return {key: default for key, (default, _) in _OPTIONS.items()} | given, set(given)


def _as_positive_float(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(out) or out <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return out


def _as_count(value, name: str, minimum: int = 1) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if out < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return out


def _build_model(opts: dict) -> tuple[LindbladModel, AtomParams]:
    atom = AtomParams(
        gamma=_as_positive_float(opts["gamma"], "gamma"),
        omega=float(opts["omega"]),
    )
    raw = opts["model"]
    if isinstance(raw, dict):
        return LindbladModel.from_dict(raw), atom
    name = str(raw)
    if name == "atom":
        return build_atom(atom), atom
    return LindbladModel.from_dict(_read_json(name, f"model file {name!r}")), atom


def _build_unraveling(opts: dict) -> UnravelingSpec:
    raw = opts["unraveling"]
    if isinstance(raw, dict):
        return spec_from_dict(raw)
    name = str(raw)
    if name in SCENARIOS:
        return scenario_spec(name)
    data = {"type": name}
    if name == "fixed":
        if opts["u_json"] is None:
            raise ConfigError("unraveling 'fixed' requires --u-json")
        try:
            data["u"] = json.loads(opts["u_json"])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--u-json is not valid JSON: {exc}") from exc
        _json_numbers(data["u"], "u_json")
    # the scheme flags this type takes; it ignores the others
    takes = SPEC_FIELDS.get(name, ())
    for key, field in _UNRAVELING_FIELDS.items():
        if opts[key] is not None and field in takes:
            data[field] = opts[key]
    return spec_from_dict(data)


def _initial_state(opts: dict, model: LindbladModel) -> np.ndarray:
    raw = opts["initial"]
    if raw is None:
        if model.dim == 2:
            return plus_x_state()
        vec = np.zeros(model.dim, dtype=complex)
        vec[0] = 1.0
        return vec
    pairs = np.asarray(raw, dtype=float)
    if pairs.ndim != 2 or pairs.shape != (model.dim, 2):
        raise ConfigError(
            f"initial must be {model.dim} rows of [re, im], got shape {pairs.shape}"
        )
    if not np.all(np.isfinite(pairs)):
        raise ConfigError("initial state must have finite entries")
    vec = pairs[:, 0] + 1j * pairs[:, 1]
    norm = np.linalg.norm(vec)
    if not 0 < norm < np.inf:
        raise ConfigError(f"initial state must have a nonzero, finite norm, got {norm}")
    return vec / norm


def _step_rate(model: LindbladModel) -> float:
    """Largest rate one linear step must resolve, in the rows the kernel
    steps (``unravelings._kernel_rows``), so alike for a model and its
    shifts: the spectral norm of the linear generator or the largest
    ``||c_k||^2`` of the trace-free channels."""
    rows, _ = _kernel_rows(model)
    jumps = [np.linalg.norm(c, 2) ** 2 for c in rows[1 : model.num_lindblads + 1]]
    return max([np.linalg.norm(rows[0], 2)] + jumps)


def build_config(args: argparse.Namespace) -> RunConfig:
    opts, given = _merged_options(args)
    mode = opts["mode"]
    if mode is None:
        raise ConfigError(f"--mode is required; choose from {', '.join(MODES)}")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    dt = _as_positive_float(opts["dt"], "dt")
    t_max = _as_positive_float(opts["t_max"], "t_max")
    ratio = t_max / dt
    # Beyond this (or at an overflow to inf) no array can index the steps.
    if not ratio <= np.iinfo(np.intp).max:
        raise ConfigError(f"t_max / dt = {ratio:g} steps is more than any run can take")
    steps = int(round(ratio))
    if steps < 1:
        raise ConfigError(f"t_max {t_max} is below one step of dt {dt}")
    # The ensemble-check standard errors are jackknife estimates.
    n_traj = _as_count(opts["n_traj"], "n_traj", minimum=2 if mode == "ensemble-check" else 1)
    seed = _as_count(opts["seed"], "seed", minimum=0)
    if mode == "figures":
        if opts["model"] != "atom" or opts["initial"] is not None:
            raise ConfigError("figures runs the driven atom (--gamma/--omega) from +x; "
                              "it takes no --model other than atom and no initial state")
        ignored = [key for key in _NOT_FOR_FIGURES if key in given]
        if ignored:
            flags = ", ".join("--" + key.replace("_", "-") for key in ignored)
            raise ConfigError(f"figures runs its own five scenarios, one trajectory each; "
                              f"it takes no {flags}")
        unraveling, n_traj = tuple(scenario_spec(name) for name in SCENARIOS), len(SCENARIOS)
    if not isinstance(opts["combined"], bool):
        raise ConfigError(f"combined must be true or false, got {opts['combined']!r}")
    if opts["record_stride"] is None:
        stride = max(1, steps // 20) if mode == "ensemble-check" else 1
    else:
        stride = _as_count(opts["record_stride"], "record_stride")
    try:
        model, atom = _build_model(opts)
        if mode != "figures":
            unraveling = _build_unraveling(opts)
            if not unraveling.state_dependent:
                unraveling.resolve(model)
        initial = _initial_state(opts, model)
        default_workers()  # a bad UNRAVEL_THREADS is a config error, not a crash later
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    if mode != "verify":
        rate = _step_rate(model)
        if dt * rate > MAX_STEP_RATE:
            raise ConfigError(
                f"dt {dt:g} is too large for this model: dt * rate = {dt * rate:.3g} "
                f"exceeds {MAX_STEP_RATE:g}; use dt <= {MAX_STEP_RATE / rate:.3g}"
            )
    return RunConfig(
        mode=mode,
        model=model,
        unraveling=unraveling,
        initial=initial,
        atom=atom,
        dt=dt,
        t_max=t_max,
        steps=steps,
        n_traj=n_traj,
        seed=seed,
        record_stride=stride,
        output_dir=Path(str(opts["output_dir"])),
        combined=opts["combined"],
    )


def _csv_line(fields) -> str:
    """One CSV header row, CRLF-terminated: for the plain identifiers the
    CLI writes, the bytes ``csv.writer`` gives."""
    return ",".join(fields) + "\r\n"


def _complex_columns(prefix: str, count: int) -> list[str]:
    return [f"{part}_{prefix}_{i}" for i in range(count) for part in ("re", "im")]


def _trajectory_lines(prefix: str, times, states, currents) -> str:
    """CSV rows of one trajectory, each led by ``prefix``, in the format
    ``csv.writer`` gives the same values as strings: times to 10 and
    components to 17 significant digits, rows ended by CRLF."""
    template = prefix + "%.10g" + ",%.17g" * (2 * (states.shape[1] + currents.shape[1])) + "\r\n"
    table = np.concatenate(
        [times[:, None], states.view(float), currents.view(float)], axis=1
    )
    return "".join([template % tuple(row) for row in table.tolist()])


def _write_range(folder: Path, header: str, combined: bool, first, times, states, currents):
    """Write the CSV rows of one index range of trajectories into ``folder``,
    one trajectory at a time, and return the names of the files written:
    one part file of index-led rows when ``combined``, else one file with
    ``header`` per trajectory.  Runs in the process that computed the range."""
    if combined:
        name = f"part_{first:05d}.csv"
        with (folder / name).open("w", newline="") as fh:
            for m in range(states.shape[0]):
                fh.write(_trajectory_lines(f"{first + m},", times, states[m], currents[m]))
        return [name]
    names = []
    for m in range(states.shape[0]):
        name = f"trajectory_{first + m:05d}.csv"
        with (folder / name).open("w", newline="") as fh:
            fh.write(header)
            fh.write(_trajectory_lines("", times, states[m], currents[m]))
        names.append(name)
    return names


def _ensemble(config: RunConfig, per_range=None):
    """The run ``config`` describes: every mode's one ``run_ensemble`` call."""
    return run_ensemble(
        config.model, config.unraveling, config.initial, n_traj=config.n_traj, dt=config.dt,
        steps=config.steps, seed=config.seed, record_stride=config.record_stride,
        per_range=per_range,
    )


def _write_trajectories(config: RunConfig) -> int:
    columns = (
        ["t"]
        + _complex_columns("psi", config.model.dim)
        + _complex_columns("J", config.model.num_lindblads)
    )
    # Files are written into a staging folder and moved into place only
    # when every range has succeeded, so a failed run leaves no output.
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=config.output_dir))
    write = partial(_write_range, staging, _csv_line(columns), config.combined)
    try:
        run = _ensemble(config, write)
        if config.combined:
            files = ["trajectories.csv"]
            with (staging / files[0]).open("wb") as fh:
                fh.write(_csv_line(["trajectory_index"] + columns).encode())
                for names in run.range_results:
                    part = staging / names[0]
                    with part.open("rb") as src:
                        shutil.copyfileobj(src, fh)
                    part.unlink()
        else:
            files = [name for names in run.range_results for name in names]
        for name in files:
            os.replace(staging / name, config.output_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest = {
        "mode": "trajectories",
        "model": config.model.to_dict(),
        "unraveling": config.unraveling.to_dict(),
        "initial": [[float(z.real), float(z.imag)] for z in config.initial],
        "parameters": {
            "dt": config.dt,
            "t_max": config.t_max,
            "n_traj": config.n_traj,
            "seed": config.seed,
            "record_stride": config.record_stride,
            "combined": config.combined,
        },
        "files": files,
        "workers": run.workers,
        "lane_ranges": run.lane_ranges,
    }
    with (config.output_dir / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(files)} file(s) and manifest.json to {config.output_dir}")
    return EXIT_OK


def _run_ensemble_check(config: RunConfig) -> int:
    run = _ensemble(config)
    solution = integrate_master(config.model, projector(config.initial), config.dt, config.steps)
    reference = solution[np.arange(0, config.steps, config.record_stride)]
    summary = ensemble_summary(run.times, run.states, reference)
    with (config.output_dir / "summary.json").open("w") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
    if summary.passed():
        print(
            f"ensemble-check: mean of {config.n_traj} trajectories within {GATE_STANDARD_ERRORS:g}"
            f" s.e. of the master equation at all {run.times.shape[0]} recorded times"
        )
        return EXIT_OK
    worst = int(np.argmax(summary.trace_distances / summary.bounds))
    print(
        "ensemble-check failed: ensemble mean deviates from the master equation "
        f"solution at t={summary.times[worst]:g} "
        f"(distance {summary.trace_distances[worst]:.3e}, "
        f"{GATE_STANDARD_ERRORS:g} s.e. + {GATE_ATOL:g} = {summary.bounds[worst]:.3e})",
        file=sys.stderr,
    )
    return EXIT_GATE


def write_figure_csvs(run, output_dir: Path, manifest: dict) -> None:
    """Write ``manifest`` to ``output_dir/manifest.json`` and one CSV per
    scenario it names: t and the Bloch and record components of that
    trajectory of ``run``, as ``csv.writer`` writes them as strings (times to
    10 and the rest to 12 significant digits, rows ended by CRLF)."""
    xyz = _bloch_xyz(run.states)
    template = "%.10g" + ",%.12g" * 5 + "\r\n"
    for entry in manifest["scenarios"].values():
        index = entry["trajectory_index"]
        table = np.concatenate(
            [run.times[:, None], xyz[index], run.currents[index].view(float)], axis=1
        )
        with (output_dir / entry["file"]).open("w", newline="") as fh:
            fh.write(_csv_line(["t", "x", "y", "z", "re_J", "im_J"]))
            fh.write("".join([template % tuple(row) for row in table.tolist()]))
    with (output_dir / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2)


def _run_figures(config: RunConfig) -> int:
    # build_config made the config the atom from +x under the five scenarios
    run = _ensemble(config)
    manifest = {
        "parameters": {"gamma": config.atom.gamma, "omega": config.atom.omega, "dt": config.dt,
                       "t_max": config.t_max, "record_stride": config.record_stride},
        "seed": config.seed,
        "scenarios": {name: {"file": f"{name}.csv", "trajectory_index": index}
                      for index, name in enumerate(SCENARIOS)},
    }
    write_figure_csvs(run, config.output_dir, manifest)
    print(f"wrote {len(SCENARIOS)} scenario file(s) and manifest.json to {config.output_dir}")
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    results = run_all(config.seed)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_GATE


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and return the exit code.  An
    output directory that cannot be created, or a run whose arrays cannot
    be allocated, raises ``ConfigError``."""
    if config.mode != "verify":
        try:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    handlers = {
        "trajectories": _write_trajectories,
        "ensemble-check": _run_ensemble_check,
        "figures": _run_figures,
        "verify": _run_verify,
    }
    try:
        return handlers[config.mode](config)
    except (NormCollapseError, CovarianceError, UMatrixError) as exc:
        print(f"property failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GATE
    except MemoryError as exc:
        raise ConfigError(f"the run does not fit in memory: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(build_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
