"""Batch execution of scenario configs and deterministic result files.

Every task computes its full result in memory first and only then writes
files (each through a temp file + atomic rename), so a failing run never
leaves partial outputs.  A manifest.json records the config hash, tool
versions and per-file checksums; reruns of the same config are
byte-identical, so the checksums are stable.

Spectrum payloads carry their series as 1-D numpy arrays.  The JSON
writer encodes each distinct array once per ``run_scenario`` call and
reuses the text, so a sweep's shared spectrum grid is formatted once, not
once per point.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import replace
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np
import scipy

from . import __version__
from .bistability import bistability_curve
from .closed_form import spectrum_closed_form
from .config import ScenarioConfig, TaskSpec, apply_sweep_value, serialize_config
from .dynamics import bandwidth, hysteresis_sweep, switch_metrics
from .errors import NumericalError, OptomechError, OutputError
from .spectrum import spectrum_matrix
from .steady_state import rocking_parameter, steady_state

FLOAT_FMT = "%.12g"
_CONTAINERS = (dict, list, tuple, np.ndarray)


def _csv(headers, columns) -> str:
    """Header line, then one line per row of ``columns`` (one per header):
    a float column's cells ``%.12g``, any other column's ``str``.

    The line format comes from the columns' dtypes, and the whole table is
    formatted by a single ``%``.
    """
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(headers):
        raise ValueError(f"need {len(headers)} CSV columns, one per header, got {len(columns)}")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("CSV columns differ in length")
    line = ",".join(FLOAT_FMT if column.dtype.kind == "f" else "%s" for column in columns)
    cells = tuple(chain.from_iterable(zip(*(column.tolist() for column in columns))))
    return ",".join(headers) + "\n" + (line + "\n") * rows % cells


def _json(payload, memo: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    with a 1-D numpy array written as the list of its items.

    Nested dicts need str keys (the payloads' only kind).  ``memo`` maps an
    array's bits at a depth to its text: ``run_scenario`` passes one dict to
    all its calls, so each 1-D array is encoded once per ``run_scenario`` call.
    """
    return _json_at(payload, "", memo) + "\n"


@functools.cache
def _flat_encoder(item_separator: str):
    """C-encoder ``encode`` for one nesting depth (cached: building one costs
    more than encoding a short list)."""
    return json.JSONEncoder(sort_keys=True, separators=(item_separator, ": ")).encode


def _json_at(value, pad: str, memo: dict) -> str:
    """Indented JSON of ``value`` whose closing bracket sits at ``pad``.

    A dict or list holding no containers, and a 1-D array, is encoded by one
    call of the C encoder, with this depth's newline and indent as its item
    separator.  json.dumps with ``indent`` would format every item in Python.
    An array's text is kept in ``memo`` under its exact bits (so 0.0 and -0.0,
    or two NaN payloads, stay apart) and reused for an equal array.
    """
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, np.ndarray):
        key = (pad, value.dtype.str, value.tobytes())
        if key not in memo:
            body = _flat_encoder(sep)(value.tolist())[1:-1]
            memo[key] = "[\n" + inner + body + "\n" + pad + "]" if value.size else "[]"
        return memo[key]
    if not value:
        return json.dumps(value)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    if not any(map(isinstance, items, repeat(_CONTAINERS))):
        body = _flat_encoder(sep)(value)[1:-1]
    elif is_dict:
        body = sep.join(f"{encode_basestring_ascii(key)}: {_json_at(value[key], inner, memo)}"
                        for key in sorted(value))
    else:
        body = sep.join(_json_at(item, inner, memo) for item in value)
    return ("{\n" if is_dict else "[\n") + inner + body + "\n" + pad + ("}" if is_dict else "]")


def run_bistability(config: ScenarioConfig):
    opt = dict(config.task.options)
    grid = np.linspace(opt["input_min"], opt["input_max"], opt["input_points"])
    c = rocking_parameter(config.drive)
    curve = bistability_curve(config.params, grid, c)
    starts = np.searchsorted(curve.point, np.arange(grid.size + 1))
    columns = (grid[curve.point], np.arange(curve.point.size) - starts[curve.point],
               curve.p_trans, np.where(curve.stable, "stable", "unstable"))
    headers = ("input_power[omega_m^2]", "branch_index",
               "p_trans[dimensionless]", "stability")
    branches = [{"p_trans": p, "stable": s}
                for p, s in zip(curve.p_trans.tolist(), curve.stable.tolist())]
    bounds = starts.tolist()
    payload = {
        "task": "bistability",
        "rocking_c": c,
        "knees": list(curve.knees),
        "points": [{"input_power": ip, "branches": branches[lo:hi]}
                   for ip, lo, hi in zip(grid.tolist(), bounds[:-1], bounds[1:])],
    }
    return {"csv": {"bistability.csv": (headers, columns)},
            "json": {"bistability.json": payload},
            "always": {"knees.json": {"rocking_c": c, "knees": list(curve.knees)}}}


def run_spectrum(config: ScenarioConfig):
    opt = dict(config.task.options)
    grid = np.linspace(opt["omega_min"], opt["omega_max"], opt["omega_points"])
    c = rocking_parameter(config.drive)
    steady = steady_state(config.params, config.drive.eta0, c, opt["branch"])
    backend = spectrum_matrix if opt["backend"] == "matrix" else spectrum_closed_form
    series = backend(config.params, steady, grid)
    headers = ("omega[omega_m]", "s_q[dimensionless]")
    peaks = [{"position": p.position, "height": p.height, "prominence": p.prominence}
             for p in series.peaks]
    payload = {"task": "spectrum", "backend": opt["backend"], "branch": opt["branch"],
               "p_trans": steady.p_trans, "rocking_c": c, "peaks": peaks,
               "omega": series.omega_grid, "s_q": series.s_q}
    return {"csv": {"spectrum.csv": (headers, (series.omega_grid, series.s_q))},
            "json": {"spectrum.json": payload},
            "always": {"peaks.json": {"count": len(peaks), "peaks": peaks}}}


def run_switch_metrics(config: ScenarioConfig):
    opt = dict(config.task.options)
    metrics = switch_metrics(config.params, config.drive)
    bw = None
    if opt["bandwidth_points"] >= 2:
        grid = np.linspace(opt["bandwidth_min"], opt["bandwidth_max"], opt["bandwidth_points"])
        bw = bandwidth(config.params, config.drive.eta0, config.drive.p_amp, grid)
    headers = ("switch_ratio[dimensionless]", "gain[dimensionless]",
               "bandwidth[omega_m]")
    columns = ([metrics.switch_ratio], [metrics.gain], [bw if bw is not None else np.nan])
    payload = {"task": "switch-metrics", "switch_ratio": metrics.switch_ratio,
               "gain": metrics.gain, "bandwidth": bw}
    return {"csv": {"metrics.csv": (headers, columns)},
            "json": {"metrics.json": payload}, "always": {}}


def run_hysteresis(config: ScenarioConfig):
    opt = dict(config.task.options)
    ramp = np.linspace(opt["input_min"], opt["input_max"], opt["input_points"])
    c = rocking_parameter(config.drive)
    up, down = hysteresis_sweep(config.params, ramp, c, rate=opt["rate"] or None)
    legs = np.concatenate([up, down])
    headers = ("direction", "input_power[omega_m^2]", "output_power[dimensionless]")
    columns = (np.repeat(["up", "down"], [len(up), len(down)]), legs[:, 0], legs[:, 1])
    payload = {"task": "hysteresis", "rocking_c": c, "up": up.tolist(), "down": down.tolist()}
    return {"csv": {"hysteresis.csv": (headers, columns)},
            "json": {"hysteresis.json": payload}, "always": {}}


def run_sweep(config: ScenarioConfig):
    """One result bundle per sweep value; a point's package error is recorded
    without aborting the sweep, any other exception propagates."""
    opt = dict(config.task.options)
    inner = TaskSpec(name=opt.pop("task"), options=tuple(opt.items()))
    bundle = {"csv": {}, "json": {}, "always": {}}
    index = []
    for i, value in enumerate(config.sweep.values):
        entry = {"index": i, "value": value, "status": "ok"}
        try:
            point = replace(apply_sweep_value(config, value), task=inner, sweep=None)
            result = TASK_RUNNERS[inner.name](point)
        except OptomechError as exc:
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        else:
            for kind, contents in result.items():
                for name, content in contents.items():
                    stem, dot, ext = name.rpartition(".")
                    bundle[kind][f"{stem}_{i:03d}{dot}{ext}"] = content
        index.append(entry)
    if all(entry["status"] == "error" for entry in index):
        raise NumericalError("every sweep point failed; first error: "
                             + index[0]["error"]["message"])
    bundle["always"]["sweep_index.json"] = {
        "parameter": config.sweep.parameter, "points": index}
    return bundle


TASK_RUNNERS = {
    "bistability": run_bistability,
    "spectrum": run_spectrum,
    "switch-metrics": run_switch_metrics,
    "hysteresis": run_hysteresis,
    "sweep": run_sweep,
}


def _atomic_write(path: str, data: bytes):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            if os.path.exists(tmp):
                os.unlink(tmp)
        except OSError:
            pass
        raise OutputError(f"cannot write {path}: {exc}") from exc


def run_scenario(config: ScenarioConfig, out_dir: str | None = None,
                 formats=None, jobs: int = 1) -> dict:
    """Execute the config and write result files plus manifest.json.

    Returns the manifest dictionary.  All computation happens before any
    file is touched; files are written atomically.  Sweeps run in this
    process; ``jobs`` accepts only 1 and stays for callers that still pass
    ``jobs=1`` (the benchmark harness), until ROADMAP item 5 drops it.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (sweeps run in-process), got {jobs!r}")
    out_dir = out_dir or config.output.directory
    if not out_dir:
        raise OutputError("no output directory given (config [output] dir or --out)")
    formats = tuple(formats) if formats else config.output.formats

    bundle = TASK_RUNNERS[config.task.name](config)

    files = {}
    memo = {}
    if "csv" in formats:
        for name, (headers, columns) in bundle["csv"].items():
            files[name] = _csv(headers, columns).encode()
    if "json" in formats:
        for name, payload in bundle["json"].items():
            files[name] = _json(payload, memo).encode()
    for name, payload in bundle["always"].items():
        files[name] = _json(payload, memo).encode()

    config_text = serialize_config(config)
    manifest = {
        "task": config.task.name,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "versions": {
            "optomech-switch": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": {name: hashlib.sha256(data).hexdigest()
                  for name, data in sorted(files.items())},
    }

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name, data in sorted(files.items()):
        _atomic_write(os.path.join(out_dir, name), data)
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  _json(manifest, memo).encode())
    return manifest
