"""Batch execution of scenario configs and deterministic result files.

Every task computes its full result in memory first and only then writes
files, each through a temp file + atomic rename, manifest.json last: a
failed write keeps the files before it but no temp file, so a directory
without manifest.json holds an incomplete run.  The manifest records the
config hash, tool versions and per-file checksums; reruns of the same
config are byte-identical, so the checksums are stable.

Spectrum payloads carry their series as 1-D numpy arrays.  JSON files are
json.dumps's indented, key-sorted bytes, written by orjson's compiled
encoder (Ryu's shortest round-trip digits, the same digits as ``repr``)
and two byte rewrites of its exponent layout; see ``_json``.  orjson's
numpy mode sees only the float64 arrays at the top level of a dict
payload; anything else numpy in a payload (a scalar, a nested array,
another dtype or byte order) makes json.dumps write the payload, so task
payloads hold Python scalars.  A top-level float64 array whose items are
all zero or lie in 1e-4 <= |x| < 1e16 is checked by value: both encoders
print those items positionally, so their text needs no rewrite, and only
the rest of the payload is checked as text.

CSV cells are ``"%.12g" % x``, byte for byte, but most are printed by the
same encoder: numpy rounds each float to 12 significant digits (one exact
power of ten, one rounded product, ``rint``, one rounded quotient), and the
double nearest a decimal of at most 12 digits has that decimal as its
shortest repr, since such a decimal round-trips.  Cells whose rounding
cannot be proven so (ties, the scientific layout, integers, NaN, +-inf)
and non-float columns go through ``%`` or ``str``; see ``_round12``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import replace
from itertools import chain

import numpy as np
import orjson
import scipy

from . import __version__
from .bistability import bistability_curve
from .closed_form import spectrum_closed_form
from .config import (ScenarioConfig, TaskSpec, apply_sweep_value, parse_formats,
                     serialize_config)
from .dynamics import bandwidth, hysteresis_sweep, switch_metrics
from .errors import NumericalError, OptomechError, OutputError
from .spectrum import spectrum_matrix
from .steady_state import rocking_parameter, steady_state

FLOAT_FMT = "%.12g"
# 10**k for k = 0..22, each exact in a double.
_POW10 = np.array([float(10**k) for k in range(23)])


def _round12(x):
    """``(y, sure)``: ``x`` rounded to 12 significant digits, and where
    ``"%.12g" % x`` is sure to be y's shortest digits laid out positionally.

    p = 11 - floor(log10|x|) is guessed and clamped to 0..22, so 10**p is
    exact and m = x * 10**p is rounded once.  Where 1e11 <= |m| < 1e12 the
    guess held; a float32 log10, at half the cost of a float64 one, misses
    only near a power of ten.  Rounding is monotone and every half-integer
    below 2**52 is a double, so m's one rounding can reach a half but never
    cross one: where |m - rint(m)| < 1/2, rint(m) is the exact product
    rounded to an integer, as ``%.12g`` rounds it, and y = rint(m) / 10**p
    is the double nearest that decimal of at most 12 digits.  The decimal
    round-trips (DBL_DIG = 15), so it is y's shortest repr, and ``%g``
    writes it positionally where 1e-4 <= |y| < 1e12.  An integer-valued y
    is not sure either, as ``repr`` ends it in ``.0``; that also leaves out
    zeros of either sign and every |y| >= 1e12.  NaN, +-inf and subnormals
    never are.
    """
    with np.errstate(all="ignore"):
        guess = 11 - np.floor(np.log10(np.abs(x), dtype=np.float32))
        scale = _POW10[np.fmin(np.fmax(guess, 0), 22).astype(np.intp)]
        m = x * scale
        r = np.rint(m)
        y = r / scale
        size, tie = np.abs(m), np.abs(m - r)
    return y, ((1e11 <= size) & (size < 1e12) & (tie < 0.5)
               & (np.abs(y) >= 1e-4) & (np.floor(y) != y))


def _csv(headers, columns) -> bytes:
    """Header line, then one line per row of ``columns`` (one per header):
    a float column's cells ``%.12g``, any other column's ``str``; encoded.

    Every cell ``_round12`` is sure of is printed by a single ``orjson.dumps``
    of the table's cells, row-major, in one float64 array.  Ryu's shortest
    digits of such a cell's y are ``%.12g``'s, and orjson writes them
    positionally too.  Every other cell (NaN, +-inf, integers, the scientific
    layout, ties and any non-float column) is ``null`` there; the nulls
    are replaced, in order, by the cell's ``FLOAT_FMT % value`` or
    ``str(value)``.
    """
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(headers):
        raise ValueError(f"need {len(headers)} CSV columns, one per header, got {len(columns)}")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("CSV columns differ in length")
    head = (",".join(headers) + "\n").encode()
    if not rows:
        return head
    width = len(columns)
    floats = [column.dtype.kind == "f" for column in columns]
    cells = np.full((rows, width), np.nan)
    for j in np.flatnonzero(floats):
        cells[:, j] = columns[j]
    cells = cells.ravel()
    y, sure = _round12(cells)
    unsure = np.flatnonzero(~sure)
    y[unsure] = np.nan
    text = bytearray(orjson.dumps(y, option=orjson.OPT_SERIALIZE_NUMPY))
    text[-1] = ord(",")  # the closing bracket ends the last row like any other
    chars = np.frombuffer(text, np.uint8)
    chars[np.flatnonzero(chars == ord(","))[width - 1::width]] = ord("\n")
    text = bytes(text[1:])
    if unsure.size:
        lists = [None if f else column.tolist() for f, column in zip(floats, columns)]
        row_of, column_of = (k.tolist() for k in np.divmod(unsure, width))
        fills = [(FLOAT_FMT % value if floats[j] else str(lists[j][i])).encode()
                 for value, i, j in zip(cells[unsure].tolist(), row_of, column_of)]
        parts = text.split(b"null")
        text = b"".join(chain.from_iterable(zip(parts, fills))) + parts[-1]
    return head + text


_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
_EXPONENT = re.compile(rb"e(-?)(\d+)(?=,?\n)")
_FIFTH_DECIMAL = re.compile(rb"0\.0000([1-9])(\d*)(?=,?\n)")


def _exponent(match) -> bytes:
    """orjson's ``e-7`` or ``e16`` as repr's ``e-07`` or ``e+16``."""
    return b"e" + (match[1] or b"+") + match[2].rjust(2, b"0")


def _fifth_decimal(match) -> bytes:
    """orjson's ``0.0000dddd`` (1e-5 <= |x| < 1e-4) as repr's ``d.ddde-05``,
    unless the match is the tail of a longer number such as ``10.00001``."""
    start = match.start()
    if start and match.string[start - 1] not in b" -":
        return match[0]
    return match[1] + (b"." + match[2] if match[2] else b"") + b"e-05"


def _as_repr(text):
    """orjson's ``text`` with ``repr``'s float layout, or None where its bytes
    cannot be json.dumps's: where it holds ``null`` (NaN and +-inf, which
    json.dumps writes as ``NaN`` and ``Infinity``), non-ASCII or DEL (which
    json.dumps escapes)."""
    if b"null" in text or b"\x7f" in text or not text.isascii():
        return None
    text = _EXPONENT.sub(_exponent, text)
    # One bytes.find, ten times as fast as the pattern (whose first byte is a
    # common digit), gates it: every number the rewrite changes has ``0.0000``.
    if b"0.0000" in text:
        text = _FIFTH_DECIMAL.sub(_fifth_decimal, text)
    return text


def _positional(value) -> bool:
    """Whether ``value`` is a C-contiguous 1-D float64 array whose items are
    all +-0 or finite with 1e-4 <= |x| < 1e16, where ``repr`` and orjson both
    print the shortest round-trip digits positionally."""
    if not (type(value) is np.ndarray and value.dtype == np.float64
            and value.ndim == 1 and value.flags.c_contiguous):
        return False
    size = np.abs(value)
    return bool(((size < 1e16) & ((size >= 1e-4) | (size == 0))).all())


def _json(payload) -> bytes:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte
    and encoded, with a numpy array written as the list of its items.

    orjson writes the document, and two rewrites turn its float layout into
    ``repr``'s: ``1e-7`` into ``1e-07``, ``1e16`` into ``1e+16``, and
    ``0.00001`` into ``1e-05`` (orjson writes positionally down to 1e-5,
    ``repr`` only down to 1e-4).  Both are anchored on the line end: with an
    indent every number ends its line, while a string ends in a quote and
    holds no raw newline, so they never touch a string.

    orjson's numpy mode sees only the arrays at the top level of a dict
    payload whose type is ``np.ndarray`` and whose dtype equals float64 (a
    non-native byte order does not, and orjson would misread it).  The rest
    of the payload, with ``[]`` in place of those arrays (their keys stay),
    is encoded without numpy mode, so orjson refuses any other numpy object
    (an array elsewhere or of another dtype, whose float32 items it would
    print with float32 digits, or a numpy scalar), as it refuses an int
    beyond 64 bits and a non-str key.  A payload that orjson refuses, or
    whose orjson bytes cannot be json.dumps's (see ``_as_repr``), json.dumps
    writes itself, at more than ten times orjson's cost on a spectrum:
    task payloads hold Python scalars.

    Without arrays the rest is the document, and ``_as_repr`` makes it the
    file.  With arrays, the whole payload is encoded once more in numpy
    mode.  Where the rest needs no rewrite and every array is
    ``_positional``, that text is the file as it stands: the arrays' items
    hold no ``null``, no ``e``, no DEL and no non-ASCII byte, and a
    ``0.0000`` in them is the tail of a longer number (|x| >= 1e-4), which
    ``_fifth_decimal`` leaves alone; every check and rewrite is local to a
    line.  Otherwise ``_as_repr`` checks and rewrites the whole text.
    """
    items = payload.items() if isinstance(payload, dict) else ()
    arrays = [key for key, value in items
              if type(value) is np.ndarray and value.dtype == np.float64]
    try:
        text = orjson.dumps({**payload, **dict.fromkeys(arrays, [])} if arrays else payload,
                            option=_ORJSON_OPTIONS) + b"\n"
        if arrays:
            whole = orjson.dumps(payload,
                                 option=_ORJSON_OPTIONS | orjson.OPT_SERIALIZE_NUMPY) + b"\n"
            if _as_repr(text) == text and all(_positional(payload[key]) for key in arrays):
                return whole
            text = whole
        text = _as_repr(text)
    except orjson.JSONEncodeError:
        text = None
    return _json_dumps(payload) if text is None else text


def _json_dumps(payload) -> bytes:
    """``_json`` by json.dumps itself."""
    return (json.dumps(payload, indent=2, sort_keys=True,
                       default=lambda value: value.tolist()) + "\n").encode()


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
    knees = {"rocking_c": c, "knees": list(curve.knees)}
    payload = {
        "task": "bistability",
        **knees,
        "points": [{"input_power": ip, "branches": branches[lo:hi]}
                   for ip, lo, hi in zip(grid.tolist(), bounds[:-1], bounds[1:])],
    }
    return {"csv": {"bistability.csv": (headers, columns)},
            "json": {"bistability.json": payload}, "always": {"knees.json": knees}}


def run_spectrum(config: ScenarioConfig):
    opt = dict(config.task.options)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past 1.8e308: refused as nan S_q
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
    file is touched; files are written atomically.  ``formats`` overrides
    ``[output] formats``: a comma list as ``--format`` takes it, or an
    iterable of names, either a non-empty subset of ``FORMATS``
    (ConfigError otherwise).  Sweeps run in this process; ``jobs`` accepts
    only 1 and stays for callers that still pass ``jobs=1`` (the benchmark
    harness), until ROADMAP item 5 drops it.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (sweeps run in-process), got {jobs!r}")
    out_dir = out_dir or config.output.directory
    if not out_dir:
        raise OutputError("no output directory given (config [output] dir or --out)")
    formats = config.output.formats if formats is None else parse_formats(formats)

    bundle = TASK_RUNNERS[config.task.name](config)

    files = {}
    if "csv" in formats:
        for name, (headers, columns) in bundle["csv"].items():
            files[name] = _csv(headers, columns)
    if "json" in formats:
        for name, payload in bundle["json"].items():
            files[name] = _json(payload)
    for name, payload in bundle["always"].items():
        files[name] = _json(payload)

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
                  _json(manifest))
    return manifest
