import dataclasses
import json
import math
import os
from collections import OrderedDict

import numpy as np
import orjson
import pytest

from optomech_switch import parse_config, run_scenario, runner
from optomech_switch.cli import main as cli_main
from optomech_switch.errors import ConfigError, NumericalError

BISTABILITY = """
[system]
kappa_a = 0.1
kappa_b = 0.1
kappa_d = 1.8
gamma_m = 1.8
delta_a = 1.0
delta_b = 1.0
j_coupling = 0.5
chi = 0.3
lambda_pump = 0.02
theta = 0.238

[drive]
eta0 = 0.3
p_amp = 0.4472135954999579
omega_mod = 1.0

[task]
name = bistability
input_min = 0.05
input_max = 0.9
input_points = 40
"""

SPECTRUM = """
[system]
kappa_a = 0.1
kappa_b = 0.1
kappa_d = 1.8
gamma_m = 0.001
delta_a = 1.0
delta_b = 1.0
delta_d = -1.0
j_coupling = 0.5
chi = 0.2
lambda_pump = 0.02
theta = 0.238
thermal_ratio = 1e-6

[drive]
eta0 = 0.1
p_amp = 0.4472135954999579
omega_mod = 1.0

[task]
name = spectrum
omega_points = 600
"""


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_bistability_outputs(tmp_path):
    cfg = parse_config(BISTABILITY)
    manifest = run_scenario(cfg, out_dir=str(tmp_path))
    assert set(manifest["files"]) == {"bistability.csv", "bistability.json",
                                      "knees.json"}
    lines = _read(tmp_path / "bistability.csv").decode().splitlines()
    assert lines[0] == ("input_power[omega_m^2],branch_index,"
                        "p_trans[dimensionless],stability")
    assert all(line.count(",") == 3 for line in lines[1:])
    knees = json.loads(_read(tmp_path / "knees.json"))
    assert len(knees["knees"]) == 2
    # manifest checksums match the files on disk
    import hashlib

    for name, digest in manifest["files"].items():
        assert hashlib.sha256(_read(tmp_path / name)).hexdigest() == digest


def test_reruns_byte_identical(tmp_path):
    cfg = parse_config(SPECTRUM)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=str(d1))
    run_scenario(cfg, out_dir=str(d2))
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert _read(d1 / name) == _read(d2 / name)


def test_spectrum_outputs_and_peaks(tmp_path):
    cfg = parse_config(SPECTRUM)
    manifest = run_scenario(cfg, out_dir=str(tmp_path), formats=("csv",))
    assert "spectrum.csv" in manifest["files"]
    assert "spectrum.json" not in manifest["files"]  # csv-only run
    peaks = json.loads(_read(tmp_path / "peaks.json"))
    assert peaks["count"] >= 1
    data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert data.shape == (600, 2)
    assert np.all(data[:, 1] >= 0.0)


def test_sweep_partial_failure_recorded(tmp_path):
    text = BISTABILITY.replace("name = bistability",
                               "name = sweep\ntask = bistability")
    text += "\n[sweep]\nparameter = system.kappa_a\nvalues = 0.1, -0.5\n"
    cfg = parse_config(text)
    run_scenario(cfg, out_dir=str(tmp_path))
    index = json.loads(_read(tmp_path / "sweep_index.json"))
    statuses = [p["status"] for p in index["points"]]
    assert statuses == ["ok", "error"]
    assert "error" in index["points"][1]
    assert (tmp_path / "bistability_000.csv").exists()
    assert not (tmp_path / "bistability_001.csv").exists()


def test_sweep_all_points_failing_raises(tmp_path):
    text = BISTABILITY.replace("name = bistability",
                               "name = sweep\ntask = bistability")
    text += "\n[sweep]\nparameter = system.kappa_a\nvalues = -1, -2\n"
    cfg = parse_config(text)
    with pytest.raises(NumericalError):
        run_scenario(cfg, out_dir=str(tmp_path))
    assert not os.path.exists(tmp_path / "sweep_index.json")


SWITCH_SWEEP = (BISTABILITY.replace("name = bistability\n", "name = sweep\ntask = switch-metrics\n")
                .split("input_min")[0].replace("p_amp = 0.4472135954999579", "p_amp = 0.05")
                + "\n[sweep]\nparameter = drive.eta0\nvalues = 0.1, 0.9\n")

# [system] defaults but a strong pumped dot: at g_qd = 2 the hysteresis ramp
# blows up, so that point fails with IntegrationFailureError
BLOW_UP_SWEEP = """
[system]
g_qd = 2.0
n_inversion = 1.0

[drive]
p_amp = 0

[task]
name = sweep
task = hysteresis
input_min = 0.01
input_max = 0.02
input_points = 2

[sweep]
parameter = system.g_qd
values = 2.0, 0.0
"""


def test_sweep_point_without_stable_orbit_recorded(tmp_path):
    cases = [
        # eta0 = 0.9: the lower branch is Hopf-unstable and the only
        # T-periodic orbit is unstable, so that point fails with
        # UndefinedRatioError
        (SWITCH_SWEEP, ["ok", "error"], "UndefinedRatioError", "metrics_000.json"),
        (BLOW_UP_SWEEP, ["error", "ok"], "IntegrationFailureError", "hysteresis_001.json"),
    ]
    for case, (text, statuses, error_type, kept) in enumerate(cases):
        out = tmp_path / str(case)
        run_scenario(parse_config(text), out_dir=str(out))
        index = json.loads(_read(out / "sweep_index.json"))
        assert [p["status"] for p in index["points"]] == statuses
        failed = statuses.index("error")
        assert index["points"][failed]["error"]["type"] == error_type
        assert (out / kept).exists()


def test_sweep_programming_error_propagates(tmp_path, monkeypatch):
    def broken(config):
        raise TypeError("bug in a task runner")

    monkeypatch.setitem(runner.TASK_RUNNERS, "bistability", broken)
    text = BISTABILITY.replace("name = bistability",
                               "name = sweep\ntask = bistability")
    text += "\n[sweep]\nparameter = system.kappa_a\nvalues = 0.1, 0.2\n"
    with pytest.raises(TypeError, match="bug in a task runner"):
        run_scenario(parse_config(text), out_dir=str(tmp_path))
    assert not os.path.exists(tmp_path / "sweep_index.json")


def test_run_scenario_rejects_more_than_one_job(tmp_path):
    with pytest.raises(ValueError, match="jobs"):
        run_scenario(parse_config(BISTABILITY), out_dir=str(tmp_path), jobs=2)
    assert not os.listdir(tmp_path)


def test_failed_run_leaves_no_files(tmp_path):
    # switch metrics of an unmodulated drive have no gain: the run fails
    cfg = parse_config(SWITCH)
    cfg = dataclasses.replace(cfg, drive=cfg.drive.with_(p_amp=0.0))
    out = tmp_path / "out"
    with pytest.raises(NumericalError):
        run_scenario(cfg, out_dir=str(out))
    assert not out.exists() or os.listdir(out) == []


def test_cli_happy_path(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(BISTABILITY)
    out = tmp_path / "results"
    code = cli_main(["bistability", "--config", str(cfg_path),
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "ok"
    assert (out / "manifest.json").exists()


def test_cli_task_mismatch_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(BISTABILITY)
    code = cli_main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["exit_code"] == 2


def test_cli_usage_error_is_config_error_record(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(BISTABILITY)
    code = cli_main(["bistability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert record["error"]["exit_code"] == 2
    assert "--jobs" in record["error"]["message"]
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    code = cli_main(["bistability", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
    assert code == 4


@pytest.mark.parametrize("extra, exit_code, error_type", [
    (["--out", "taken"], 4, "OutputError"),   # --out names an existing file
    (["--out", "o", "--format", "csv,xml"], 2, "ConfigError"),
    (["--out", "o", "--config", "nope.cfg"], 4, "FileNotFoundError"),
])
def test_cli_error_record_per_exit_code_row(tmp_path, monkeypatch, capsys,
                                            extra, exit_code, error_type):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text(BISTABILITY)
    (tmp_path / "taken").write_text("")
    code = cli_main(["bistability", "--config", "scenario.cfg", *extra])
    assert code == exit_code
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["exit_code"]) == (error_type, exit_code)
    assert not (tmp_path / "o").exists()


def test_cli_and_config_reject_bad_formats_alike(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(BISTABILITY)
    assert cli_main(["bistability", "--config", str(cfg_path), "--format", "csv,xml",
                     "--out", str(tmp_path / "o")]) == 2
    cli_message = json.loads(capsys.readouterr().err)["error"]["message"]
    with pytest.raises(ConfigError) as err:
        parse_config(BISTABILITY + "\n[output]\nformats = csv,xml\n")
    assert cli_message == "formats must be a subset of {csv,json}, got 'csv,xml'"
    assert str(err.value) == f"line {err.value.line}: {cli_message}"


def test_cli_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_bytes(BISTABILITY.encode("utf-8").replace(b"kappa_a", b"kappa_\xe4"))
    code = cli_main(["bistability", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)["error"]
    assert (record["type"], record["exit_code"]) == ("ConfigError", 2)
    assert record["message"].startswith("config file is not valid UTF-8: ")
    assert not (tmp_path / "o").exists()


def test_cli_bad_config_reports_line(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text("[system]\nkappa_a = -1\n[drive]\n[task]\nname = spectrum\n")
    code = cli_main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert "kappa_a" in record["error"]["message"]


def test_cli_drive_that_cannot_modulate_is_config_error(tmp_path, capsys):
    text = BISTABILITY.replace("omega_mod = 1.0", "omega_mod = 0")
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    code = cli_main(["bistability", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["exit_code"]) == ("ConfigError", 2)
    line = text.splitlines().index("omega_mod = 0") + 1
    assert record["message"].startswith(f"line {line}: ")
    assert "omega_mod" in record["message"]
    assert not out.exists()


def test_sweep_point_with_drive_that_cannot_modulate_recorded(tmp_path):
    text = BISTABILITY.replace("name = bistability", "name = sweep\ntask = bistability")
    text += "\n[sweep]\nparameter = drive.omega_mod\nvalues = 1.0, 0.0\n"
    run_scenario(parse_config(text), out_dir=str(tmp_path))
    points = json.loads(_read(tmp_path / "sweep_index.json"))["points"]
    assert [p["status"] for p in points] == ["ok", "error"]
    assert points[1]["error"]["type"] == "ConfigError"
    assert "omega_mod" in points[1]["error"]["message"]


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # the upper branch of the bistable set at this bias is dynamically
    # unstable, so the spectrum task must refuse it: exit code 3
    text = SPECTRUM.replace("eta0 = 0.1", "eta0 = 0.5916079783099616")
    text = text.replace("chi = 0.2", "chi = 0.3")
    text = text.replace("gamma_m = 0.001", "gamma_m = 1.8")
    text = text.replace("delta_d = -1.0", "delta_d = 0.0")
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    code = cli_main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "UnstableStateError"
    assert not out.exists() or os.listdir(out) == []


SWITCH = """
[system]
kappa_a = 0.1
kappa_b = 0.1
kappa_d = 1.8
gamma_m = 1.8
delta_a = 1.0
delta_b = 1.0
j_coupling = 1.0
g_qd = 0.5
chi = 0.3
lambda_pump = 0.02
theta = 0.238

[drive]
eta0 = 0.1
p_amp = 0.5
omega_mod = 1.0

[task]
name = switch-metrics
bandwidth_min = 0.8
bandwidth_max = 1.6
bandwidth_points = 3
"""


def test_switch_metrics_task_with_bandwidth(tmp_path):
    cfg = parse_config(SWITCH)
    run_scenario(cfg, out_dir=str(tmp_path))
    row = json.loads(_read(tmp_path / "metrics.json"))
    assert row["switch_ratio"] >= 1.0
    assert row["gain"] > 0.0
    assert 0.0 <= row["bandwidth"] <= 0.8
    csv_lines = _read(tmp_path / "metrics.csv").decode().splitlines()
    assert csv_lines[0] == ("switch_ratio[dimensionless],gain[dimensionless],"
                            "bandwidth[omega_m]")


HYSTERESIS = """
[system]
kappa_a = 1.0
kappa_b = 1.0
kappa_d = 1.8
gamma_m = 3.0
delta_a = 4.0
delta_b = 1.0
j_coupling = 0.5
chi = 1.0
lambda_pump = 0.02
theta = 0.238

[drive]
eta0 = 1.0
p_amp = 0.0
omega_mod = 1.0

[task]
name = hysteresis
input_min = 2.0
input_max = 12.0
input_points = 120
rate = 0.3
"""


def test_hysteresis_task(tmp_path):
    cfg = parse_config(HYSTERESIS)
    run_scenario(cfg, out_dir=str(tmp_path))
    lines = _read(tmp_path / "hysteresis.csv").decode().splitlines()
    assert lines[0] == ("direction,input_power[omega_m^2],"
                        "output_power[dimensionless]")
    ups = [l for l in lines[1:] if l.startswith("up,")]
    downs = [l for l in lines[1:] if l.startswith("down,")]
    assert len(ups) == len(downs) == 120


def test_closed_form_backend_through_runner(tmp_path):
    text = SPECTRUM.replace("name = spectrum",
                            "name = spectrum\nbackend = closed-form")
    cfg = parse_config(text)
    run_scenario(cfg, out_dir=str(tmp_path))
    payload = json.loads(_read(tmp_path / "spectrum.json"))
    assert payload["backend"] == "closed-form"
    assert all(v >= 0.0 for v in payload["s_q"])


# The per-value writer that runner._csv and runner._json replaced; it is the
# oracle for their bytes.
def _oracle_fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _oracle_csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_oracle_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _oracle_json(payload) -> str:
    """The standard library's indented JSON; a numpy array is the list of its items."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda value: value.tolist()) + "\n"


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16,
                  1e-300, 0.1, 1.0 / 3.0, np.float64(2.5), np.float64(math.nan),
                  10**30, -2**63, 0, 7, True, False, None,
                  "", "up", "a, b", "x: y", "ü€ \U0001f600",
                  "\x00\x1f\n\t\"\\/", "]\n  [", "],\n    [", "}, {\"k\": ["]
KEYS = ["a", "b", "task", "s_q", "", "a b", "ü", "\x01", "]", "Z", "k1", "k10"]


def _random_float(rng):
    if rng.random() < 0.3:
        return float(rng.choice([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                                 1e-300, 0.1]))
    return float(rng.standard_normal()) * 10.0 ** int(rng.integers(-320, 309))


def _random_scalar(rng):
    if rng.random() < 0.5:
        return _random_float(rng)
    return SPECIAL_VALUES[rng.integers(len(SPECIAL_VALUES))]


def _random_payload(rng, depth=0):
    """A JSON payload: nested dicts (str keys), lists, tuples, 1-D float arrays
    and scalars."""
    kind = int(rng.integers(7)) if depth < 4 else 0
    n = int(rng.integers(0, 6))
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # a float-only list or array, like a spectrum series
        floats = [_random_float(rng) for _ in range(n)]
        return floats if rng.random() < 0.5 else np.array(floats)
    if kind == 2:  # rows, like the [[i, o], ...] hysteresis legs
        width = int(rng.integers(1, 4))
        return [[_random_scalar(rng) for _ in range(width)] for _ in range(n)]
    if kind in (3, 4):  # mixed and nested lists or tuples
        items = [_random_payload(rng, depth + 1) for _ in range(n)]
        return items if kind == 3 else tuple(items)
    return {KEYS[rng.integers(len(KEYS))]: _random_payload(rng, depth + 1)
            for _ in range(n)}


def test_json_writer_matches_oracle_on_random_payloads(rng):
    for _ in range(2000):
        payload = _random_payload(rng)
        assert runner._json(payload) == _oracle_json(payload).encode(), payload


SHARED = np.array([0.5, -0.0, 1e16])


@pytest.mark.parametrize("payload", [
    [], {}, (), [[]], [[], [1.0]], [[1.0], []], [[1.0, [2.0]], [3.0]], [(1.0, 2.0), [3.0]],
    [[1.0, 2.0], [3.0, 4.0]], {"up": [[0.5, 1.5]], "down": [], "rocking_c": -0.0},
    [{"p_trans": np.float64(0.25), "stable": True}, {}], {"x": {"y": {"z": [1e16]}}},
    ["]", "[", "],\n    ["], [["a", "]"], ["[", 1]],
    np.array([]), {"omega": np.array([]), "s_q": []}, [np.array([]), [np.array([])]],
    np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e-300]),
    {"a": np.array([0.0]), "b": np.array([-0.0]), "c": [np.array([0.0]), np.array([-0.0])]},
    {"deep": {"x": [SHARED, 1]}, "top": SHARED, "z": [[SHARED]]}])
def test_json_writer_matches_oracle_on_edge_payloads(payload):
    assert runner._json(payload) == _oracle_json(payload).encode()


def test_json_writer_matches_oracle_on_random_bit_patterns(rng):
    """~200k doubles over every exponent band: random bit patterns (every
    exponent, subnormals, both signs) and the bands where orjson's layout
    leaves repr's, written as an array, as a list and in a dict."""
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    u = rng.random(10_000)
    bands = [(u % 1) * 1e-4, (u % 1) * 1e-5, u * 1e16, -u * 1e-5, 1e-5 + u * 9e-5,
             u * 1e-310, -u, 10.0 ** np.arange(-323, 309),
             np.nextafter([1e-5, 1e-4, 1e16, 1e-5, 1e-4, 1e16], [0, 0, 0, 1, 1, np.inf])]
    values = np.concatenate([bits[np.isfinite(bits)], *bands])
    for chunk in np.array_split(values, 8):
        for payload in (chunk, chunk.tolist(), {"s_q": chunk, "x": chunk[:5].tolist()}):
            assert runner._json(payload) == _oracle_json(payload).encode()


@pytest.mark.parametrize("value, orjson_text, text", [
    (1e-7, "1e-7", "1e-07"),
    (1e16, "1e16", "1e+16"),
    (-1.2345678901234568e+16, "-1.2345678901234568e16", "-1.2345678901234568e+16"),
    (1.5e-300, "1.5e-300", "1.5e-300"),
    (0.00001, "0.00001", "1e-05"),
    (0.000012, "0.000012", "1.2e-05"),
    (-0.00001, "-0.00001", "-1e-05"),
    (9.999999999999999e-05, "0.00009999999999999999", "9.999999999999999e-05"),
    (10.00001, "10.00001", "10.00001"),
    (0.0001, "0.0001", "0.0001")])
def test_json_writer_rewrites_orjson_float_layout_into_repr(value, orjson_text, text):
    """Each rewrite of orjson's float layout, at the top level, in a list
    and as a dict value, and each number it must leave alone."""
    assert orjson.dumps(value) == orjson_text.encode()
    assert repr(value) == text
    for payload in (value, [value, value], {"a": value, "b": [-value]}):
        assert runner._json(payload) == _oracle_json(payload).encode()


OMEGA_WITH_FIFTH_DECIMAL = np.linspace(0.0, 2.5, 40_001)  # holds 1.0000625
OMEGA_WITH_FIFTH_DECIMAL[1] = 0.00001


@pytest.mark.parametrize("payload", [
    [10.00001, 1.0000625], OMEGA_WITH_FIFTH_DECIMAL, {"s_q": [2.5, -0.00001]}, 0.00001],
    ids=["dot-0000-inside-a-number", "omega-grid", "negative", "bare"])
def test_json_writer_fifth_decimal_rewrite_gate(payload):
    """The ``0.00001`` rewrite runs where a number starts ``0.0000`` (after a
    space, a minus sign or at the start) and leaves ``10.00001`` alone."""
    assert runner._json(payload) == _oracle_json(payload).encode()


@pytest.mark.parametrize("payload", [
    math.nan, [1.0, math.inf], {"a": -math.inf}, np.array([0.5, math.nan]), [None, 1e-7],
    {"ü": 1e16}, ["ü€", 0.00001], "\x7f", {"k": ["a\x7fb", 1e-7]},
    2**63, [2**64, 1e-7], {"a": -2**63 - 1}, {1: 0.00001, 2: 1e16},
    np.arange(6.0)[::2], {"s_q": np.arange(6.0)[::2] * 1e-5}],
    ids=["nan", "inf", "-inf", "array-nan", "none", "non-ascii-key", "non-ascii-value",
         "del", "del-in-list", "2**63", "2**64", "below-int64", "int-keys", "strided",
         "strided-in-dict"])
def test_json_writer_falls_back_to_json_dumps(payload):
    """Payloads whose orjson bytes cannot be json.dumps's (null, non-ASCII,
    raw DEL) or that orjson refuses (wide ints, non-str keys, strided arrays)."""
    assert runner._json(payload) == _oracle_json(payload).encode()


SWAPPED = np.array([0.5, 1.5, 1e-7]).astype(np.dtype(float).newbyteorder())
F32 = np.array([0.1, 1e-7, 3.0, 1e16], np.float32)
F16 = np.array([0.1, 1e-5, 3.0, 6e4], np.float16)
POSITIONAL = np.array([0.5, 1.5, 33.9])


@pytest.mark.parametrize("payload", [
    SWAPPED, {"a": SWAPPED}, {"a": SWAPPED, "task": "t"}, {"s_q": SWAPPED, "omega": SWAPPED[:2]},
    [1.0, SWAPPED], {"deep": [{"x": (0.5, SWAPPED)}]}, {"x": OrderedDict(a=SWAPPED)},
    {"n": np.arange(3).astype(np.dtype(int).newbyteorder()), "f": [np.float64(2.5)]},
    {"a": F32}, [F32], {"x": {"y": F32}}, {"a": F32[0]}, [F32[0]], {"x": {"y": F32[0]}},
    {"a": F16}, [F16], {"x": {"y": F16}}, {"a": F16[0]}, [F16[0]], {"x": {"y": F16[0]}},
    {"s_q": POSITIONAL, "x": np.float64(0.1)}, {"s_q": POSITIONAL, "n": np.int64(7)},
    {"s_q": POSITIONAL, "ok": np.bool_(True)}],
    ids=["bare", "top", "top-with-string", "top-pair", "in-list", "nested", "dict-subclass",
         "int", "f32-top", "f32-in-list", "f32-nested", "f32-scalar-top", "f32-scalar-in-list",
         "f32-scalar-nested", "f16-top", "f16-in-list", "f16-nested", "f16-scalar-top",
         "f16-scalar-in-list", "f16-scalar-nested", "float64-scalar", "int64-scalar",
         "bool-scalar"])
def test_json_writer_reads_arrays_of_non_native_byte_order(payload):
    """orjson's numpy mode reads an array of non-native byte order as if its
    bytes were native (0.5 comes out as 2.8363e-319) and prints float32 and
    float16 items and scalars with their own shortest digits (0.1, where
    json.dumps prints 0.10000000149011612); numpy scalars sit here beside a
    positional array.  The writer hands each such payload to json.dumps."""
    assert runner._json(payload) == _oracle_json(payload).encode()


def test_json_writer_refuses_a_cyclic_payload():
    """orjson refuses a payload nested beyond its depth limit; json.dumps
    then refuses the cycle."""
    cycle = [1.0]
    cycle.append({"a": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        runner._json(cycle)


def _orjson_text(payload):
    """orjson's bytes of the whole payload, arrays included, or None where
    orjson refuses it."""
    try:
        return orjson.dumps(payload, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                            | orjson.OPT_SERIALIZE_NUMPY) + b"\n"
    except orjson.JSONEncodeError:
        return None


@pytest.fixture
def whole_route_calls(monkeypatch):
    """The payloads whose whole document ``runner._json`` checks as text:
    their orjson text, set-aside arrays included, reaches ``_as_repr``, or
    ``_json_dumps`` writes them.  The array gate took any other payload as
    it stands."""
    calls, texts, dumped = [], [], []
    as_repr, json_dumps, write = runner._as_repr, runner._json_dumps, runner._json

    def checked(text):
        texts.append(text)
        return as_repr(text)

    def dumps(payload):
        dumped.append(payload)
        return json_dumps(payload)

    def observed(payload):
        texts.clear()
        dumped.clear()
        result = write(payload)
        whole = _orjson_text(payload)
        if dumped or (whole is not None and whole in texts):
            calls.append(payload)
        return result

    monkeypatch.setattr(runner, "_as_repr", checked)
    monkeypatch.setattr(runner, "_json_dumps", dumps)
    monkeypatch.setattr(runner, "_json", observed)
    return calls


# In the positional band: both zeros, its ends, integer values and numbers
# whose text holds ``0.0000`` as the tail (10.00001).
IN_BAND = np.array([0.0, -0.0, 1e-4, -1e-4, 0.5, 33.9, 10.00001, -120.00003, 100.0,
                    2.1e9, np.nextafter(1e16, 0), -np.nextafter(1e16, 0)])


@pytest.mark.parametrize("edge, in_band", [
    (1e-4, True), (np.nextafter(1e-4, 0), False), (1e-5, False),
    (np.nextafter(1e16, 0), True), (1e16, False), (math.nan, False), (math.inf, False),
    (-math.inf, False), (-0.0, True), (5e-324, False)])
def test_json_writer_checks_top_level_arrays_by_value(edge, in_band):
    """A top-level float64 array is taken as it stands only if every item is
    +-0 or lies in 1e-4 <= |x| < 1e16; an array holding one item beyond
    that band is checked as text with the rest of the payload."""
    edged = np.array([0.5, edge, -edge, 2.0])
    assert runner._positional(edged) is in_band
    payload = {"omega": IN_BAND, "s_q": edged, "task": "spectrum", "peaks": [{"x": 0.5}]}
    assert runner._json(payload) == _oracle_json(payload).encode()


def test_json_writer_gate_leaves_the_fifth_decimal_rewrite_to_the_whole_route(
        whole_route_calls):
    payload = {"omega": OMEGA_WITH_FIFTH_DECIMAL}
    assert runner._json(payload) == _oracle_json(payload).encode()
    assert whole_route_calls == [payload]


@pytest.mark.parametrize("rest", [
    {"x": 1e-7}, {"x": 0.00001}, {"x": [1.0, 1e16]}, {"x": None}, {"x": "ü"}, {"ü": 1.0},
    {"x": "a\x7fb"}, {"x": 2**64}, {"x": math.nan}, {"x": {"y": [math.inf]}}],
    ids=["1e-7", "fifth-decimal", "1e16", "none", "non-ascii-value", "non-ascii-key",
         "del", "2**64", "nan", "nested-inf"])
def test_json_writer_gate_checks_the_rest_of_the_payload(whole_route_calls, rest):
    """Clean arrays beside a remainder that needs a rewrite or json.dumps:
    the whole document takes today's route."""
    payload = {"omega": IN_BAND, "s_q": IN_BAND[::-1].copy(), **rest}
    assert runner._json(payload) == _oracle_json(payload).encode()
    assert whole_route_calls == [payload]


@pytest.mark.parametrize("payload", [
    {1: IN_BAND, 2: 0.5}, {"ü": IN_BAND}, {"a\x7fb": IN_BAND}, {"s_q": IN_BAND[::2]},
    {"s_q": IN_BAND.reshape(3, 4)}, {"n": np.arange(5), "s_q": np.arange(-3, 3) * 7},
    {"s_q": IN_BAND.tolist()}],
    ids=["non-str-keys", "non-ascii-key", "del-in-key", "strided", "2-d", "int", "list"])
def test_json_writer_gate_passes_other_payloads_on(whole_route_calls, payload):
    """In-band arrays under keys that need json.dumps, arrays the gate must
    not take (strided, 2-D, int) and lists of in-band items go the
    whole-document route.  Int arrays never reach orjson's numpy mode:
    orjson refuses them and json.dumps writes the payload."""
    assert runner._json(payload) == _oracle_json(payload).encode()
    assert whole_route_calls == [payload]


def _in_band_array(rng):
    """A float64 array of +-0 and items in 1e-4 <= |x| < 1e16, at times
    rounded to a few decimals (integer values, ``10.00001``-like tails),
    and at times with one item drawn by ``_random_float``."""
    n = int(rng.integers(0, 30))
    size = np.clip(10.0 ** rng.uniform(-4, 16, n), 1e-4, np.nextafter(1e16, 0))
    if rng.random() < 0.3:
        size = np.round(size, int(rng.integers(0, 8)))
    values = size * rng.choice([-1.0, 1.0], n)
    values[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
    if n and rng.random() < 0.2:
        values[rng.integers(n)] = _random_float(rng)
    return values


def test_json_writer_gate_matches_oracle_on_random_payloads(rng, whole_route_calls):
    """Top-level dicts of in-band arrays, now and then with one item out of
    band, beside a ``_random_payload`` remainder half of the time."""
    for _ in range(2000):
        payload = {KEYS[k]: _in_band_array(rng) for k in rng.integers(len(KEYS), size=3)}
        if rng.random() < 0.5:
            payload[KEYS[rng.integers(len(KEYS))]] = _random_payload(rng, depth=1)
        assert runner._json(payload) == _oracle_json(payload).encode(), payload
    assert len(whole_route_calls) < 1500  # the gate took at least a quarter


def test_json_writer_takes_a_bundled_spectrum_as_it_stands(whole_route_calls):
    """A matrix-backend spectrum at the benchmark's 20000 points never reaches
    the whole-document route, and its bytes are still the oracle's."""
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "spectrum_vs_cavity_coupling.cfg")
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read().replace("omega_points = 2000", "omega_points = 20000"))
    payloads = list(runner.run_sweep(cfg)["json"].values())
    assert len(payloads) == len(cfg.sweep.values)
    for payload in payloads:
        assert payload["omega"].size == 20000
        assert runner._json(payload) == _oracle_json(payload).encode()
    assert whole_route_calls == []


def test_json_writer_routes_every_bundled_payload_by_its_contract(whole_route_calls,
                                                                 monkeypatch):
    """Every JSON payload of the bundled scenarios: json.dumps writes exactly
    those whose orjson text holds ``null`` (the switch metrics without a
    bandwidth), and no spectrum's arrays are checked as text.  A numpy
    scalar in a task payload would send it to json.dumps and fail here."""
    dumped, json_dumps = [], runner._json_dumps

    def dumps(payload):
        dumped.append(payload)
        return json_dumps(payload)

    monkeypatch.setattr(runner, "_json_dumps", dumps)
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    payloads = []
    for name in sorted(os.listdir(scenarios)):
        with open(os.path.join(scenarios, name), encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        bundle = runner.TASK_RUNNERS[cfg.task.name](cfg)
        payloads += [*bundle["json"].values(), *bundle["always"].values()]
    for payload in payloads:
        assert runner._json(payload) == _oracle_json(payload).encode()
    with_null = [p for p in payloads if b"null" in _orjson_text(p)]
    assert [id(p) for p in dumped] == [id(p) for p in with_null]
    assert with_null and all(p["task"] == "switch-metrics" for p in with_null)
    spectra = [p for p in payloads if p.get("task") == "spectrum"]
    assert spectra and not any(p.get("task") == "spectrum" for p in whole_route_calls)


@pytest.mark.parametrize("payload", [
    "1e5,", "0.00001", "1e-7", ["1e5,", "0.00001", " 0.00001", "-0.00001", "x 1e16"],
    {"1e5,": "0.00001", "0.00001": ["1e16"], "e-7": 1e-7},
    {"config_sha256": "03e1a9f3e16b8c0e9d7a3e1", "files": {"a.json": "ffe5e3e1"}}])
def test_json_writer_leaves_number_like_strings_alone(payload):
    assert runner._json(payload) == _oracle_json(payload).encode()


CSV_WORDS = np.array(["stable", "unstable", "up", "down", "a%sb", "", "a, b", "ü€"])


def _random_columns(rng):
    """Typed columns of one length, a tenth of them empty: float64 (with nan,
    +-inf, -0.0 and subnormals), int or str, as arrays or lists."""
    makers = [lambda r, n: np.array([_random_float(r) for _ in range(n)]),
              lambda r, n: [_random_float(r) for _ in range(n)],
              lambda r, n: r.integers(-2**63, 2**63 - 1, size=n, endpoint=True),
              lambda r, n: r.integers(-10**6, 10**6, size=n).tolist(),
              lambda r, n: CSV_WORDS[r.integers(len(CSV_WORDS), size=n)],
              lambda r, n: CSV_WORDS[r.integers(len(CSV_WORDS), size=n)].tolist()]
    width = int(rng.integers(1, 6))
    rows = 0 if rng.random() < 0.1 else int(rng.integers(1, 40))
    columns = [makers[k](rng, rows) for k in rng.integers(len(makers), size=width)]
    return tuple(f"col{j}" for j in range(width)), columns


def test_csv_writer_matches_oracle_on_random_tables(rng):
    for _ in range(500):
        headers, columns = _random_columns(rng)
        expected = _oracle_csv(headers, zip(*columns)).encode()
        assert runner._csv(headers, columns) == expected, columns


def test_csv_writer_rejects_columns_that_do_not_fit_the_header():
    with pytest.raises(ValueError, match="2 CSV columns"):
        runner._csv(("a", "b"), ([1.0], [2.0], [3.0]))
    with pytest.raises(ValueError, match="differ in length"):
        runner._csv(("a", "b"), ([1.0, 2.0], [3.0]))


def _digit_ties(rng, n):
    """Doubles nearest d.ddddddddddd5e+-k for k = -6..14: ties, or all but
    ties, in the 13th significant digit, where ``%.12g`` rounds."""
    digits = rng.integers(10**11, 10**12, size=n).tolist()
    exponents = rng.integers(-6, 15, size=n).tolist()
    return np.array([float(f"{d // 10**11}.{d % 10**11:011d}5e{k}")
                     for d, k in zip(digits, exponents)])


CSV_EDGES = np.array([0.1234567890125, 9.999999999995e-05, 9.9999999999995e-05, 1e-4,
                      999999999999.4, 999999999999.5, 999999999999.6, 1e12,
                      0.99999999123456, 0.0100000000123, 1e-3,
                      1.0, 100.0, 2.0**53, -0.0, 0.0, math.nan, math.inf, 5e-324])


def test_csv_writer_matches_oracle_at_scale(rng):
    """~200k doubles in one column (random bit patterns, 13th-digit ties, the
    positional layout's edges, integer values, every positional decade and
    its neighbourhood of a power of ten), then a spectrum table shaped like
    ``linear``'s and a hysteresis table with its str column, against the
    per-cell oracle."""
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    u = rng.random(20_000)
    decades = 10.0 ** rng.integers(-6, 14, size=u.size)
    column = np.concatenate([bits, _digit_ties(rng, 60_000), CSV_EDGES, -CSV_EDGES,
                             (u - 0.5) * decades, decades * (1 + (u - 0.5) * 1e-6)])
    omega = np.linspace(0.0, 2.5, 20_000)
    legs = np.linspace(0.05, 0.9, 600)
    tables = [(("x",), [column]),
              (("omega[omega_m]", "s_q[dimensionless]"),
               (omega, 1e-3 / ((omega - 1.0) ** 2 + 1e-8))),
              (("direction", "input_power[omega_m^2]", "output_power[dimensionless]"),
               (np.repeat(["up", "down"], 600), np.concatenate([legs, legs[::-1]]),
                rng.random(1200) * 0.3))]
    for headers, columns in tables:
        expected = _oracle_csv(headers, zip(*columns)).encode()
        assert runner._csv(headers, columns) == expected


def test_csv_writer_prints_a_bundled_spectrum_in_bulk():
    """At least 99% of a matrix-backend spectrum's (omega, S_q) cells are
    ones ``runner._round12`` is sure of, which orjson prints, not ``%``."""
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "nms_three_peak_demo.cfg")
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    headers, columns = runner.run_spectrum(cfg)["csv"]["spectrum.csv"]
    _, sure = runner._round12(np.column_stack(columns).ravel())
    assert sure.mean() >= 0.99
    assert runner._csv(headers, columns) == _oracle_csv(headers, zip(*columns)).encode()


SWEEP_WITH_FAILED_POINT = (BISTABILITY.replace("name = bistability",
                                               "name = sweep\ntask = bistability")
                           + "\n[sweep]\nparameter = system.kappa_a\nvalues = 0.1, -0.5\n")


@pytest.mark.parametrize("text", [BISTABILITY, SPECTRUM, SWITCH, HYSTERESIS,
                                  SWEEP_WITH_FAILED_POINT],
                         ids=["bistability", "spectrum", "switch", "hysteresis", "sweep"])
def test_written_files_match_oracle(tmp_path, monkeypatch, text):
    cfg = parse_config(text)
    bundles = []

    def capture(task_runner):
        def run(*args, **kwargs):
            bundles.append(task_runner(*args, **kwargs))
            return bundles[-1]
        return run

    monkeypatch.setitem(runner.TASK_RUNNERS, cfg.task.name,
                        capture(runner.TASK_RUNNERS[cfg.task.name]))
    manifest = run_scenario(cfg, out_dir=str(tmp_path))
    (bundle,) = bundles
    expected = {name: _oracle_csv(headers, zip(*columns))
                for name, (headers, columns) in bundle["csv"].items()}
    for kind in ("json", "always"):
        expected.update({name: _oracle_json(p) for name, p in bundle[kind].items()})
    expected["manifest.json"] = _oracle_json(manifest)
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, content in expected.items():
        assert _read(tmp_path / name) == content.encode(), name


# bundled scenarios that no other test runs
SMOKE_SCENARIOS = ("bandwidth_vs_pamp", "bistability_rocking", "switch_metrics_vs_omega_variant_b",
                   "switch_ratio_vs_pamp_variant_a", "switch_ratio_vs_pamp_variant_b")


@pytest.mark.parametrize("name", SMOKE_SCENARIOS)
def test_bundled_sweep_scenario_runs_every_point(tmp_path, name):
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    with open(os.path.join(scenarios, f"{name}.cfg"), encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    manifest = run_scenario(cfg, out_dir=str(tmp_path))
    index = json.loads(_read(tmp_path / "sweep_index.json"))
    assert [point["status"] for point in index["points"]] == ["ok"] * len(cfg.sweep.values)
    assert all((tmp_path / f).is_file() for f in manifest["files"])
