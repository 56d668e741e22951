import glob
import os
from dataclasses import asdict, fields

import pytest

from optomech_switch import (ConfigError, DriveConfig, SystemParams, parse_config,
                             rocking_parameter, serialize_config)
from optomech_switch.config import apply_sweep_value
from optomech_switch.params import InvalidValueError

MINIMAL = """
[system]
j_coupling = 0.5
chi = 0.3
kappa_d = 1.8
g_qd = 1.0
theta = 0.238
lambda_pump = 0.02
kappa_a = 0.1
kappa_b = 0.1
delta_a = 1.0
delta_b = 1.0
delta_d = 0.0
n_inversion = 0.0

[drive]
eta0 = 0.3

[task]
name = bistability
"""


def test_minimal_file_echoes_values():
    cfg = parse_config(MINIMAL)
    assert cfg.params.j_coupling == 0.5
    assert cfg.params.chi == 0.3
    assert cfg.params.kappa_d == 1.8
    assert cfg.params.theta == 0.238
    assert cfg.drive.eta0 == 0.3
    assert cfg.task.name == "bistability"
    assert dict(cfg.task.options)["input_points"] == 400
    assert cfg.sweep is None
    assert cfg.output.formats == ("csv", "json")


def test_invariant_violation_names_field():
    text = MINIMAL.replace("n_inversion = 0.0", "n_inversion = 2")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "n_inversion" in str(err.value)


@pytest.mark.parametrize("raw, blamed", [("0", "thermal_ratio = 0"),
                                         ("-1e-6", "thermal_ratio = -1e-6"),
                                         ("nan", "thermal_ratio = nan")])
def test_bad_thermal_ratio_rejected_with_system_line(raw, blamed):
    text = MINIMAL.replace("n_inversion = 0.0", f"n_inversion = 0.0\nthermal_ratio = {raw}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index(blamed) + 1
    assert "thermal_ratio" in str(err.value)


def test_bad_drive_value_rejected_with_its_line():
    text = MINIMAL.replace("eta0 = 0.3", "eta0 = 0.3\np_amp = -1")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("p_amp = -1") + 1
    assert "p_amp" in str(err.value)


def test_drive_that_cannot_modulate_is_rejected_on_omega_mod():
    """p_amp > 0 needs omega_mod > 0, however the drive is made; a static
    drive may leave omega_mod at 0."""
    for make in (lambda: DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=0.0),
                 lambda: DriveConfig(eta0=0.1, p_amp=0.5).with_(omega_mod=0.0),
                 lambda: DriveConfig(eta0=0.1, omega_mod=0.0).with_(p_amp=0.5)):
        with pytest.raises(InvalidValueError) as err:
            make()
        assert err.value.field == "omega_mod"
    assert rocking_parameter(DriveConfig(eta0=0.1, p_amp=0.0, omega_mod=0.0)) == 0.0
    text = MINIMAL.replace("eta0 = 0.3", "eta0 = 0.3\np_amp = 0.5\nomega_mod = 0")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("omega_mod = 0") + 1
    assert "omega_mod" in str(err.value)


def test_empty_file_missing_section():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    assert "missing required section" in str(err.value)


def test_unknown_key_reports_line():
    text = "[system]\nkappa_a = 0.1\nwibble = 3\n[drive]\n[task]\nname = spectrum\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value) and "wibble" in str(err.value)


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\nkappa_a 0.1\n")
    assert "line 2" in str(err.value)


def test_key_outside_section():
    with pytest.raises(ConfigError) as err:
        parse_config("kappa_a = 0.1\n")
    assert "line 1" in str(err.value)


def test_duplicate_key_rejected():
    text = "[system]\nkappa_a = 0.1\nkappa_a = 0.2\n[drive]\n[task]\nname = spectrum\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "duplicate" in str(err.value)


def test_unknown_task():
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\n[drive]\n[task]\nname = wibble\n")
    assert "unknown task" in str(err.value)


def test_sweep_requires_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\n[drive]\n[task]\nname = sweep\ntask = spectrum\n")
    assert "[sweep]" in str(err.value)


_HEAD = "[system]\n[drive]\n[task]\n"
_SWEEP_TASK = _HEAD + "name = sweep\ntask = bistability\n"


@pytest.mark.parametrize("text, line, fragment", [
    ("[system\n[drive]\n", 1, "malformed section header '[system'"),
    ("[system]\n[drive]\n[system]\n", 3, "duplicate section [system]"),
    ("[system]\nchi =\n", 2, "empty value"),
    (_HEAD + "name = bistability\n[wibble]\n", 5, "unknown section [wibble]"),
    (_HEAD + "name = bistability\n[sweep]\nparameter = system.chi\nvalues = 0.3\n", 5,
     "[sweep] section is only valid with task name = sweep"),
    (_HEAD + "input_points = 3\n", 3, "[task] needs a 'name' key"),
    (_HEAD + "name = sweep\n[sweep]\nparameter = system.chi\nvalues = 0.3\n", 4,
     "task 'sweep' needs 'task = <inner task name>'"),
    (_HEAD + "name = sweep\ntask = wibble\n[sweep]\n", 5, "unknown inner task 'wibble'"),
    (_SWEEP_TASK + "[sweep]\nvalues = 0.3\n", 6, "[sweep] needs a 'parameter' key"),
    (_SWEEP_TASK + "[sweep]\nparameter = system.chi\n", 6, "[sweep] needs a 'values' key"),
    (_SWEEP_TASK + "[sweep]\nparameter = system.chi\nvalues = 0.3\nwibble = 1\n", 9,
     "unknown [sweep] key 'wibble'"),
    (_HEAD + "name = bistability\n[output]\ndir = out\nwibble = 1\n", 7,
     "unknown [output] key 'wibble'"),
], ids=["malformed-header", "duplicate-section", "empty-value", "unknown-section",
        "sweep-section-without-sweep-task", "task-without-name", "sweep-without-inner-task",
        "unknown-inner-task", "sweep-without-parameter", "sweep-without-values",
        "unknown-sweep-key", "unknown-output-key"])
def test_config_refusals_name_their_line(text, line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {fragment}"


def test_sweep_parameter_validated():
    text = ("[system]\n[drive]\n[task]\nname = sweep\ntask = spectrum\n"
            "[sweep]\nparameter = system.bogus\nvalues = 1,2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "sweep parameter" in str(err.value)


def _sweep_text(parameter):
    return ("[system]\n[drive]\n[task]\nname = sweep\ntask = spectrum\n"
            f"[sweep]\nparameter = {parameter}\nvalues = 0.75\n")


@pytest.mark.parametrize("parameter",
                         [f"system.{f.name}" for f in fields(SystemParams)]
                         + [f"drive.{f.name}" for f in fields(DriveConfig)])
def test_every_model_key_can_be_swept(parameter):
    """0.75 is admitted by every field and is no field's default."""
    def model_fields(cfg):
        return {**{f"system.{k}": v for k, v in asdict(cfg.params).items()},
                **{f"drive.{k}": v for k, v in asdict(cfg.drive).items()}}

    cfg = parse_config(_sweep_text(parameter))
    point = apply_sweep_value(cfg, 0.75)
    assert model_fields(cfg)[parameter] != 0.75
    assert model_fields(point) == {**model_fields(cfg), parameter: 0.75}
    assert (point.task, point.sweep, point.output) == (cfg.task, cfg.sweep, cfg.output)


@pytest.mark.parametrize("parameter", ["params.kappa_a", "system.omega_mod", "drive.chi",
                                       "kappa_a", "system.", ".eta0"])
def test_bad_sweep_prefix_rejected_on_parameter_line(parameter):
    text = _sweep_text(parameter)
    with pytest.raises(ConfigError, match="unknown sweep parameter") as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index(f"parameter = {parameter}") + 1


def test_empty_sweep_values_rejected():
    text = ("[system]\n[drive]\n[task]\nname = sweep\ntask = spectrum\n"
            "[sweep]\nparameter = system.chi\nvalues = ,\n")
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "abc"])
def test_bad_sweep_value_rejected_with_line(raw):
    text = ("[system]\n[drive]\n[task]\nname = sweep\ntask = spectrum\n"
            f"[sweep]\nparameter = system.chi\nvalues = 0.3, {raw}, 0.4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {text.count(chr(10))}" in str(err.value)
    assert "values" in str(err.value) and repr(raw) in str(err.value)


@pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
def test_non_finite_integer_rejected_with_line(raw):
    text = MINIMAL + f"input_points = {raw}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {text.count(chr(10))}" in str(err.value)
    assert "input_points" in str(err.value)


def _task_text(lines):
    """MINIMAL with its [task] section replaced by the given lines."""
    return MINIMAL.replace("name = bistability\n", "\n".join(lines) + "\n")


@pytest.mark.parametrize("task, key", [("bistability", "input_max"),
                                       ("spectrum", "omega_max"),
                                       ("switch-metrics", "bandwidth_max")])
@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_non_finite_float_task_option_rejected_with_line(task, key, raw):
    text = _task_text([f"name = {task}", f"{key} = {raw}"])
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {text.count(chr(10))}" in str(err.value)
    assert key in str(err.value)


@pytest.mark.parametrize("raw", ["nan", "-0.1"])
def test_bad_hysteresis_rate_rejected_with_line(raw):
    text = _task_text(["name = hysteresis", f"rate = {raw}", "input_points = 50"])
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {text.count(chr(10)) - 1}" in str(err.value)
    assert "rate" in str(err.value)


def test_negative_bandwidth_points_rejected_with_line():
    """A negative point count must not skip the requested scan silently
    (bandwidth = nan in the outputs)."""
    text = _task_text(["name = switch-metrics", "bandwidth_points = -3",
                       "bandwidth_min = 0.5", "bandwidth_max = 2.0"])
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("bandwidth_points = -3") + 1
    assert "bandwidth_points" in str(err.value)


def test_zero_hysteresis_rate_means_default():
    cfg = parse_config(_task_text(["name = hysteresis", "rate = 0"]))
    assert dict(cfg.task.options)["rate"] == 0.0


@pytest.mark.parametrize("key", ["transient_periods", "measure_periods"])
def test_removed_switch_period_keys_rejected_with_line(key):
    text = _task_text(["name = switch-metrics", f"{key} = 50"])
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {text.count(chr(10))}" in str(err.value)
    assert f"unknown [task] key {key!r}" in str(err.value)


def test_bad_formats_rejected():
    text = MINIMAL + "\n[output]\nformats = csv,xml\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "formats" in str(err.value)


def test_round_trip_identity():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_all_bundled_scenarios():
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert paths, "bundled scenarios missing"
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        assert parse_config(serialize_config(cfg)) == cfg


PINNED = """\
[system]
chi = 0.5
[drive]
eta0 = 0.25
p_amp = 0.1
[task]
name = sweep
task = spectrum
branch = lower
omega_points = 50
[sweep]
parameter = drive.eta0
values = 0.1, 2, 1e-3
"""

PINNED_SERIALIZED = """\
[system]
kappa_a = 0.1
kappa_b = 0.1
kappa_d = 1.8
gamma_m = 0.01
delta_a = 1.0
delta_b = 1.0
delta_d = 0.0
j_coupling = 0.5
g_qd = 1.0
chi = 0.5
lambda_pump = 0.02
theta = 0.238
n_inversion = 0.0
thermal_ratio = 1e-06
omega_m = 1.0

[drive]
eta0 = 0.25
p_amp = 0.1
omega_mod = 1.0

[task]
name = sweep
task = spectrum
backend = matrix
branch = lower
omega_max = 2.5
omega_min = 0.0
omega_points = 50

[sweep]
parameter = drive.eta0
values = 0.1,2.0,0.001

[output]
"""


def test_serialized_bytes_are_pinned():
    """Every manifest's config_sha256 hashes these bytes: every field in
    declaration order, then the task options sorted, str options bare."""
    assert serialize_config(parse_config(PINNED)) == PINNED_SERIALIZED + "formats = csv,json\n"
    with_dir = PINNED + "[output]\ndir = results/run 1\nformats = json\n"
    assert (serialize_config(parse_config(with_dir))
            == PINNED_SERIALIZED + "dir = results/run 1\nformats = json\n")
