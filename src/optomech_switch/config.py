"""Scenario configuration files.

Plain-text key-value format with # comments and three mandatory sections:

    [system]   physical parameters (SystemParams fields)
    [drive]    pump drive (DriveConfig fields)
    [task]     what to compute: name = bistability | spectrum |
               switch-metrics | hysteresis | sweep, plus task options

plus optional [sweep] (only with task name = sweep) and [output].
Unknown sections or keys are rejected with their line number.  The
serializer writes every field explicitly, so parse(serialize(c)) == c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace

from .errors import ConfigError
from .params import DriveConfig, InvalidValueError, SystemParams

# model section -> (ScenarioConfig field, dataclass); its keys are the fields
MODELS = {"system": ("params", SystemParams), "drive": ("drive", DriveConfig)}
MODEL_KEYS = {name: tuple(f.name for f in dataclass_fields(cls))
              for name, (_, cls) in MODELS.items()}

# task name -> {option: (type, default)}
TASK_SCHEMAS = {
    "bistability": {
        "input_min": (float, 0.01),
        "input_max": (float, 1.0),
        "input_points": (int, 400),
    },
    "spectrum": {
        "omega_min": (float, 0.0),
        "omega_max": (float, 2.5),
        "omega_points": (int, 2000),
        "branch": (str, "upper"),       # lower | upper stable branch
        "backend": (str, "matrix"),     # matrix | closed-form
    },
    "switch-metrics": {
        "bandwidth_min": (float, 0.0),
        "bandwidth_max": (float, 0.0),
        "bandwidth_points": (int, 0),   # 0: skip the bandwidth scan
    },
    "hysteresis": {
        "input_min": (float, 0.01),
        "input_max": (float, 1.0),
        "input_points": (int, 400),
        "rate": (float, 0.0),           # 0: default gamma_m/20
    },
}

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    options: tuple  # sorted ((key, value), ...)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # "system.<field>" or "drive.<field>"
    values: tuple


@dataclass(frozen=True)
class OutputSpec:
    directory: str = ""
    formats: tuple = FORMATS


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    drive: DriveConfig
    task: TaskSpec
    sweep: SweepSpec | None = None
    output: OutputSpec = OutputSpec()


def _to_number(raw, key, line, typ=float):
    """Finite float, or an int for ``typ=int``, from a raw value."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (typ is int and not value.is_integer()):
        kind = "an integer" if typ is int else "a finite number"
        raise ConfigError(f"key {key!r}: expected {kind}, got {raw!r}", line)
    return typ(value)


def _split_sections(text):
    """-> {section: {key: (raw_value, line)}}, {section: line}."""
    sections: dict[str, dict] = {}
    section_lines: dict[str, int] = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, value = map(str.strip, line.partition("="))
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        if not value:
            raise ConfigError("empty value", lineno)
        sections[current][key] = (value, lineno)
    return sections, section_lines


def parse_config(text: str) -> ScenarioConfig:
    sections, section_lines = _split_sections(text)

    for required in (*MODELS, "task"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    for name in sections:
        if name not in (*MODELS, "task", "sweep", "output"):
            raise ConfigError(f"unknown section [{name}]", section_lines[name])

    models = {attr: _parse_model(name, sections[name], section_lines[name])
              for name, (attr, _) in MODELS.items()}
    task = _parse_task(sections["task"], section_lines["task"])
    sweep = None
    if task.name == "sweep":
        if "sweep" not in sections:
            raise ConfigError("task 'sweep' requires a [sweep] section",
                              section_lines["task"])
        sweep = _parse_sweep(sections["sweep"], section_lines["sweep"])
    elif "sweep" in sections:
        raise ConfigError("[sweep] section is only valid with task name = sweep",
                          section_lines["sweep"])

    output = _parse_output(sections.get("output", {}), section_lines.get("output"))
    return ScenarioConfig(**models, task=task, sweep=sweep, output=output)


def _parse_model(name, entries, section_line):
    """The dataclass of model section ``name``.  A value it does not admit is
    blamed on its key's line, or on the section header for a defaulted key."""
    kwargs = {}
    for key, (raw, line) in entries.items():
        if key not in MODEL_KEYS[name]:
            raise ConfigError(f"unknown [{name}] key {key!r}", line)
        kwargs[key] = _to_number(raw, key, line)
    try:
        return MODELS[name][1](**kwargs)
    except InvalidValueError as exc:
        raise ConfigError(f"invalid [{name}] values: {exc}",
                          entries.get(exc.field, (None, section_line))[1]) from exc


def _parse_task(entries, section_line) -> TaskSpec:
    entries = dict(entries)
    if "name" not in entries:
        raise ConfigError("[task] needs a 'name' key", section_line)
    name_raw, name_line = entries.pop("name")
    if name_raw == "sweep":
        if "task" not in entries:
            raise ConfigError("task 'sweep' needs 'task = <inner task name>'",
                              name_line)
        inner_raw, inner_line = entries.pop("task")
        if inner_raw not in TASK_SCHEMAS:
            raise ConfigError(f"unknown inner task {inner_raw!r}", inner_line)
        inner = _collect_options("sweep", inner_raw, entries, section_line)
        return TaskSpec(name="sweep", options=(("task", inner_raw),) + inner)
    if name_raw not in TASK_SCHEMAS:
        raise ConfigError(f"unknown task {name_raw!r}", name_line)
    return TaskSpec(name=name_raw,
                    options=_collect_options(name_raw, name_raw, entries, section_line))


def _collect_options(outer, schema_name, entries, section_line):
    schema = TASK_SCHEMAS[schema_name]
    options = {}
    for key, (raw, line) in entries.items():
        if key not in schema:
            raise ConfigError(f"unknown [task] key {key!r} for task {outer!r}", line)
        typ, _ = schema[key]
        options[key] = raw if typ is str else _to_number(raw, key, line, typ)
    for key, (typ, default) in schema.items():
        options.setdefault(key, default)
    # a defaulted option is blamed on the [task] header line
    _validate_task_options(schema_name, options,
                           lambda key: entries[key][1] if key in entries else section_line)
    return tuple(sorted(options.items()))


def _validate_task_options(name, o, line_of):
    checks = []  # (holds, key blamed, message)
    if name in ("bistability", "hysteresis"):
        checks += [(o["input_max"] > o["input_min"] >= 0.0, "input_max",
                    "need input_max > input_min >= 0"),
                   (o["input_points"] >= 2, "input_points", "input_points must be >= 2")]
    if name == "hysteresis":
        checks.append((o["rate"] >= 0.0, "rate", "rate must be >= 0 (0: default)"))
    if name == "spectrum":
        checks += [(o["omega_points"] >= 2, "omega_points", "omega_points must be >= 2"),
                   (o["omega_max"] > o["omega_min"], "omega_max", "need omega_max > omega_min"),
                   (o["branch"] in ("lower", "upper"), "branch",
                    "branch must be lower or upper"),
                   (o["backend"] in ("matrix", "closed-form"), "backend",
                    "backend must be matrix or closed-form")]
    if name == "switch-metrics":
        points = o["bandwidth_points"]
        checks += [(points == 0 or points >= 2, "bandwidth_points",
                    "bandwidth_points must be 0 or >= 2"),
                   (points == 0 or o["bandwidth_max"] > o["bandwidth_min"] > 0.0,
                    "bandwidth_max", "need bandwidth_max > bandwidth_min > 0")]
    for holds, key, message in checks:
        if not holds:
            raise ConfigError(f"task {name!r}: {message}", line_of(key))


def _parse_sweep(entries, section_line) -> SweepSpec:
    entries = dict(entries)
    if "parameter" not in entries:
        raise ConfigError("[sweep] needs a 'parameter' key", section_line)
    param_raw, param_line = entries.pop("parameter")
    prefix, _, field = param_raw.partition(".")
    if field not in MODEL_KEYS.get(prefix, ()):
        raise ConfigError(f"unknown sweep parameter {param_raw!r} "
                          "(use system.<field> or drive.<field>)", param_line)
    if "values" not in entries:
        raise ConfigError("[sweep] needs a 'values' key", section_line)
    values_raw, values_line = entries.pop("values")
    if entries:
        key, (_, line) = next(iter(entries.items()))
        raise ConfigError(f"unknown [sweep] key {key!r}", line)
    values = tuple(_to_number(v, "values", values_line)
                   for v in map(str.strip, values_raw.split(",")) if v)
    if not values:
        raise ConfigError("sweep values must be a non-empty comma list", values_line)
    return SweepSpec(parameter=param_raw, values=values)


def parse_formats(raw, line=None) -> tuple:
    """`raw` as a non-empty subset of FORMATS: a comma list, from `[output]
    formats` or `--format`, or an iterable of names."""
    if isinstance(raw, str):
        formats = tuple(f.strip() for f in raw.split(",") if f.strip())
    else:
        formats = tuple(raw)
    if not formats or any(f not in FORMATS for f in formats):
        raise ConfigError(f"formats must be a subset of {{{','.join(FORMATS)}}}, "
                          f"got {raw!r}", line)
    return formats


def _parse_output(entries, section_line) -> OutputSpec:
    entries = dict(entries)
    directory = ""
    formats = FORMATS
    if "dir" in entries:
        directory, _ = entries.pop("dir")
    if "formats" in entries:
        formats = parse_formats(*entries.pop("formats"))
    if entries:
        key, (_, line) = next(iter(entries.items()))
        raise ConfigError(f"unknown [output] key {key!r}", line)
    return OutputSpec(directory=directory, formats=formats)


def serialize_config(config: ScenarioConfig) -> str:
    lines = []
    for name, (attr, _) in MODELS.items():
        model = getattr(config, attr)
        lines.append(f"[{name}]")
        lines += (f"{key} = {getattr(model, key)!r}" for key in MODEL_KEYS[name])
        lines.append("")
    lines += ["[task]", f"name = {config.task.name}"]
    for key, value in config.task.options:
        lines.append(f"{key} = {value!r}" if not isinstance(value, str)
                     else f"{key} = {value}")
    if config.sweep is not None:
        lines += ["", "[sweep]", f"parameter = {config.sweep.parameter}",
                  "values = " + ",".join(repr(v) for v in config.sweep.values)]
    lines += ["", "[output]"]
    if config.output.directory:
        lines.append(f"dir = {config.output.directory}")
    lines.append("formats = " + ",".join(config.output.formats))
    return "\n".join(lines) + "\n"


def apply_sweep_value(config: ScenarioConfig, value: float) -> ScenarioConfig:
    """Scenario with the swept parameter replaced by ``value``.

    A value the parameter does not admit raises ConfigError.
    """
    assert config.sweep is not None
    prefix, _, field = config.sweep.parameter.partition(".")
    attr = MODELS[prefix][0]
    try:
        return replace(config, **{attr: getattr(config, attr).with_(**{field: value})})
    except ValueError as exc:
        raise ConfigError(f"{config.sweep.parameter} = {value!r}: {exc}") from exc
