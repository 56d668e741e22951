"""Command-line front end.

    optomech-switch <task> --config <file> --out <dir> [--format csv,json]

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
Failures print a machine-readable JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config, parse_formats
from .errors import ConfigError, OptomechError, OutputError
from .runner import TASK_RUNNERS, run_scenario

TASK_CHOICES = tuple(TASK_RUNNERS)

# an error's exit code is that of its first row, so a subclass precedes its base
EXIT_CODES = ((ConfigError, 2), (OutputError, 4), (OptomechError, 3), (OSError, 4))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they get the JSON error record."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optomech-switch",
        description="Bistability, switching metrics and displacement spectra "
                    "for the coupled-cavity optomechanical model.")
    parser.add_argument("task", choices=TASK_CHOICES,
                        help="task to run; must match the config's [task] name")
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--out", default=None,
                        help="output directory (falls back to the config's [output] dir)")
    parser.add_argument("--format", default=None,
                        help="comma list out of {csv,json}; default from config")
    return parser


def _error_record(exc: Exception, exit_code: int) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc),
                                 "exit_code": exit_code}})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        formats = None if args.format is None else parse_formats(args.format)
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not valid UTF-8: {exc.reason}") from None
        if config.task.name != args.task:
            raise ConfigError(
                f"CLI task {args.task!r} does not match config task "
                f"{config.task.name!r}")
        manifest = run_scenario(config, out_dir=args.out, formats=formats)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
        print(_error_record(exc, code), file=sys.stderr)
        return code

    print(json.dumps({"status": "ok", "task": manifest["task"],
                      "files": sorted(manifest["files"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
