"""Command-line entry point.

Subcommands: completeness | soundness | lemmas | swap-bench.  Exit codes:
0 success, 1 invalid config or usage, 2 numerical validation failure.
The default seed comes from EPRVERIFY_SEED when set; --seed overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from .harness import ConfigError, EXPERIMENTS, ExperimentConfig, emit_report, run_experiment
from .protocol import shown

SEED_ENV_VAR = "EPRVERIFY_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eprverify", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", help="RNG seed (overrides config and env)")
        p.add_argument("--mode", choices=["exact", "sampled"], help="evaluation mode")
        p.add_argument("--trials", help="sampled trials / random instances")
        p.add_argument("--out", type=Path, help="report file (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json", help="report format")
    return parser


def _integer(text: str, what: str) -> int:
    """An optional '-' then ASCII digits, as an int; int() alone would also take
    '1_0', ' 10 ' and non-ASCII digits."""
    try:
        if re.fullmatch("-?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ConfigError(f"{what} must be an integer, got {shown(text)}")


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {"experiment": args.experiment}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer longer than int() converts
            raise ConfigError(f"config {args.config} holds an unreadable number: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config {args.config} nests too deeply to read") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data = {**loaded, "experiment": loaded.get("experiment", args.experiment)}
        if data["experiment"] != args.experiment:
            raise ConfigError(
                f"config is for experiment {shown(data['experiment'])}, "
                f"but the {args.experiment!r} subcommand was invoked"
            )
    raw_seed = os.environ.get(SEED_ENV_VAR)
    env_seed = None if raw_seed is None else _integer(raw_seed, SEED_ENV_VAR)
    if "seed" not in data and env_seed is not None:
        data["seed"] = env_seed
    if args.seed is not None:
        data["seed"] = _integer(args.seed, "--seed")
    if args.mode is not None:
        data["mode"] = args.mode
    if args.trials is not None:
        data["trials"] = _integer(args.trials, "--trials")
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"eprverify: invalid config: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    report = run_experiment(config, args.format == "csv")
    wall_ms = (time.perf_counter() - start) * 1000.0
    payload = emit_report(report, fmt=args.format)
    if args.out is not None:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            print(f"eprverify: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload.decode())
    print(f"eprverify: {config.experiment} done in {wall_ms:.1f} ms", file=sys.stderr)
    failures = report.failures()
    if failures:
        for failure in failures:
            print(f"eprverify: validation failure: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
