"""Command line front end: single-run estimates and Monte Carlo sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import time
from pathlib import Path

from .channel import SystemConfig
from .harness import SweepSpec, _trial_estimates, run_sweep, summarize, write_rows
from .pipeline import RECOVERY_MODES

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _config_argv(path, parser):
    """A ``key = value`` config file as ``sweep`` argv; ``#`` starts a comment.

    Keys are the sweep flag names, lower case, with dashes or underscores;
    each may appear once. A list flag's value splits on commas and spaces, a
    single value stays whole (it may hold spaces, and a ``#`` that no space or
    tab precedes), and a boolean word becomes ``--baseline`` / ``--no-baseline``.
    """
    (commands,) = (a for a in parser._actions if a.dest == "command")
    flags = {a.option_strings[0][2:].replace("-", "_"): a
             for a in commands.choices["sweep"]._actions
             if a.dest not in ("help", "config")}
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")  # a BOM is not a key
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ValueError(f"--config {path}: {getattr(exc, 'strerror', None) or exc}") from None
    argv, seen = ["sweep"], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        if key not in flags:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        action, flag = flags[key], flags[key].option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction) and value.lower() in _BOOL:
            argv.append(action.option_strings[not _BOOL[value.lower()]])
        elif action.nargs == "+":
            argv += [flag, *value.replace(",", " ").split()]
        else:  # argparse rejects a bad value, a non-boolean word included
            argv.append(f"{flag}={value}")
    return argv


def _kwargs(cls, values):
    """Keyword arguments of dataclass ``cls`` for the values that were given."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls)
            if values.get(f.name) is not None}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage subspace-sampling channel estimator for hybrid "
                    "mmWave arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--nr", type=int, dest="n_rx", help="receive antennas")
    scenario.add_argument("--nt", type=int, dest="n_tx", help="transmit antennas")
    scenario.add_argument("--paths", type=int, help="propagation paths")
    scenario.add_argument("--nrf", type=int, dest="n_rf", help="RF chains")
    scenario.add_argument("--seed", type=int, help="root of every random stream")
    scenario.add_argument("--grid-size", type=int,
                          help="sounder dictionary size (default 2 * nr)")

    est = sub.add_parser("estimate", parents=[scenario],
                         help="run one estimate and print the report")
    est.add_argument("--m", type=int, default=8, help="columns sounded in stage 1")
    est.add_argument("--snr-db", type=float, default=10.0, help="SNR in dB")
    est.add_argument("--mode", choices=RECOVERY_MODES, default="pseudo-inverse")
    est.add_argument("--baseline", action=argparse.BooleanOptionalAction,
                     default=False, help="also print the full-observation floor")

    swp = sub.add_parser("sweep", parents=[scenario],
                         help="Monte Carlo sweep over SNR and m grids")
    swp.add_argument("--config", type=str,
                     help="key = value file mirroring the flags below")
    swp.add_argument("--m", type=int, nargs="+", dest="m_list",
                     help="sampled-column counts")
    swp.add_argument("--snr-db", type=float, nargs="+", dest="snr_db_list")
    swp.add_argument("--trials", type=int)
    swp.add_argument("--mode", choices=RECOVERY_MODES, nargs="+", dest="modes")
    swp.add_argument("--baseline", action=argparse.BooleanOptionalAction,
                     help="include the full-observation floor")
    swp.add_argument("--workers", type=int)
    swp.add_argument("--out", type=str, help="CSV output path")

    return parser


def _print_report(label, rep, spec, out):
    out.write(f"mode:            {label}\n")
    out.write(f"nmse:            {rep.nmse:.6e}\n")
    out.write(f"subspace_dist:   {rep.subspace_dist:.6e}\n")
    out.write(f"channel_uses:    stage1={rep.channel_uses_stage1} "
              f"stage2={rep.channel_uses_stage2} total={rep.channel_uses_total}\n")
    out.write(f"dof:             {spec.scenario.dof}\n")
    out.write(f"seed:            {spec.seed}\n")


def _resolve(args, parser):
    """The SweepSpec and ``--out`` path of ``sweep``, or of ``estimate`` as a one-point sweep."""
    # config-file values, overlaid by the flags given; unset ones take the defaults
    settings = {}
    if vars(args).get("config") is not None:
        settings = vars(parser.parse_args(_config_argv(args.config, parser)))
    settings.update((k, v) for k, v in vars(args).items() if v is not None)
    if args.command == "estimate":
        settings.update(m_list=[args.m], snr_db_list=[args.snr_db], modes=[args.mode])
    spec = SweepSpec(scenario=SystemConfig(**_kwargs(SystemConfig, settings)),
                     **_kwargs(SweepSpec, settings))
    out_path, reason = settings.get("out"), ""
    try:
        usable = out_path is None or (not Path(out_path).is_dir()
                                      and Path(out_path).parent.is_dir())
    except OSError as exc:  # a name the system refuses, such as one too long for it
        usable, reason = False, f" ({exc.strerror})"
    if not usable:
        raise ValueError(f"--out {out_path} is not a file in an existing directory{reason}")
    return spec, out_path


def _cmd_estimate(spec, out):
    # trial 0 of the one-point sweep, so each report is that sweep's row for its label
    _, labels, estimate = _trial_estimates(spec, 0, 0, 0)
    for i, label in enumerate(labels):
        out.write("\n" if i else "")
        _print_report(label, estimate(label), spec, out)
    return 0


def _cmd_sweep(spec, out_path, out):
    start = time.monotonic()
    rows = run_sweep(spec)
    elapsed = time.monotonic() - start
    if out_path is not None:
        write_rows(rows, out_path)
        out.write(f"wrote {len(rows)} rows to {out_path}\n")
    header = (f"{'snr_db':>8} {'m':>4} {'mode':<18} {'n':>5} "
              f"{'nmse_mean':>12} {'nmse_se':>10} {'dist_mean':>12} {'dist_se':>10}")
    out.write(header + "\n")
    for s in summarize(rows):
        out.write(f"{s.snr_db!r:>8} {s.m:>4d} {s.mode:<18} {s.count:>5d} "
                  f"{s.nmse_mean:>12.4e} {s.nmse_stderr:>10.2e} "
                  f"{s.subspace_dist_mean:>12.4e} {s.subspace_dist_stderr:>10.2e}\n")
    out.write(f"{len(rows)} rows in {elapsed:.1f}s\n")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a rejected setting is a usage error, raised before the first draw
        spec, out_path = _resolve(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    try:  # flushed here, so a reader that closed the pipe early is seen here
        status = (_cmd_estimate(spec, sys.stdout) if args.command == "estimate"
                  else _cmd_sweep(spec, out_path, sys.stdout))
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
