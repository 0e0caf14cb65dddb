"""Command-line interface.

Subcommands
-----------
keyrate      evaluate the rate formulas at fixed (mu, nu_th, eta)
curve        optimize (mu, nu_th) over a transmission sweep, one curve per M
optimize     as ``curve`` but additionally choosing M per transmission point
attack       intercept-resend attack statistics on naive slow-basis sifting
mc-validate  event-level Monte Carlo vs the analytic rates

Every subcommand accepts ``--config FILE`` (a JSON object whose keys are
flag names; hyphens and underscores are interchangeable).  Precedence is
built-in defaults < config file < explicit flags.  The protocol and attack
options, with their types and defaults, are the fields of ``ProtocolParams``
and ``AttackScenario``.  Output is CSV, written atomically to ``--out`` (no
partial files on failure) or to stdout.

Exit codes: 0 success; 2 usage or config errors (including values of the
wrong type); 3 domain errors (invalid parameter combinations, failed runs,
unwritable output).
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, fields
from functools import cache, partial
from typing import get_type_hints

import numpy as np

from ._env import fan_out
from .attacksim import AttackScenario, analytic_success, run_attack
from .keyrate import ProtocolParams, key_rate
from .montecarlo import McConfig, binomial_stderr, compare_to_analytic
from .optimizer import (
    M_CANDIDATES_DEFAULT, POINTS_PER_DECADE, CurveSpec, Optimum, optimize_with_M, sweep_curves,
)

__all__ = ["main"]

RATE_HEADER = (
    "eta,M,L,detector,c_d,mu_opt,nu_th_opt,Q,e_bit,e_ph,e_src_slow,e_mB,G_raw,G"
)
ATTACK_HEADER = (
    "p_z,M,n_sequences,n_measured,n_clean,trials,analytic_success,"
    "empirical_success,stderr,sifted_naive_mean,sifted_modified_mean"
)
MC_HEADER = "quantity,analytic,empirical,stderr,z"


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# options: name -> (type, default); MISSING marks a required option


_INTS = tuple[int, ...]  # "1,10,100", flags 1 10 100, or a JSON list of integers


def _options(cls: type, skip: tuple[str, ...] = (), **extra: tuple) -> dict[str, tuple]:
    """The fields of dataclass ``cls`` (less ``skip``) as options, then ``extra``."""
    hints = get_type_hints(cls)
    own = {f.name: (hints[f.name], f.default) for f in fields(cls) if f.name not in skip}
    return {**own, **extra}


_SWEPT = ("mu", "nu_th", "eta", "M")  # set point by point by the optimizer
_SWEEP = dict(
    eta_min=(float, 1e-4),
    eta_max=(float, 1.0),
    eta_points=(int, 41),
    points_per_decade=(int, POINTS_PER_DECADE),
)
_RUNS = dict(trials=(int, 100_000), seed=(int, 1))
_PROTOCOL = _options(ProtocolParams)

_HELP = {
    "mu": "mean photon number per pulse",
    "nu_th": "photon-number tagging threshold",
    "eta": "channel transmission",
    "M": "sequence length: blocks (attack: pulses) per basis choice",
    "L": "pulses per block",
    "e_sys": "optical misalignment error",
    "d_c": "dark count probability per slot",
    "c_d": "basis-switch dead time in pulse slots",
    "M_list": "M values, one curve each (1,10,100 or 1 10 100)",
    "M_candidates": "M values to choose from at each point",
    "points_per_decade": "mu-grid density for the optimizer",
    "p_z": "probability of the key basis",
}


def _coerce(key: str, kind: object, value: object) -> object:
    """One option value, from a flag (a string) or a config file, as ``kind``.

    A value of the wrong type is a usage error naming the key.  A choice outside
    an enum, as a flag or in a config, is a domain error like any out-of-range value.
    """
    if isinstance(kind, enum.EnumMeta):
        choices = [e.value for e in kind]
        if value in choices:
            return kind(value)
        if isinstance(value, str):
            raise ValueError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        wanted = "one of " + ", ".join(choices)
    elif kind == _INTS:
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok.strip()]
        if isinstance(value, list):
            return tuple(_coerce(f"each entry of {key}", int, v) for v in value)
        wanted = "a list of integers"
    else:
        wanted = "an integer" if kind is int else "a number"
        number = value
        if kind is int and isinstance(value, str):
            # a flag "5.0" or "1e3" reads like the config value 5.0 or 1e3
            for parse in (int, float):
                try:
                    number = parse(value)
                    break
                except ValueError:
                    pass
        if kind is int and isinstance(number, float) and number.is_integer():
            number = int(number)
        accepted = (int, float, str) if kind is float else (int,)
        if isinstance(number, accepted) and not isinstance(number, bool):
            try:
                return kind(number)
            except (ValueError, OverflowError):
                pass
    raise _UsageError(f"{key} must be {wanted}, got {value!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path!r} must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _gather(args: argparse.Namespace) -> tuple[dict, str | None]:
    """Merge defaults, config file and explicit flags for one subcommand."""
    flags = vars(args).copy()
    cmd, out, config_path = flags.pop("command"), flags.pop("out"), flags.pop("config")
    options = _COMMANDS[cmd][2]
    given = {}
    if config_path is not None:
        given = _load_config(config_path)
        unknown = sorted(set(given) - set(options))
        if unknown:
            raise _UsageError(f"unknown config key(s) for {cmd}: {', '.join(unknown)}")
    # a list flag's tokens ("--M-list 1 10") read as the string "1,10"
    given.update({k: ",".join(v) if isinstance(v, list) else v for k, v in flags.items()})
    merged = {key: default for key, (_, default) in options.items() if default is not MISSING}
    merged.update({key: _coerce(key, options[key][0], v) for key, v in given.items()})
    missing = sorted(set(options) - set(merged))
    if missing:
        raise _UsageError(f"{cmd} requires: {', '.join(missing)}")
    return merged, out


def _build(cls: type, m: dict, **fixed: object) -> object:
    """An instance of dataclass ``cls`` from the merged options naming its fields."""
    return cls(**{f.name: m[f.name] for f in fields(cls) if f.name in m}, **fixed)


# ---------------------------------------------------------------------------
# plumbing


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slowqkd-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(value: object) -> str:
    """An enum's value, an int or str as it is, else the shortest
    round-tripping decimal form of the float; stable across runs."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _emit(out: str | None, header: str, rows: list[dict]) -> None:
    """Write ``rows`` (column name -> value) as CSV cells in ``header``'s column order."""
    names = header.split(",")
    text = "\n".join([header, *(",".join(_cell(r[n]) for n in names) for r in rows)]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _eta_grid(m: dict) -> tuple[float, ...]:
    lo, hi, n = m["eta_min"], m["eta_max"], m["eta_points"]
    if n < 1:
        raise ValueError(f"eta_points must be >= 1, got {n}")
    if not (0.0 < lo <= 1.0 and 0.0 < hi <= 1.0):
        raise ValueError(f"eta_min and eta_max must lie in (0, 1], got {lo} and {hi}")
    if n == 1:
        return (hi,)
    if lo >= hi:
        raise ValueError("eta_min must be < eta_max when eta_points > 1")
    return tuple(float(x) for x in np.logspace(math.log10(lo), math.log10(hi), n))


def _sweep_base(m: dict) -> ProtocolParams:
    # Placeholder mu/nu_th/eta: the optimizer replaces them point by point.
    return _build(ProtocolParams, m, mu=0.0, nu_th=0, eta=0.0)


def _emit_optima(out: str | None, base: ProtocolParams, optima: list[Optimum]) -> None:
    # L, detector and c_d from base; the optimum's eta and M replace base's
    _emit(out, RATE_HEADER, [{**vars(base), **vars(o), **vars(o.result)} for o in optima])


# ---------------------------------------------------------------------------
# subcommands


def cmd_keyrate(m: dict, out: str | None) -> None:
    p = _build(ProtocolParams, m)
    _emit_optima(out, p, [Optimum(p.eta, p.M, p.mu, p.nu_th, key_rate(p))])


def cmd_curve(m: dict, out: str | None) -> None:
    base = _sweep_base(m)
    spec = CurveSpec(base=base, eta_grid=_eta_grid(m), M_values=m["M_list"])
    _emit_optima(out, base, sweep_curves(spec, points_per_decade=m["points_per_decade"]))


def cmd_optimize(m: dict, out: str | None) -> None:
    base = _sweep_base(m)
    grid = _eta_grid(m)
    optima = list(fan_out(partial(optimize_with_M, points_per_decade=m["points_per_decade"]),
                          ((base, eta, m["M_candidates"]) for eta in grid), len(grid)))
    _emit_optima(out, base, optima)


def cmd_attack(m: dict, out: str | None) -> None:
    sc = _build(AttackScenario, m)
    stats = run_attack(sc, m["trials"], m["seed"])
    row = dict(
        vars(sc),
        trials=stats.trials,
        analytic_success=analytic_success(sc),
        empirical_success=stats.empirical_success,
        stderr=binomial_stderr(stats.successes, stats.trials),
        sifted_naive_mean=stats.sifted_naive_mean,
        sifted_modified_mean=stats.sifted_modified_mean,
    )
    _emit(out, ATTACK_HEADER, [row])


def cmd_mc_validate(m: dict, out: str | None) -> None:
    # nu_th and c_d enter none of Q, e_bit and e_mB, nor the simulation.
    cfg = _build(McConfig, m, params=_build(ProtocolParams, m, nu_th=0))
    try:
        rows = compare_to_analytic(cfg)
    except MemoryError as exc:  # a chunk of at least M*L slots holds a sum per block
        raise ValueError(f"out of memory at M*L = {cfg.params.M * cfg.params.L} slots") from exc
    _emit(out, MC_HEADER, [vars(c) for c in rows])


# subcommand -> (handler, help, options)
_COMMANDS: dict[str, tuple] = {
    "keyrate": (cmd_keyrate, "evaluate the rate formulas at one point", _PROTOCOL),
    "curve": (
        cmd_curve,
        "optimized rate over a transmission sweep",
        _options(ProtocolParams, _SWEPT, M_list=(_INTS, (_PROTOCOL["M"][1],)), **_SWEEP),
    ),
    "optimize": (
        cmd_optimize,
        "sweep with M chosen per point",
        _options(ProtocolParams, _SWEPT, M_candidates=(_INTS, M_CANDIDATES_DEFAULT), **_SWEEP),
    ),
    "attack": (
        cmd_attack, "intercept-resend attack on naive sifting", _options(AttackScenario, **_RUNS)
    ),
    "mc-validate": (
        cmd_mc_validate,
        "event-level Monte Carlo vs analytic rates",
        _options(ProtocolParams, ("nu_th", "c_d"), **_options(McConfig, ("params",), **_RUNS)),
    ),
}


# ---------------------------------------------------------------------------
# parser


@cache  # one parser per process: building it costs about 2 ms a call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowqkd",
        description="Key rates, optimization and simulations for slow-basis QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=help_text)
        for key, (kind, _) in options.items():
            sp.add_argument(
                "--" + key.replace("_", "-"),
                default=argparse.SUPPRESS,
                help=_HELP.get(key),
                metavar=("{%s}" % ",".join(e.value for e in kind)  # no choices: _coerce checks
                         if isinstance(kind, enum.EnumMeta) else None),
                nargs="+" if kind == _INTS else None,
            )
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config; flags override its values")
        sp.add_argument("--out", default=None, metavar="CSV",
                        help="output path (atomic write); stdout if omitted")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        merged, out = _gather(args)
        _COMMANDS[args.command][0](merged, out)
    except _UsageError as exc:
        print(f"slowqkd: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"slowqkd: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
