"""Command-line front end: curve tabulation, weight fitting, threshold and
Monte-Carlo reports, all emitting deterministic text or CSV.

Subcommands
-----------
curve       write the per-grid-point table ``t_a,qm,lrm,p1,p2,p3,p4,gap``
fit         fit constant acceptance weights at a target efficiency
thresholds  tagging efficiencies against the loophole-free minima
mc          seeded event simulation with the acceptance-bias breakdown

Each setting is declared once, in ``_SETTINGS``: its help, flag type or
choices, default, the JSON types a config value may take and the commands that
read it.  A subcommand registers only the flags it reads.  A JSON file passed
via --config may hold any setting (keys are the flag names with dashes replaced
by underscores), since one scenario file serves every command; explicit flags
override the file.  Every setting is checked before any work starts, and every
error, usage errors included, is one ``error: ...`` line on stderr.  Times on
the CSV axis are in units of 1/gamma_s by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bell
from .bell import EXPECTED_B_TAGGING_EFFICIENCY, NO_BACKGROUND_CAVEAT, threshold_check
from .constants import SPECIES, semileptonic_total, species_params
from .fitting import OBJECTIVES, FitProblem, _curve, _objective_value, default_grid, evaluate_gap, fit_constant_weights
from .lrm import EfficiencyWeights, RhoProfile, lrm_like_joint
from .montecarlo import SimConfig, simulate
from .quantum import TimePair

__all__ = ["main", "entry_point", "PRESETS"]

# Weight presets named after the figures they reproduce; fig2 exists in two
# published variants that disagree, so both ship verbatim.
PRESETS: dict[str, dict] = {
    "fig1": {"species": "kaon", "rho": "saturate_upper_short", "weights": (1.0, 1.0, 1.0, 1.0)},
    "fig2-text": {"species": "kaon", "rho": "saturate_upper_short", "weights": (1.0, 0.07, 0.03, 0.1)},
    "fig2-caption": {"species": "kaon", "rho": "saturate_upper_short", "weights": (0.5, 0.13, 0.5, 0.07)},
    "fig3": {"species": "kaon", "rho": "zero", "weights": (1.0, 0.13, 0.03, 0.04)},
    "fig4": {"species": "bmeson", "rho": "zero", "weights": (0.52, 0.08, 0.52, 0.08)},
}

# the kinds a --rho flag names; 'tabulated' needs knots, so only a config object gives it
_RHO_KINDS = tuple(kind for kind in RhoProfile._KINDS if kind != "tabulated")
_TABULATED = ("'tabulated' takes its knots only from a --config object "
              '{"rho": {"kind": "tabulated", "knots": [[t, rho], ...]}}')


class _Setting:
    """One scenario setting.  ``json_types`` holds the types a --config value may
    take; with ``choices`` the first choice is the default."""

    def __init__(self, help, json_types, commands=("curve", "fit", "mc"), default=None, type=str, choices=()):
        self.help, self.json_types, self.commands = help, json_types, commands
        self.type, self.choices = type, choices
        self.default = choices[0] if choices else default


_SETTINGS = {
    "species": _Setting("meson species", (str,), choices=tuple(SPECIES)),
    "rho": _Setting("rho profile: " + ", ".join(_RHO_KINDS) + "; " + _TABULATED, (str, dict),
                    default=_RHO_KINDS[0]),
    "preset": _Setting("named weight preset: " + ", ".join(sorted(PRESETS)), (str,)),
    "weights": _Setting("acceptance weights 'a1,a2,a3,a4'", (str, list), default="1,1,1,1"),
    "eta": _Setting("target total efficiency in (0, 1], required", (int, float), ("fit",), type=float),
    "grid": _Setting("time grid 'tmin:tmax:n' in units of 1/gamma_s", (str, list), default="0.2:5:200"),
    "tb_rule": _Setting("t_b = K*t_a + C as 'C', 't_a', 'K*t_a' or 'K*t_a+C', C in units of 1/gamma_s",
                        (str, int, float), default="2*t_a"),
    "seed": _Setting("random seed", (int,), ("mc",), default=42, type=int),
    "n_events": _Setting("Monte-Carlo sample size", (int,), ("mc",), default=1_000_000, type=int),
    "out": _Setting("output path for CSV ('-' for stdout)", (str,), ("curve", "fit")),
    "time_unit": _Setting("time axis unit for reports", (str,), choices=("gamma_s", "seconds")),
    "objective": _Setting("fit objective", (str,), ("fit",), choices=OBJECTIVES),
}

_FMT = "%.11e"  # 12 significant digits


class CliError(Exception):
    pass


def _parse_weights(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--weights expects 'a1,a2,a3,a4', got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise CliError(f"--weights values must be numeric, got {text!r}") from None


def _numbers(values) -> bool:
    """Whether every value is a JSON number (a bool is not one)."""
    return all(type(v) in (int, float) for v in values)


def _parse_grid(spec) -> tuple[float, float, int]:
    """'tmin:tmax:n' from a flag, or [tmin, tmax, n] from a config file."""
    if isinstance(spec, str):
        parts = spec.split(":")
    elif len(spec) == 3 and _numbers(spec[:2]) and type(spec[2]) is int:
        parts = spec
    else:
        raise CliError(f"config value 'grid' must be [tmin, tmax, n], numbers with an integer n, got {spec!r}")
    if len(parts) != 3:
        raise CliError(f"--grid expects 'tmin:tmax:n' (integer n) in units of 1/gamma_s, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"--grid fields must be numeric, got {spec!r}") from None
    if n < 1 or hi < lo or lo < 0.0:
        raise CliError(f"--grid needs 0 <= tmin <= tmax and n >= 1, got {spec!r}")
    return lo, hi, n


def _parse_tb_rule(text: str) -> tuple[float, float]:
    """(K, C) of t_b = K*t_a + C from 'C', 't_a', 'K*t_a', 't_a+C', 't_a-C', 'K*t_a+C' or 'K*t_a-C'."""
    rule = text.replace(" ", "")
    head, ta, tail = rule.partition("t_a")
    try:
        if not ta:
            return 0.0, float(rule)
        if head and head[-1] != "*" or tail and tail[0] not in "+-":
            raise ValueError
        return (float(head[:-1]) if head else 1.0), (float(tail) if tail else 0.0)
    except ValueError:
        raise CliError(f"--tb-rule must look like 'C', 't_a', 'K*t_a' or 'K*t_a+C', got {text!r}") from None


def _build_rho(spec) -> RhoProfile:
    """A kind name or a config object {"kind": ..., "knots": [[t, rho], ...]}, checked by RhoProfile."""
    if spec == "tabulated":
        raise CliError(f"rho {_TABULATED}; --rho takes " + ", ".join(_RHO_KINDS))
    if not isinstance(spec, dict):
        return RhoProfile(spec)
    unknown = set(spec) - {"kind", "knots"}
    if unknown:
        raise CliError(f"unknown rho config keys: {sorted(unknown)}")
    return RhoProfile(spec.get("kind"), spec.get("knots"))


def _merge_config(args: argparse.Namespace) -> dict:
    """The --config file's settings, type-checked, then the flags given on the command line."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise CliError(f"config file must hold a JSON object, got {type(file_values).__name__}")
        unknown = [key for key in file_values if key not in _SETTINGS]
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            setting = _SETTINGS[key]
            if type(value) not in setting.json_types:
                expected = " or ".join(t.__name__ for t in setting.json_types)
                raise CliError(f"config value {key!r} must be {expected}, got {type(value).__name__}")
            if setting.choices and value not in setting.choices:
                raise CliError(f"config value {key!r} must be one of {setting.choices}, got {value!r}")
        merged.update(file_values)
    merged.update((key, value) for key, value in vars(args).items() if key in _SETTINGS and value is not None)
    return merged


def _scenario(args: argparse.Namespace) -> dict:
    """Every setting, with the values ``args.command`` reads checked and built before any work."""
    raw = _merge_config(args)
    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        raw = {**PRESETS[preset], **raw}
    scenario = {name: raw.get(name, setting.default) for name, setting in _SETTINGS.items()}

    params = species_params(scenario["species"])  # a declared choice, so always known
    rho = _build_rho(scenario["rho"])
    weights = scenario["weights"]
    if isinstance(weights, str):
        weights = _parse_weights(weights)
    elif not (len(weights) == 4 and _numbers(weights)):
        raise CliError(f"config value 'weights' must be four numbers [a1, a2, a3, a4], got {weights!r}")
    try:
        weights = EfficiencyWeights.constant(*weights)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad weights {weights!r}: {exc}") from None

    lo, hi, n = _parse_grid(scenario["grid"])
    if args.command == "mc":
        n = 1  # mc simulates the first grid point only, and linspace(lo, hi, 1) is that point bit for bit
    elif n < 2 and args.command == "curve":
        raise CliError("curve grids need at least 2 points")
    slope, offset = _parse_tb_rule(str(scenario["tb_rule"]))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite times are rejected below
        t_a, t_b = default_grid(params, n, lo, hi, slope)
        t_b = t_b + offset / params.gamma_s
    if np.any(t_b < 0.0):
        raise CliError("tb rule produced negative times")

    if args.command == "fit":
        if scenario["eta"] is None:
            raise CliError("this command requires --eta")
        scenario["eta"] = float(scenario["eta"])

    scenario.update(params=params, rho=rho, weights=weights, t_a=t_a, t_b=t_b)
    return scenario


def _time_scale(scenario) -> float:
    return 1.0 if scenario["time_unit"] == "seconds" else scenario["params"].gamma_s


def _write_csv(table, scenario) -> None:
    with np.errstate(over="ignore"):  # a time too large for the unit prints as inf
        t_a = table.t_a * _time_scale(scenario)
    cols = np.column_stack([t_a, table.qm, table.lrm, table.p, table.gap])
    # one %-format over the whole table
    row = ",".join([_FMT] * cols.shape[1])
    text = "\n".join([",".join(table.columns)] + [row] * len(cols)) % tuple(cols.ravel().tolist()) + "\n"
    out = scenario["out"]
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {out!r}: {exc}") from None


def cmd_curve(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _write_csv(evaluate_gap(scenario["params"], scenario["rho"], scenario["weights"],
                            scenario["t_a"], scenario["t_b"]), scenario)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    objective = scenario["objective"]
    result = fit_constant_weights(FitProblem(scenario["params"], scenario["rho"], scenario["eta"],
                                             scenario["t_a"], scenario["t_b"], objective))
    table = result.table    # the fit's curve; the input weights' gap is summed on its (P, QM)
    base_gap = _objective_value(_curve(table.t_a, table.t_b, table.p, table.qm,
                                       scenario["weights"].as_tuple()).gap, objective)
    print(f"objective       = {objective}")
    print(f"species         = {scenario['params'].species}")
    print(f"target_eta      = {_FMT % scenario['eta']}")
    print(f"achieved_eta    = {_FMT % result.achieved_eta}")
    print("fitted_weights  = " + ",".join(_FMT % w for w in result.weights.as_tuple()))
    print(f"max_gap         = {_FMT % result.max_abs_gap}")
    print(f"input_gap       = {_FMT % base_gap}  (gap of the --weights/preset values)")
    print(f"iterations      = {result.iterations}")
    if scenario["out"]:
        _write_csv(table, scenario)
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    rows = [
        ("K_L semileptonic total", semileptonic_total("K_L")),
        ("K_S semileptonic total", semileptonic_total("K_S")),
        ("B0 semileptonic total", semileptonic_total("B0")),
        ("B tagging efficiency", EXPECTED_B_TAGGING_EFFICIENCY),
    ]
    print(f"efficiency source         value    vs {bell.EFFICIENCY_THRESHOLD_MAXIMAL:g} (maximal)        "
          f"vs {bell.EFFICIENCY_THRESHOLD_NONMAXIMAL:g} (nonmaximal)")
    for label, eff in rows:
        v_max = threshold_check(eff, "maximal").verdict
        v_non = threshold_check(eff, "nonmaximal").verdict
        print(f"{label:<25} {eff:7.4f}  {v_max:<24} {v_non}")
    print(f"note: {NO_BACKGROUND_CAVEAT}")
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    t_a, t_b = float(scenario["t_a"][0]), float(scenario["t_b"][0])
    config = SimConfig(
        params=scenario["params"],
        rho=scenario["rho"],
        weights=scenario["weights"],
        t=TimePair(t_a, t_b),
        n_events=scenario["n_events"],
        seed=scenario["seed"],
    )
    result = simulate(config)
    analytic = lrm_like_joint(scenario["params"], scenario["rho"], scenario["weights"], t_a, t_b)
    scale = _time_scale(scenario)
    print(f"species         = {scenario['params'].species}")
    print(f"t_a, t_b        = {_FMT % (t_a * scale)}, {_FMT % (t_b * scale)} ({scenario['time_unit']})")
    print(f"n_events        = {result.n_events}")
    print(f"seed            = {config.seed}")
    print(f"estimate        = {_FMT % result.estimate}")
    print(f"stderr          = {_FMT % result.stderr}")
    print(f"analytic_lrm    = {_FMT % analytic}")
    if result.stderr > 0.0:
        print(f"pull            = {(result.estimate - analytic) / result.stderr:+.3f} sigma")
    for i, rate in enumerate(result.acceptance_rates):
        rate_text = _FMT % rate if np.isfinite(rate) else "n/a"
        print(f"acceptance[{i + 1}]   = {rate_text}  ({result.accepted_counts[i]}/{result.pair_counts[i]})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line like every other error, with argparse's exit status
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mesonbell",
        description="Joint flavor-tag predictions for entangled neutral-meson pairs: "
                    "quantum mechanics vs an efficiency-biased local-realistic model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help in (
        ("curve", cmd_curve, "tabulate qm/lrm/P_i curves as CSV"),
        ("fit", cmd_fit, "fit constant acceptance weights at fixed efficiency"),
        ("thresholds", cmd_thresholds, "tagging efficiencies vs loophole-free minima"),
        ("mc", cmd_mc, "seeded event simulation at the first grid point"),
    ):
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=func)
        for name, setting in _SETTINGS.items():
            if command in setting.commands:
                suffix = "" if setting.default is None else f" (default {setting.default})"
                p.add_argument("--" + name.replace("_", "-"), type=setting.type,
                               choices=setting.choices or None, help=setting.help + suffix)
        if command != "thresholds":
            p.add_argument("--config", help="JSON file with settings of any command; flags override")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a MemoryError subclass for a grid too large to allocate
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``mesonbell mc ... | head -2``): exit quietly, with
        # stdout on devnull so that the flush at shutdown cannot raise it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
