"""Command-line front end: curve tabulation, weight fitting, threshold and
Monte-Carlo reports, all emitting deterministic text or CSV.

Subcommands
-----------
curve       write the per-grid-point table ``t_a,qm,lrm,p1,p2,p3,p4,gap``
fit         fit constant acceptance weights at a target efficiency
thresholds  tagging efficiencies against the loophole-free minima
mc          seeded event simulation with the acceptance-bias breakdown

A JSON file passed via --config supplies any of the flag values (keys mirror
the flag names with dashes replaced by underscores); explicit flags override
the file.  Times on the CSV axis are in units of 1/gamma_s by default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bell import EXPECTED_B_TAGGING_EFFICIENCY, NO_BACKGROUND_CAVEAT, threshold_check
from .constants import semileptonic_total, species_params
from .fitting import FitProblem, _objective_value, evaluate_gap, fit_constant_weights
from .lrm import EfficiencyWeights, RhoProfile, lrm_like_joint
from .montecarlo import SimConfig, _bias_report, simulate
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

_RHO_KINDS = ("zero", "saturate_upper_short", "saturate_lower_short")

# the types each --config value may take (flags arrive already parsed)
_CONFIG_TYPES = {"species": (str,), "rho": (str, dict), "preset": (str,), "weights": (str, list),
                 "eta": (int, float), "grid": (str, list), "tb_rule": (str, int, float),
                 "seed": (int,), "n_events": (int,), "out": (str,), "time_unit": (str,)}

_FMT = "{:.11e}"  # 12 significant digits


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


def _parse_grid(spec) -> tuple[float, float, int]:
    """'tmin:tmax:n' from a flag, or [tmin, tmax, n] from a config file."""
    parts = spec.split(":") if isinstance(spec, str) else spec
    if len(parts) != 3 or (not isinstance(spec, str) and type(parts[2]) is not int):
        raise CliError(f"--grid expects 'tmin:tmax:n' (integer n) in units of 1/gamma_s, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except (TypeError, ValueError):
        raise CliError(f"--grid fields must be numeric, got {spec!r}") from None
    if n < 1 or hi < lo or lo < 0.0:
        raise CliError(f"--grid needs 0 <= tmin <= tmax and n >= 1, got {spec!r}")
    return lo, hi, n


def _parse_tb_rule(text: str):
    """Linear rules 'K*t_a', 'K*t_a+C' or a constant 'C' (C in 1/gamma_s units)."""
    compact = text.replace(" ", "")
    slope, offset, rest = 0.0, 0.0, compact
    if "*t_a" in compact:
        head, _, tail = compact.partition("*t_a")
        try:
            slope = float(head)
        except ValueError:
            raise CliError(f"--tb-rule slope must be numeric, got {text!r}") from None
        rest = tail
    elif compact == "t_a":
        slope, rest = 1.0, ""
    if rest:
        try:
            offset = float(rest)
        except ValueError:
            raise CliError(f"--tb-rule must look like '2*t_a', 't_a+0.5' or '3.0', got {text!r}") from None
    if slope == 0.0 and offset == 0.0 and compact not in ("0", "0.0"):
        raise CliError(f"--tb-rule must look like '2*t_a', 't_a+0.5' or '3.0', got {text!r}")
    return slope, offset


def _build_rho(spec) -> RhoProfile:
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "tabulated":
            try:
                return RhoProfile.tabulated(spec["knots"])
            except (KeyError, TypeError) as exc:
                raise CliError(f"tabulated rho needs 'knots': [[t, rho], ...]; {exc!r}") from None
        spec = kind
    if spec in _RHO_KINDS:
        return RhoProfile(spec)
    raise CliError(f"unknown rho profile {spec!r}; expected one of {_RHO_KINDS} "
                   "or a config object {'kind': 'tabulated', 'knots': [[t, rho], ...]}")


def _merge_config(args: argparse.Namespace) -> dict:
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
        unknown = set(file_values) - set(_CONFIG_TYPES)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if type(value) not in _CONFIG_TYPES[key]:
                expected = " or ".join(t.__name__ for t in _CONFIG_TYPES[key])
                raise CliError(f"config value {key!r} must be {expected}, got {type(value).__name__}")
        merged.update(file_values)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _scenario(args: argparse.Namespace, *, need_eta: bool = False):
    raw = _merge_config(args)

    species = raw.get("species")
    rho_spec = raw.get("rho")
    weights_spec = raw.get("weights")
    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        entry = PRESETS[preset]
        species = species or entry["species"]
        rho_spec = rho_spec or entry["rho"]
        weights_spec = weights_spec if weights_spec is not None else entry["weights"]

    species = species or "kaon"
    try:
        params = species_params(species)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    rho = _build_rho(rho_spec if rho_spec is not None else "zero")

    if isinstance(weights_spec, str):
        weights_spec = _parse_weights(weights_spec)
    if weights_spec is None:
        weights_spec = (1.0, 1.0, 1.0, 1.0)
    try:
        weights = EfficiencyWeights.constant(*weights_spec)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad weights {weights_spec!r}: {exc}") from None

    lo, hi, n = _parse_grid(raw.get("grid", "0.2:5:200"))
    if n < 2 and not need_eta and args.command == "curve":
        raise CliError("curve grids need at least 2 points")
    slope, offset = _parse_tb_rule(str(raw.get("tb_rule", "2*t_a")))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite times are rejected below
        t_a = np.linspace(lo, hi, n) / params.gamma_s
        t_b = slope * t_a + offset / params.gamma_s
    if np.any(t_b < 0.0):
        raise CliError("tb rule produced negative times")

    eta = raw.get("eta")
    if need_eta:
        if eta is None:
            raise CliError("this command requires --eta")
        eta = float(eta)

    return {
        "params": params,
        "rho": rho,
        "weights": weights,
        "t_a": t_a,
        "t_b": t_b,
        "eta": eta,
        "seed": int(raw.get("seed", 42)),
        "n_events": int(raw.get("n_events", 1_000_000)),
        "out": raw.get("out"),
        "time_unit": raw.get("time_unit", "gamma_s"),
    }


def _time_scale(scenario) -> float:
    if scenario["time_unit"] == "seconds":
        return 1.0
    if scenario["time_unit"] == "gamma_s":
        return scenario["params"].gamma_s
    raise CliError(f"--time-unit must be 'gamma_s' or 'seconds', got {scenario['time_unit']!r}")


def _write_csv(table, scenario) -> None:
    with np.errstate(over="ignore"):  # a time too large for the unit prints as inf
        t_a = table.t_a * _time_scale(scenario)
    cols = np.column_stack([t_a, table.qm, table.lrm, table.p, table.gap])
    # one %-format over the whole table; "%.11e" prints the same bytes as _FMT
    row = ",".join(["%.11e"] * cols.shape[1])
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
    table = evaluate_gap(scenario["params"], scenario["rho"], scenario["weights"],
                         scenario["t_a"], scenario["t_b"])
    _write_csv(table, scenario)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    scenario = _scenario(args, need_eta=True)
    objective = args.objective
    problem = FitProblem(scenario["params"], scenario["rho"], scenario["eta"],
                         scenario["t_a"], scenario["t_b"], objective)
    result = fit_constant_weights(problem)
    fitted = result.weights.as_tuple()
    baseline = evaluate_gap(scenario["params"], scenario["rho"], scenario["weights"],
                            scenario["t_a"], scenario["t_b"])
    base_gap = _objective_value(baseline.gap, objective)
    print(f"objective       = {objective}")
    print(f"species         = {scenario['params'].species}")
    print(f"target_eta      = {_FMT.format(scenario['eta'])}")
    print(f"achieved_eta    = {_FMT.format(result.achieved_eta)}")
    print("fitted_weights  = " + ",".join(_FMT.format(w) for w in fitted))
    print(f"max_gap         = {_FMT.format(result.max_abs_gap)}")
    print(f"input_gap       = {_FMT.format(base_gap)}  (gap of the --weights/preset values)")
    print(f"iterations      = {result.iterations}")
    if scenario["out"]:
        table = evaluate_gap(scenario["params"], scenario["rho"], result.weights,
                             scenario["t_a"], scenario["t_b"])
        _write_csv(table, scenario)
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    rows = [
        ("K_L semileptonic total", semileptonic_total("K_L")),
        ("K_S semileptonic total", semileptonic_total("K_S")),
        ("B0 semileptonic total", semileptonic_total("B0")),
        ("B tagging efficiency", EXPECTED_B_TAGGING_EFFICIENCY),
    ]
    print("efficiency source         value    vs 0.81 (maximal)        vs 0.67 (nonmaximal)")
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
    bias = _bias_report(result)
    analytic = lrm_like_joint(scenario["params"], scenario["rho"], scenario["weights"], t_a, t_b)
    scale = _time_scale(scenario)
    print(f"species         = {scenario['params'].species}")
    print(f"t_a, t_b        = {_FMT.format(t_a * scale)}, {_FMT.format(t_b * scale)} ({scenario['time_unit']})")
    print(f"n_events        = {result.n_events}")
    print(f"seed            = {config.seed}")
    print(f"estimate        = {_FMT.format(result.estimate)}")
    print(f"stderr          = {_FMT.format(result.stderr)}")
    print(f"analytic_lrm    = {_FMT.format(analytic)}")
    if result.stderr > 0.0:
        print(f"pull            = {(result.estimate - analytic) / result.stderr:+.3f} sigma")
    for i in range(4):
        rate = bias.rates[i]
        rate_text = _FMT.format(rate) if np.isfinite(rate) else "n/a"
        print(f"acceptance[{i + 1}]   = {rate_text}  ({bias.accepted_counts[i]}/{bias.pair_counts[i]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesonbell",
        description="Joint flavor-tag predictions for entangled neutral-meson pairs: "
                    "quantum mechanics vs an efficiency-biased local-realistic model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--species", choices=("kaon", "bmeson"), help="meson species")
        p.add_argument("--rho", help="rho profile: " + ", ".join(_RHO_KINDS))
        p.add_argument("--preset", help="named weight preset: " + ", ".join(sorted(PRESETS)))
        p.add_argument("--weights", help="acceptance weights 'a1,a2,a3,a4'")
        p.add_argument("--eta", type=float, help="target total efficiency in (0, 1]")
        p.add_argument("--grid", help="time grid 'tmin:tmax:n' in units of 1/gamma_s (default 0.2:5:200)")
        p.add_argument("--tb-rule", dest="tb_rule", help="t_b as a function of t_a, e.g. '2*t_a' (default)")
        p.add_argument("--seed", type=int, help="random seed (default 42)")
        p.add_argument("--n-events", dest="n_events", type=int, help="Monte-Carlo sample size (default 1e6)")
        p.add_argument("--out", help="output path for CSV ('-' for stdout)")
        p.add_argument("--config", help="JSON file with any of these values; flags override")
        p.add_argument("--time-unit", dest="time_unit", choices=("gamma_s", "seconds"),
                       help="time axis unit for reports (default gamma_s)")

    p_curve = sub.add_parser("curve", help="tabulate qm/lrm/P_i curves as CSV")
    add_common(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_fit = sub.add_parser("fit", help="fit constant acceptance weights at fixed efficiency")
    add_common(p_fit)
    p_fit.add_argument("--objective", choices=("match_qm", "underbound_qm"),
                       default="match_qm", help="fit objective (default match_qm)")
    p_fit.set_defaults(func=cmd_fit)

    p_thr = sub.add_parser("thresholds", help="tagging efficiencies vs loophole-free minima")
    p_thr.set_defaults(func=cmd_thresholds)

    p_mc = sub.add_parser("mc", help="seeded event simulation at the first grid point")
    add_common(p_mc)
    p_mc.set_defaults(func=cmd_mc)
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


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
