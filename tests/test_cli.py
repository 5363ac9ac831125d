import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mesonbell import cli
from mesonbell.cli import _SETTINGS, PRESETS, _scenario, _write_csv, build_parser, main
from mesonbell.constants import KAON, SPECIES
from mesonbell.fitting import OBJECTIVES, CurveTable
from mesonbell.lrm import RhoProfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_carry_the_published_values():
    assert PRESETS["fig1"]["weights"] == (1.0, 1.0, 1.0, 1.0)
    assert PRESETS["fig2-text"]["weights"] == (1.0, 0.07, 0.03, 0.1)
    assert PRESETS["fig2-caption"]["weights"] == (0.5, 0.13, 0.5, 0.07)
    assert PRESETS["fig3"]["weights"] == (1.0, 0.13, 0.03, 0.04)
    assert PRESETS["fig4"]["weights"] == (0.52, 0.08, 0.52, 0.08)
    assert PRESETS["fig4"]["species"] == "bmeson"
    for name in ("fig1", "fig2-text", "fig2-caption"):
        assert PRESETS[name]["rho"] == "saturate_upper_short"
    for name in ("fig3", "fig4"):
        assert PRESETS[name]["rho"] == "zero"
    # both fig2 variants quote eta = 0.3
    for name in ("fig2-text", "fig2-caption", "fig3"):
        assert sum(PRESETS[name]["weights"]) == pytest.approx(1.2)


def test_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _, err = run(capsys, "curve", "--preset", "fig3", "--out", str(out))
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "t_a,qm,lrm,p1,p2,p3,p4,gap"
    assert len(lines) == 201
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[0]) == pytest.approx(0.2, rel=1e-11)
    # 12 significant digits in scientific notation
    assert "e" in first[1] and len(first[1].split("e")[0].replace("-", "").replace(".", "")) == 12


def test_curve_output_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "curve", "--preset", "fig4", "--out", str(a))[0] == 0
    assert run(capsys, "curve", "--preset", "fig4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig1_csv_has_no_negative_zero(capsys):
    # the saturated profile gives P1 = first * 0.0 * (negative flip) past the turnover
    code, out, _ = run(capsys, "curve", "--preset", "fig1", "--out", "-")
    assert code == 0 and "-0.0" not in out


def test_curve_stdout_and_zero_weights(capsys):
    code, out, _ = run(capsys, "curve", "--weights", "0,0,0,0", "--grid", "0.5:1.0:2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) == 0.0


def test_curve_time_unit_seconds(tmp_path, capsys):
    out_g = tmp_path / "g.csv"
    out_s = tmp_path / "s.csv"
    run(capsys, "curve", "--grid", "1:1:2", "--out", str(out_g))
    run(capsys, "curve", "--grid", "1:1:2", "--time-unit", "seconds", "--out", str(out_s))
    t_g = float(out_g.read_text().splitlines()[1].split(",")[0])
    t_s = float(out_s.read_text().splitlines()[1].split(",")[0])
    assert t_g == pytest.approx(1.0, rel=1e-11)
    assert t_s == pytest.approx(1.0 / KAON.gamma_s, rel=1e-11)


def test_curve_tb_rule(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run(capsys, "curve", "--grid", "1:2:2", "--tb-rule", "3*t_a+1", "--out", str(out))
    assert code == 0
    # verify through the qm column: qm(t_a, 3 t_a + 1/gamma_s)
    import mesonbell

    row = out.read_text().splitlines()[1].split(",")
    t_a = float(row[0]) / KAON.gamma_s
    expected = mesonbell.qm_like_joint(KAON, t_a, 3 * t_a + 1.0 / KAON.gamma_s)
    assert float(row[1]) == pytest.approx(expected, rel=1e-10)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"preset": "fig4", "grid": "0.5:2:4"}))
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "curve", "--config", str(config), "--grid", "0.5:2:5",
                     "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 6  # header + 5 (flag wins)


@pytest.mark.parametrize("rule, slope, offset", [
    ("3.0", 0.0, 3.0), ("0", 0.0, 0.0), ("0.00", 0.0, 0.0), ("t_a", 1.0, 0.0), ("2*t_a", 2.0, 0.0),
    ("0*t_a", 0.0, 0.0), ("0.5*t_a", 0.5, 0.0), ("t_a+0.5", 1.0, 0.5), ("t_a-0.5", 1.0, -0.5),
    ("3 * t_a + 1", 3.0, 1.0), ("-1*t_a+3", -1.0, 3.0), ("5e-1*t_a-2.5e-1", 0.5, -0.25),
])
def test_tb_rule_gives_t_b_as_k_t_a_plus_c(rule, slope, offset):
    scenario = _scenario(build_parser().parse_args(["curve", "--grid", "1:2:3", f"--tb-rule={rule}"]))
    t_a = np.linspace(1.0, 2.0, 3) / KAON.gamma_s
    assert np.array_equal(scenario["t_a"], t_a)
    assert np.array_equal(scenario["t_b"], slope * t_a + offset / KAON.gamma_s)


@pytest.mark.parametrize("rule", ["", "t_b", "2t_a", "t_a*2", "-t_a", "*t_a", "t_a+", "t_a+-1",
                                  "t_a++1", "2*t_a+t_a", "t_a t_a", "1/2*t_a", "2*t_a*t_a", "x"])
def test_tb_rule_rejects_other_forms_in_one_line(capsys, rule):
    code, out, err = run(capsys, "curve", "--grid", "1:2:3", f"--tb-rule={rule}")
    assert code == 1 and out == ""
    assert err == f"error: --tb-rule must look like 'C', 't_a', 'K*t_a' or 'K*t_a+C', got {rule!r}\n"


def report_fields(out):
    return dict((k.strip(), v.strip()) for k, v in
                (line.split("=", 1) for line in out.splitlines() if "=" in line))


def test_curve_backward_tb_rule_relabels_the_forward_table(capsys):
    # t_b = t_a / 2 is the forward fig3 ray read from the other side: the
    # same time pairs (t_b, t_a) come from grid 0.1:2.5 with t_b = 2 t_a
    code, back, err = run(capsys, "curve", "--preset", "fig3", "--tb-rule", "0.5*t_a")
    assert code == 0 and err == ""
    code, fwd, _ = run(capsys, "curve", "--preset", "fig3", "--grid", "0.1:2.5:200")
    assert code == 0
    back_rows = [line.split(",") for line in back.splitlines()[1:]]
    fwd_rows = [line.split(",") for line in fwd.splitlines()[1:]]
    assert len(back_rows) == len(fwd_rows) == 200
    for b, f in zip(back_rows, fwd_rows):
        assert b[3:7] == f[3:7][::-1]
        assert b[1] == f[1]  # the QM rate is symmetric


def test_fit_backward_tb_rule(capsys):
    code, out, err = run(capsys, "fit", "--preset", "fig3", "--eta", "0.3", "--tb-rule", "0.5*t_a")
    assert code == 0 and err == ""
    fitted = [float(x) for x in report_fields(out)["fitted_weights"].split(",")]
    assert abs(np.mean(fitted) - 0.3) < 1e-12


def test_mc_backward_times_match_the_mirrored_scenario(capsys):
    code, back, err = run(capsys, "mc", "--preset", "fig3", "--grid", "1:1:1",
                          "--tb-rule", "0.5*t_a", "--n-events", "20000")
    assert code == 0 and err == ""
    code, mirrored, _ = run(capsys, "mc", "--species", "kaon", "--rho", "zero",
                            "--weights", "0.04,0.03,0.13,1.0", "--grid", "0.5:0.5:1",
                            "--n-events", "20000")
    assert code == 0
    assert report_fields(back)["analytic_lrm"] == report_fields(mirrored)["analytic_lrm"]


def test_unknown_preset_is_single_line_error(capsys):
    code, out, err = run(capsys, "curve", "--preset", "fig9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"species": "kaon", "flavor": "up"}))
    code, _, err = run(capsys, "curve", "--config", str(config))
    assert code == 1 and "unknown config keys" in err


@pytest.mark.parametrize("command,config", [
    ("curve", 5), ("curve", [1]), ("curve", "fig3"), ("curve", None), ("curve", {"grid": 5}),
    ("mc", {"seed": [1]}), ("curve", {"grid": None}), ("curve", {"eta": "0.3"}),
    ("curve", {"grid": [0.2, 5, 2.5]}), ("curve", {"rho": {"kind": "tabulated"}}),
    ("curve", {"weights": [10**400, 0, 0, 0]}), ("fit", {"eta": 10**400}),
    ("curve", {"rho": {"kind": "zero", "knots": [[0, 1e-12], [1, 2e-12]]}}),
    ("curve", {"rho": {"kind": "zero", "typo": 3}}),
    ("curve", {"rho": "tabulated"}), ("curve", {"rho": {"knots": [[0, 0], [1, 0]]}}),
    ("curve", {"rho": {"knots": 5, "kind": "tabulated"}}),
    ("curve", {"rho": {"knots": [[1], [2]], "kind": "tabulated"}}),
    ("curve", {"rho": {"knots": [[None, 0], [1, 0]], "kind": "tabulated"}}),
    ("curve", {"weights": [1, 0.13, "0.03", True]}), ("curve", {"grid": [0.2, True, 2]}),
    ("curve", {"grid": [0.2, "5", 2]}),
], ids=lambda v: v if v in ("curve", "mc", "fit") else json.dumps(v)[:32])
def test_bad_config_values_are_single_line_errors(tmp_path, capsys, command, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("config,message", [
    ({"weights": [1, 0.13, 0.03]}, "config value 'weights' must be four numbers [a1, a2, a3, a4], got [1, 0.13, 0.03]"),
    ({"weights": [1, 0.13, 0.03, True]},
     "config value 'weights' must be four numbers [a1, a2, a3, a4], got [1, 0.13, 0.03, True]"),
    ({"grid": [0.2, True, 2]}, "config value 'grid' must be [tmin, tmax, n], numbers with an integer n, "
                               "got [0.2, True, 2]"),
], ids=["three-weights", "bool-weight", "bool-grid-field"])
def test_config_lists_take_json_numbers_only(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "curve", "--config", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bad_weight_error_shows_the_plain_value(capsys):
    code, out, err = run(capsys, "curve", "--weights", "nan,1,1,1")
    assert code == 1 and out == ""
    assert err == "error: bad weights (nan, 1.0, 1.0, 1.0): acceptance weights must lie in [0, 1]; got nan\n"


def test_overflowing_time_rule_is_one_error_line(capsys):
    # a numpy warning would print its own lines on stderr ahead of the error;
    # t_b = 1e308 t_a is finite but past the kaon's time domain
    for grid, rule in [("0:1e300:3", "1e300*t_a"), ("0.2:5:3", "1e308*t_a")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "curve", "--grid", grid, "--tb-rule", rule)
        assert code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["curve"], ["fit", "--eta", "0.3"]])
def test_a_grid_too_large_to_allocate_is_one_error_line(capsys, command):
    # 1e15 points take 8 PB per time axis, which numpy refuses at once
    code, out, err = run(capsys, *command, "--grid", "0.2:5:1000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: MemoryError: ") and len(err.splitlines()) == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# plausible values next to arbitrary JSON, so that valid scenarios occur too;
# integers stay small because a valid grid or sample size is a real workload
_PLAUSIBLE = {
    "species": st.sampled_from(["kaon", "bmeson", "pion"]),
    "rho": st.sampled_from(["zero", "saturate_upper_short", "saturate_lower_short", "flat"])
    | st.fixed_dictionaries({"kind": st.just("tabulated"),
                             "knots": st.lists(st.lists(st.floats(0.0, 1e-9), min_size=2, max_size=2),
                                               max_size=3)}),
    "preset": st.sampled_from(sorted(PRESETS) + ["fig9"]),
    "weights": st.just("1,0.13,0.03,0.04") | st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=5),
    "eta": st.floats(-0.5, 1.5),
    "grid": st.sampled_from(["0.2:5:3", "1:1:1", "5:0:3", "0.2:5:0", "0.2:5"])
    | st.lists(st.floats(0.0, 6.0) | st.integers(-1, 4), min_size=2, max_size=4),
    "tb_rule": st.sampled_from(["2*t_a", "0.5*t_a", "t_a+0.5", "3.0", "t_a", "t_b"]),
    "seed": st.integers(-2, 2**40),
    "n_events": st.integers(-2, 2000),
    "time_unit": st.sampled_from(["gamma_s", "seconds", "days"]),
    # never an arbitrary string: the value is a path the command writes to
    "out": st.just("-") | _JSON.filter(lambda v: not isinstance(v, str)),
}
_CONFIGS = _JSON | st.sets(st.sampled_from(sorted(_PLAUSIBLE)), max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: _PLAUSIBLE[key] if key == "out" else _JSON | _PLAUSIBLE[key] for key in keys}))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=_CONFIGS, command=st.sampled_from(["curve", "mc", "fit"]))
def test_any_json_config_exits_cleanly(tmp_path, config, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    # a warning would print lines of its own on stderr ahead of the error line
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path)])
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def test_inadmissible_rho_propagates_with_time(capsys):
    code, _, err = run(capsys, "curve", "--species", "bmeson", "--rho", "saturate_upper_short")
    assert code == 1
    assert "error:" in err and "inadmissible at t=" in err


def test_unwritable_path_fails_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "--preset", "fig3",
                       "--out", str(tmp_path / "nope" / "x.csv"))
    assert code == 1 and err.startswith("error: ")


def test_fit_reports_and_beats_the_preset(capsys):
    code, out, _ = run(capsys, "fit", "--preset", "fig3", "--eta", "0.3", "--grid", "0.2:5:60")
    assert code == 0
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, rest = line.partition("=")
            values[key.strip()] = rest.strip().split()[0]
    assert values["objective"] == "match_qm"
    assert abs(float(values["achieved_eta"]) - 0.3) < 1e-9
    assert float(values["max_gap"]) <= float(values["input_gap"])
    fitted = [float(x) for x in values["fitted_weights"].split(",")]
    assert len(fitted) == 4 and all(0.0 <= w <= 1.0 for w in fitted)
    assert int(values["iterations"]) >= 0


def test_fit_eta_one_returns_unit_weights(capsys):
    code, out, _ = run(capsys, "fit", "--eta", "1.0", "--grid", "0.2:5:40")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("fitted_weights"))
    fitted = [float(x) for x in line.split("=")[1].split(",")]
    assert fitted == [1.0, 1.0, 1.0, 1.0]


def test_fit_requires_eta(capsys):
    code, _, err = run(capsys, "fit", "--preset", "fig3")
    assert code == 1 and "requires --eta" in err


def test_fit_infeasible_eta(capsys):
    code, _, err = run(capsys, "fit", "--eta", "1.5", "--grid", "0.2:5:10")
    assert code == 1 and err.startswith("error: ")


def test_fit_writes_gap_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code, _, _ = run(capsys, "fit", "--preset", "fig3", "--eta", "0.3",
                     "--grid", "0.2:5:30", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_a,qm,lrm,p1,p2,p3,p4,gap"
    assert len(lines) == 31


def test_thresholds_report(capsys):
    code, out, _ = run(capsys, "thresholds")
    assert code == 0
    assert "K_L semileptonic total" in out
    assert "0.3298" in out
    assert "B tagging efficiency" in out
    assert "0.4500" in out
    # every tabulated efficiency sits below both limits
    data_lines = [l for l in out.splitlines()[1:] if l and not l.startswith("note")]
    assert all(l.count("detection_loophole") == 2 for l in data_lines)
    assert "background-free" in out


@pytest.mark.parametrize("module", ["mesonbell", "mesonbell.cli"])
def test_module_entry_points_run_the_cli(module, capsys):
    _, expected, _ = run(capsys, "thresholds")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", module, "thresholds"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert "K_L semileptonic total" in proc.stdout


@pytest.mark.parametrize("argv, loaded", [
    (["thresholds"], []),
    (["curve", "--preset", "fig3"], []),
    (["fit", "--preset", "fig3", "--eta", "0.3", "--grid", "0.2:5:20"], ["scipy.optimize"]),
    # the event counts are drawn with numpy alone, whatever their number
    (["mc", "--preset", "fig3", "--grid", "1:1:1", "--n-events", "5000000"], []),
    # enough grid points (32 chunks) for the tables to start a helper thread on a multi-core host
    (["curve", "--preset", "fig3", "--grid", "0.2:5:524288"], []),
])
def test_commands_import_only_the_scipy_they_need(argv, loaded):
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, json, sys\n"
            "from mesonbell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('scipy', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    if not loaded:
        # large curves run their threads without concurrent.futures, whose import
        # costs ~15 ms; fit gets it from scipy.optimize, which imports it itself
        assert modules == []
    # scipy.optimize brings its own dependencies, but not the quadrature
    assert all(name in modules for name in loaded)
    assert not any(m.startswith("scipy.integrate") for m in modules)


def test_csv_writer_matches_per_value_formatting(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5e-300, -2.5e300, 1 / 3])
    rng = np.random.default_rng(3)
    n = 24
    cols = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-30, 30, size=(n, 8))
    cols[:8, :] = special[:, None]
    cols[8, :] = special
    table = CurveTable(t_a=cols[:, 0], t_b=2 * cols[:, 0], qm=cols[:, 1], lrm=cols[:, 2],
                       p=cols[:, 3:7], gap=cols[:, 7])
    for unit in ("seconds", "gamma_s"):
        out = tmp_path / f"{unit}.csv"
        _write_csv(table, {"time_unit": unit, "params": KAON, "out": str(out)})
        lines = ["t_a,qm,lrm,p1,p2,p3,p4,gap"]
        scale = 1.0 if unit == "seconds" else KAON.gamma_s
        for k in range(n):
            row = (float(table.t_a[k]) * scale, table.qm[k], table.lrm[k], *table.p[k], table.gap[k])
            lines.append(",".join(f"{float(v):.11e}" for v in row))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_mc_deterministic_report(capsys):
    args = ("mc", "--preset", "fig3", "--grid", "1:1:1", "--n-events", "100000", "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    fields = dict(
        (k.strip(), v.strip()) for k, v, in
        (line.split("=", 1) for line in out1.splitlines() if "=" in line)
    )
    assert fields["n_events"] == "100000"
    estimate = float(fields["estimate"])
    stderr = float(fields["stderr"])
    analytic = float(fields["analytic_lrm"])
    assert abs(estimate - analytic) < 4.0 * stderr
    assert "acceptance[1]" in fields and "acceptance[4]" in fields


def test_mc_seed_changes_stream(capsys):
    base = ("mc", "--grid", "1:1:1", "--n-events", "20000")
    _, out1, _ = run(capsys, *base, "--seed", "1")
    _, out2, _ = run(capsys, *base, "--seed", "2")
    assert out1 != out2


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--n-events", "0"),
                                         ("--n-events", "100000000000000000000")])
def test_mc_bad_seed_or_event_count_is_one_error_line(capsys, flag, value):
    code, out, err = run(capsys, "mc", "--preset", "fig3", "--grid", "1:1:1", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "must be" in err and "expected non-negative integer" not in err


def test_mc_outside_validity_domain_fails_cleanly(capsys):
    code, _, err = run(capsys, "mc", "--grid", "5:5:1", "--n-events", "1000")
    assert code == 1 and err.startswith("error: ")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flags(command):
    return {opt for action in _subparser(command)._actions for opt in action.option_strings} - {"-h", "--help"}


def test_choices_are_the_library_declarations():
    choices = {opt: action.choices for action in _subparser("fit")._actions for opt in action.option_strings}
    assert choices["--species"] == tuple(SPECIES)
    assert choices["--objective"] is OBJECTIVES


@pytest.mark.parametrize("argv, config", [(["--rho", "flat"], None), ([], {"rho": {"kind": "flat"}}),
                                          (["--rho", "tabulated"], None)])
def test_unknown_rho_kind_is_one_line_naming_the_kinds(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)]
    code, out, err = run(capsys, "curve", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert all(kind in err for kind in RhoProfile._KINDS if kind != "tabulated"), err
    if "tabulated" in argv:
        # the knots come only from a config object, which the line and the help show
        shown = '{"rho": {"kind": "tabulated", "knots": [[t, rho], ...]}}'
        assert shown in err
        assert shown in " ".join(_subparser("curve").format_help().split())


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_rho_knot_value_is_one_line_naming_it(tmp_path, capsys, value):
    # Python's json reads these literals as floats
    path = tmp_path / "knots.json"
    path.write_text(f'{{"rho": {{"kind": "tabulated", "knots": [[0, 0], [1, {value}]]}}}}')
    code, out, err = run(capsys, "curve", "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error: ValueError: knot values must be finite\n"


def test_each_command_registers_only_the_flags_it_reads():
    common = {"--species", "--rho", "--preset", "--weights", "--grid", "--tb-rule", "--time-unit", "--config"}
    expected = {"curve": common | {"--out"}, "fit": common | {"--eta", "--out", "--objective"},
                "mc": common | {"--seed", "--n-events"}, "thresholds": set()}
    for command, flags in expected.items():
        declared = {"--" + name.replace("_", "-") for name, s in _SETTINGS.items() if command in s.commands}
        assert _flags(command) == flags == (declared | {"--config"} if declared else set())
    assert sum(len(_flags(command)) for command in ("curve", "fit", "mc")) == 30


def test_readme_lists_each_commands_flags_and_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = dict(re.findall(r"^- `(curve|fit|mc|thresholds)`: (.*)$", readme, re.M))
    assert sorted(listed) == ["curve", "fit", "mc", "thresholds"]
    for command, line in listed.items():
        shown = re.findall(r"`(--[a-z-]+)`(?: \(([^)]*)\))?", line)
        assert {flag for flag, _ in shown} == _flags(command), command
        defaults = {"--" + name.replace("_", "-"): str(s.default) for name, s in _SETTINGS.items()
                    if command in s.commands and s.default is not None}
        assert {flag: default for flag, default in shown if default} == defaults, command


@pytest.mark.parametrize("argv", [["curve", "--eta", "0.3"], ["mc", "--out", "x"],
                                  ["curve", "--species", "pion"], ["fit", "--seed", "1"], []])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_mc_builds_only_the_pair_it_simulates(capsys):
    argv = ["mc", "--preset", "fig3", "--n-events", "1000", "--grid"]
    code, expected, _ = run(capsys, *argv, "1:2:2")
    tracemalloc.start()
    try:
        assert main([*argv, "1:2:20000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == expected
    assert peak < 10 * 2**20  # the 2e7-point grid alone would take 160 MB


@pytest.mark.parametrize("command", ["curve", "fit", "mc"])
def test_settings_are_checked_before_any_work(tmp_path, monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before every setting was checked")

    for name in ("evaluate_gap", "fit_constant_weights", "simulate"):
        monkeypatch.setattr(cli, name, refuse)
    path = tmp_path / "days.json"
    path.write_text(json.dumps({"time_unit": "days", "grid": "0.2:5:2000000", "eta": 0.3}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error: config value 'time_unit' must be one of ('gamma_s', 'seconds'), got 'days'\n"


@pytest.mark.parametrize("argv, unbuffered", [
    (["mc", "--grid", "1:1:1", "--n-events", "1000"], "1"),   # fails in the print loop
    (["mc", "--grid", "1:1:1", "--n-events", "1000"], ""),    # fails in the final flush
    (["curve", "--preset", "fig3"], ""),                      # fails in the one CSV write
])
def test_closed_pipe_exits_quietly(argv, unbuffered):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        proc = subprocess.run([sys.executable, "-m", "mesonbell", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == ""
