"""mesonbell benchmark.

    python3 perfbench/run.py --workload {cli_figures,library_sweep,integrated} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
``src``.  Each run sets up (timed), then repeats whole rounds of its
workload until ``--seconds`` have passed.  A round runs the workload's
focus sections at full size and, spread between their operations, a few
small probe slices of every other section (CLI, array scan, weight fits,
Monte Carlo, integrated ratio), so every metric is defined on every
workload.  Outputs are checked against perfbench/checks.py.  The last line
of standard output is the JSON result; ``--trace 1`` runs one untraced and
one traced round and reports the per-layer metrics instead of the
end-to-end ones.  See perfbench/README.md.
"""

import time

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CLIRUN = Path(__file__).resolve().parent / "clirun.py"

# Fresh-process set-ups per run besides the in-process one; setup_s is the
# median of all of them.
SETUP_PROBES = 1

# Probe slices per round.  Each holds one small sample of every section the
# workload does not focus on, so a slow spell of the shared machine hits a
# minority of the samples a median is taken over.
PROBE_SLICES = 16

# Passes over the scan rays in a round that focuses on the scan.
SCAN_PASSES = 3

# Published figure scenarios: species, rho profile, weights a1..a4.
PRESETS = {
    "fig1": ("kaon", "saturate_upper_short", (1.0, 1.0, 1.0, 1.0)),
    "fig2-text": ("kaon", "saturate_upper_short", (1.0, 0.07, 0.03, 0.1)),
    "fig2-caption": ("kaon", "saturate_upper_short", (0.5, 0.13, 0.5, 0.07)),
    "fig3": ("kaon", "zero", (1.0, 0.13, 0.03, 0.04)),
    "fig4": ("bmeson", "zero", (0.52, 0.08, 0.52, 0.08)),
}
DEFAULT_GRID = (0.2, 5.0, 200)

# Scan rays (t_b = 2 t_a): species, rho, preset whose weights are applied.
SCAN_COMBOS = (("kaon", "zero", "fig3"),
               ("kaon", "saturate_upper_short", "fig2-text"),
               ("bmeson", "zero", "fig4"))

# The full fit sweep.  Kaon / rho = zero / match_qm at eta 0.5, 0.6 and 0.7
# is where the coordinate descent stops short of the optimum (fault c).
SWEEP_FITS = tuple((species, rho, objective, eta / 10)
                   for species, rho in (("kaon", "zero"), ("kaon", "saturate_upper_short"), ("bmeson", "zero"))
                   for objective in ("match_qm", "underbound_qm")
                   for eta in range(1, 10))

# A species whose integrated ratio converges in ~0.3 s (widths 30:1, in
# 1/s), so the ratio metrics are defined on workloads that do not focus on them.
PROBE_SPECIES = (30.0, 1.0, 10.0)

# Section sizes: FULL in a workload's focus, PROBE per probe slice elsewhere.
FULL = {"scan_points": 1_000_000, "fits": SWEEP_FITS, "mc_events": 10_000_000,
        "ratio_default": ("kaon", "bmeson"), "ratio_custom": ("bmeson",)}
PROBE = {"scan_points": 50_000, "fits": (("kaon", "zero", "underbound_qm", 0.1),),
         "mc_events": 1_000_000, "ratio_default": ("probe",), "ratio_custom": ("probe",)}

# The sections each workload runs at full size.
WORKLOADS = {
    "cli_figures": ("cli",),
    "library_sweep": ("scan", "fits", "mc"),
    "integrated": ("ratio",),
}

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "figures_wall_s": "s", "cli_cold_start_s": "s",
    "scan_points_per_s": "points/s", "fits_per_s": "fits/s", "mc_events_per_s": "events/s",
    "ratio_default_s": "s", "ratio_custom_s": "s",
}
LAYER_UNITS = {
    "import.mesonbell_s": "s", "import.quantum_s": "s",
    "quantum.qm_like_joint_s": "s", "quantum.integrated_ratio_default_s": "s",
    "quantum.integrated_ratio_custom_s": "s", "quantum.provider_calls": "count",
    "quantum.provider_points": "count", "quantum.points_per_call": "points/call",
    "lrm.joint_probabilities_s": "s", "lrm.lrm_like_joint_s": "s",
    "fitting.tables_s": "s", "fitting.fit_constant_weights_s": "s",
    "fitting.objective_evals": "count", "fitting.evaluate_gap_s": "s",
    "montecarlo.simulate_s": "s", "montecarlo.simulate_calls": "count",
    "montecarlo.events_simulated": "count",
    "cli.curve_s": "s", "cli.fit_s": "s", "cli.mc_s": "s", "cli.thresholds_s": "s",
    "cli.self_s": "s", "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Provider:
    """User-supplied joint provider: wraps a quantum joint and counts its calls and points."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, params, t_a, t_b):
        self.calls += 1
        self.points += getattr(t_a, "size", 1)
        return self.fn(params, t_a, t_b)


class Cmd:
    """One CLI invocation; ``fresh`` runs it in a new process, else main(argv) in-process."""

    def __init__(self, kind, *, fresh, preset=None, grid=None, tb=2.0, out=None,
                 eta=None, objective=None, n_events=None, seed=None, module_entry=False):
        self.kind, self.fresh, self.preset, self.tb = kind, fresh, preset, tb
        self.grid, self.out, self.eta, self.objective = grid, out, eta, objective
        self.n_events, self.seed, self.module_entry = n_events, seed, module_entry

    def argv(self):
        argv = [self.kind]
        if self.preset:
            argv += ["--preset", self.preset]
        if self.grid:
            argv += ["--grid", "{}:{}:{}".format(*self.grid)]
        if self.tb != 2.0:
            argv += ["--tb-rule", f"{self.tb}*t_a"]
        for flag, value in (("--eta", self.eta), ("--objective", self.objective),
                            ("--n-events", self.n_events), ("--seed", self.seed), ("--out", self.out)):
            if value is not None:
                argv += [flag, str(value)]
        return argv

    def label(self):
        words = " ".join(str(a) for a in self.argv())
        return ("python -m mesonbell.cli " if self.module_entry else "cli ") + words


class Bench:
    def __init__(self, workload, seed, tmp):
        """The timed set-up: import, input generation and one warm-up call per timed function."""
        start = time.perf_counter()
        import numpy as np

        import mesonbell
        import mesonbell.cli

        self.np, self.mb = np, mesonbell
        self.q, self.lrm, self.fitting = mesonbell.quantum, mesonbell.lrm, mesonbell.fitting
        self.montecarlo, self.cli = mesonbell.montecarlo, mesonbell.cli
        self.focus = WORKLOADS[workload]
        self.tmp = tmp
        self.tracer = None
        self.spans = None
        # the user-supplied providers call these, never the traced wrappers,
        # so tracing adds no span per integrand evaluation
        self.joints = (mesonbell.quantum.qm_like_joint, mesonbell.quantum.qm_unlike_joint)
        self.species = {"kaon": mesonbell.KAON, "bmeson": mesonbell.BMESON,
                        "probe": mesonbell.OscillationParams("probe", *PROBE_SPECIES)}

        rng = np.random.default_rng(seed)
        self.rays = {}
        for size in ("full", "probe"):
            n = (FULL if size == "full" else PROBE)["scan_points"]
            for species, rho, preset in SCAN_COMBOS:
                params = self.species[species]
                t_a = rng.uniform(0.2, 5.0, n) / params.gamma_s
                self.rays[size, species, rho] = (params, rho, PRESETS[preset][2], t_a, 2.0 * t_a)
        self.problems_by_fit = {
            fit: self.fitting.FitProblem.on_default_grid(self.species[fit[0]], self.lrm.RhoProfile(fit[1]), fit[3], fit[2])
            for fit in FULL["fits"] + PROBE["fits"]}
        # each seed is simulated twice, to check reproducibility
        self.mc_seeds = [int(x) for x in rng.integers(0, 2**31, 3)] * 2
        self.cli_seed = int(rng.integers(0, 2**31))
        self.tasks = self._tasks()
        self._warm_up()
        self.setup_s = time.perf_counter() - start

        self.ops = 0
        self.failed: list[str] = []
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {k: [] for k in (
            "figures_wall_s", "cli_cold_start_s", "scan_points_per_s", "fit_s", "mc_events_per_s",
            "ratio_default_s", "ratio_custom_s")}
        self.csv_bytes = 0
        self.providers: list[Provider] = []

    # -- set-up -------------------------------------------------------------

    def _tasks(self):
        """The operations of one round, in order: focus operations with the probe slices spread between them."""
        tmp = self.tmp
        big = []
        if "cli" in self.focus:
            seed = self.cli_seed
            thresholds = Cmd("thresholds", fresh=True)
            cmds = [thresholds]
            cmds += [Cmd("curve", fresh=True, preset=p, out=tmp / f"{p}.csv") for p in PRESETS]
            cmds += [thresholds,
                     Cmd("curve", fresh=True, preset="fig3", grid=(0.2, 5.0, 100_000), out=tmp / "fig3_dense.csv")]
            cmds += [Cmd("fit", fresh=True, preset=p, eta=0.3, objective=o)
                     for p in ("fig3", "fig4") for o in ("match_qm", "underbound_qm")]
            cmds += [thresholds,
                     Cmd("mc", fresh=True, preset="fig3", grid=(1, 1, 1), n_events=10_000_000, seed=seed),
                     # fault (a): the backward twin of the fig3 curve
                     Cmd("curve", fresh=True, preset="fig3", tb=0.5, out=tmp / "fig3_backward.csv"),
                     # fault (b): the documented module entry point
                     Cmd("thresholds", fresh=True, module_entry=True),
                     thresholds,
                     # identical re-run of the fig3 curve, compared byte for byte
                     Cmd("curve", fresh=True, preset="fig3", out=tmp / "fig3_again.csv")]
        else:
            # every subcommand in-process, so the cli layer is traced on every workload
            cmds = [Cmd("thresholds", fresh=False),
                    Cmd("curve", fresh=False, preset="fig3", out=tmp / "probe_fig3.csv"),
                    Cmd("fit", fresh=False, preset="fig3", eta=0.3),
                    Cmd("mc", fresh=False, preset="fig3", grid=(1, 1, 1), n_events=1_000_000, seed=self.cli_seed)]
        sections = [[(self._cli_task, cmd) for cmd in cmds]]
        if "scan" in self.focus:
            sections.append([(self._scan_task, "full")] * SCAN_PASSES)
        if "fits" in self.focus:
            sections.append([(self._fit_task, fit) for fit in FULL["fits"]])
        if "mc" in self.focus:
            sections.append([(self._mc_task, (FULL["mc_events"], seed)) for seed in self.mc_seeds])
        if "ratio" in self.focus:
            sections.append([(self._ratio_task, (s, False)) for s in FULL["ratio_default"]]
                            + [(self._ratio_task, (s, True)) for s in FULL["ratio_custom"]])
        # each section's operations spread evenly over the round, so that a
        # slow spell does not take all samples of one metric
        keyed = [((i + 0.5) / len(tasks), j, task) for j, tasks in enumerate(sections) for i, task in enumerate(tasks)]
        big = [task for _, _, task in sorted(keyed, key=lambda x: x[:2])]

        order = []
        for k in range(PROBE_SLICES):
            if "cli" not in self.focus and k % 4 == 0:
                order.append((self._cli_task, Cmd("thresholds", fresh=True)))
            if "scan" not in self.focus:
                order.append((self._scan_task, "probe"))
            if "fits" not in self.focus:
                order += [(self._fit_task, fit) for fit in PROBE["fits"]]
            if "mc" not in self.focus:
                order.append((self._mc_task, (PROBE["mc_events"], self.mc_seeds[k % len(self.mc_seeds)])))
            if "ratio" not in self.focus:
                # default and user-supplied providers in turn
                custom = k % 2 == 1
                order += [(self._ratio_task, (s, custom)) for s in PROBE["ratio_custom" if custom else "ratio_default"]]
            order += big[k * len(big) // PROBE_SLICES:(k + 1) * len(big) // PROBE_SLICES]
        return order

    def _warm_up(self):
        np, kaon = self.np, self.species["kaon"]
        t_a = np.linspace(0.2, 5.0, 3) / kaon.gamma_s
        rho = self.lrm.RhoProfile.zero()
        weights = self.mb.EfficiencyWeights.constant(*PRESETS["fig3"][2])
        self.q.qm_like_joint(kaon, t_a, 2 * t_a)
        self.q.qm_flavor_table(kaon, float(t_a[0]), float(t_a[1]))
        self.lrm.joint_probabilities(kaon, rho, t_a, 2 * t_a)
        self.lrm.lrm_like_joint(kaon, rho, weights, t_a, 2 * t_a)
        self.fitting.evaluate_gap(kaon, rho, weights, t_a, 2 * t_a)
        problem = self.fitting.FitProblem(kaon, rho, 0.3, t_a, 2 * t_a)
        problem.tables()
        self.fitting.fit_constant_weights(problem)
        self.montecarlo.simulate(self._mc_config(1000, 0))
        probe = self.species["probe"]
        self.q.integrated_ratio(probe, rel_tol=1e-3)
        self.q.integrated_ratio(probe, Provider(self.joints[0]), Provider(self.joints[1]), rel_tol=1e-3)
        for cmd in (Cmd("thresholds", fresh=False),
                    Cmd("curve", fresh=False, preset="fig3", grid=(0.2, 5.0, 3), out=self.tmp / "warm.csv"),
                    Cmd("fit", fresh=False, preset="fig3", grid=(0.2, 5.0, 3), eta=0.3),
                    Cmd("mc", fresh=False, preset="fig3", grid=(1, 1, 1), n_events=1000)):
            self._run_cmd(cmd)

    def _mc_config(self, n_events, seed):
        kaon = self.species["kaon"]
        return self.montecarlo.SimConfig(
            kaon, self.lrm.RhoProfile.zero(), self.mb.EfficiencyWeights.constant(*PRESETS["fig3"][2]),
            self.q.TimePair(1.0 / kaon.gamma_s, 2.0 / kaon.gamma_s), n_events=n_events, seed=seed)

    # -- rounds -------------------------------------------------------------

    def round(self, spans=None):
        """One round; with ``spans`` (a list) it is traced and fresh processes add their spans to it."""
        self.spans = spans
        self._cli_s = 0.0
        self._first_output = {}
        self._mc_counts = {}
        for task, arg in self.tasks:
            task(arg)
        self.samples["figures_wall_s"].append(self._cli_s)

    def _op(self, label, fn, *args, **kwargs):
        """Time one operation; returns (result or None, seconds, failure reason or None)."""
        self.ops += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run must go on; the failure is counted
            seconds = time.perf_counter() - start
            self.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, seconds, str(exc)
        return result, time.perf_counter() - start, None

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    @contextlib.contextmanager
    def checking(self):
        """Checks may call the program; their calls are left out of the trace."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def _run_cmd(self, cmd):
        """Run one CLI command; returns (exit code, stdout, stderr, seconds)."""
        argv = [str(a) for a in cmd.argv()]
        if cmd.fresh:
            env = dict(os.environ)
            if cmd.module_entry:
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
                line = [sys.executable, "-m", "mesonbell.cli", *argv]
            else:
                line = [sys.executable, str(CLIRUN), *argv]
            trace_file = self.tmp / "trace-child.json" if self.spans is not None else None
            if trace_file is not None:
                env["PERFBENCH_TRACE"] = str(trace_file)
            start = time.perf_counter()
            proc = subprocess.run(line, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
            seconds = time.perf_counter() - start
            if trace_file is not None and trace_file.exists():
                self.spans.extend(json.loads(trace_file.read_text(encoding="utf-8")))
                trace_file.unlink()
            return proc.returncode, proc.stdout, proc.stderr, seconds
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if self.tracer is not None:
                    code = self.tracer.call("cli." + cmd.kind, self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
            except Exception as exc:  # a traceback a user would see; counted as a failure
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start

    def _cli_task(self, cmd):
        self.ops += 1
        code, stdout, stderr, seconds = self._run_cmd(cmd)
        self._cli_s += seconds
        label = cmd.label()
        if cmd.kind == "thresholds" and cmd.fresh and not cmd.module_entry:
            self.samples["cli_cold_start_s"].append(seconds)
        if code != 0:
            self.failed.append(f"{label}: exit {code}: {stderr.strip().splitlines()[-1:]}")
            return
        if cmd.kind == "thresholds" and not stdout:
            self.failed.append(f"{label}: exit 0 without the threshold table")
            return
        output = stdout
        if cmd.out is not None:
            if not Path(cmd.out).is_file():
                self.failed.append(f"{label}: exit 0 without writing {cmd.out}")
                return
            output = Path(cmd.out).read_text(encoding="utf-8")
            self.csv_bytes += len(output.encode())
            Path(cmd.out).unlink()
        if cmd.kind in ("thresholds", "curve"):
            key = (cmd.kind, cmd.preset, cmd.grid, cmd.tb)
            if key in self._first_output:
                self.check(output == self._first_output[key], f"{label}: output differs from an identical run")
            self._first_output.setdefault(key, output)
        try:
            getattr(self, "_check_" + cmd.kind)(cmd, output, label)
        except (ValueError, KeyError, IndexError) as exc:
            self.check(False, f"{label}: unreadable output ({type(exc).__name__}: {exc})")

    def _scan_task(self, size):
        """One pass over the scan rays; its points per second are one sample."""
        points, seconds, ok = 0, 0.0, True
        for species, rho_kind, _ in SCAN_COMBOS:
            n, s, err = self._scan_ray(self.rays[size, species, rho_kind])
            points, seconds, ok = points + n, seconds + s, ok and not err
        if ok:
            self.samples["scan_points_per_s"].append(points / seconds)

    def _scan_ray(self, ray):
        """evaluate_gap and lrm_like_joint on one ray, checked; returns (points, seconds, failed)."""
        import checks
        np = self.np
        params, rho_kind, w, t_a, t_b = ray
        rho = self.lrm.RhoProfile(rho_kind)
        weights = self.mb.EfficiencyWeights.constant(*w)
        label = f"scan {params.species} {rho_kind} n={t_a.size}"
        table, seconds, err = self._op(label + " evaluate_gap", self.fitting.evaluate_gap,
                                       params, rho, weights, t_a, t_b)
        lrm, seconds2, err2 = self._op(label + " lrm_like_joint", self.lrm.lrm_like_joint,
                                       params, rho, weights, t_a, t_b)
        with self.checking():
            # every 7th point is checked against the reference, so checking costs less than timing
            c = slice(None, None, 7)
            p_ref = checks.lrm_p(params, rho_kind, t_a[c], t_b[c])
            lrm_ref = 0.25 * p_ref @ np.asarray(w)
            if err is None:
                self.check(table.p.shape == t_a.shape + (4,), f"{label}: table shape {table.p.shape}")
                self.check(checks.close(table.qm[c], checks.qm_like(params, t_a[c], t_b[c]), 1e-12,
                                        1e-12 * checks.qm_scale(params, t_a[c], t_b[c])),
                           f"{label}: qm differs from the closed form")
                self.check(checks.close(table.p[c], p_ref, 1e-9, checks.ZERO_FLOOR),
                           f"{label}: P1..P4 differ from the docstring formulas")
                self.check(checks.close(table.lrm[c], lrm_ref, 1e-9, checks.ZERO_FLOOR), f"{label}: weighted LRM differs")
                self.check(np.array_equal(table.gap, table.lrm - table.qm), f"{label}: gap is not lrm - qm")
            if err2 is None:
                self.check(lrm.shape == t_a.shape and checks.close(lrm[c], lrm_ref, 1e-9, checks.ZERO_FLOOR),
                           f"{label}: lrm_like_joint differs")
            del table, lrm
            # swapped sides with reversed weights give the same observable
            k = slice(0, 2000)
            swapped = self.lrm.lrm_like_joint(params, rho, self.mb.EfficiencyWeights.constant(*w[::-1]), t_b[k], t_a[k])
            direct = self.lrm.lrm_like_joint(params, rho, weights, t_a[k], t_b[k])
            self.check(checks.close(swapped, direct, 1e-14, 0.0), f"{label}: lrm_like_joint not swap-symmetric")
            # QM properties on a few points of the ray
            equal = self.q.qm_like_joint(params, t_a[k], t_a[k])
            self.check(bool(np.all(np.abs(equal) <= checks.ZERO_FLOOR)), f"{label}: like joint not 0 at t_a = t_b")
            for i in range(0, 2000, 400):
                ta, tb = float(t_a[i]), float(t_b[i])
                table4 = self.q.qm_flavor_table(params, ta, tb)
                # the four outcomes sum to (1/2)[E_S(ta)E_L(tb) + E_L(ta)E_S(tb)]
                self.check(checks.close(sum(table4.values()), 4.0 * checks.qm_scale(params, ta, tb), 1e-12),
                           f"{label}: flavor table does not sum to the undecayed fraction")
                self.check(checks.close(self.q.qm_unlike_joint(params, ta, tb), checks.qm_unlike(params, ta, tb), 1e-12,
                                        1e-12 * checks.qm_scale(params, ta, tb)),
                           f"{label}: unlike joint differs from the closed form")
            if params.gamma_s == params.gamma_l:
                g = params.gamma_s
                equal_width = 0.25 * np.exp(-g * (t_a[k] + t_b[k])) * (1.0 - np.cos(params.delta_m * (t_a[k] - t_b[k])))
                self.check(checks.close(self.q.qm_like_joint(params, t_a[k], t_b[k]), equal_width, 1e-12,
                                        1e-12 * checks.qm_scale(params, t_a[k], t_b[k])),
                           f"{label}: equal-width form does not hold")
        return 2 * t_a.size, seconds + seconds2, err is not None or err2 is not None

    def _fit_task(self, fit):
        import checks
        np = self.np
        species, rho_kind, objective, eta = fit
        problem = self.problems_by_fit[fit]
        label = f"fit {species} {rho_kind} {objective} eta={eta}"
        result, seconds, err = self._op(label, self.fitting.fit_constant_weights, problem)
        if err is not None:
            return
        self.samples["fit_s"].append(seconds)
        with self.checking():
            a = np.array(result.weights.as_tuple(), dtype=float)
            self.check(abs(a.mean() - eta) <= 1e-12 and abs(result.achieved_eta - eta) <= 1e-12,
                       f"{label}: mean(a) = {a.mean()!r} is not eta")
            self.check(bool(np.all((a >= 0.0) & (a <= 1.0))), f"{label}: weights outside [0, 1]")
            p, qm = problem.tables()
            self.check(checks.close(qm, checks.qm_like(problem.params, problem.grid_t_a, problem.grid_t_b), 1e-12,
                                    1e-12 * checks.qm_scale(problem.params, problem.grid_t_a, problem.grid_t_b))
                       and checks.close(p, checks.lrm_p(problem.params, rho_kind, problem.grid_t_a, problem.grid_t_b),
                                        1e-9, checks.ZERO_FLOOR),
                       f"{label}: tables differ from the closed forms")
            value = checks.fit_objective(p, qm, a, objective)
            self.check(checks.close(result.max_abs_gap, value, 1e-12, checks.ZERO_FLOOR),
                       f"{label}: reported objective {result.max_abs_gap!r} is not that of its weights ({value!r})")
            optimum = checks.lp_optimum(p, qm, eta, objective)
            if not checks.fit_is_optimal(value, optimum):
                self.failed.append(f"{label}: objective {value:.6e} is {value / optimum - 1:.2e} above the LP optimum")

    def _mc_task(self, arg):
        n, seed = arg
        config = self._mc_config(n, seed)
        label = f"simulate n={n} seed={seed}"
        result, seconds, err = self._op(label, self.montecarlo.simulate, config)
        if err is not None:
            return
        self.samples["mc_events_per_s"].append(n / seconds)
        with self.checking():
            self._check_simulation(config, result, label)
        counts = tuple(tuple(int(c) for c in getattr(result, f))
                       for f in ("pair_counts", "like_counts", "accepted_counts", "accepted_like_counts"))
        if (n, seed) in self._mc_counts:
            self.check(counts == self._mc_counts[n, seed], f"{label}: the same seed gave different counts")
        self._mc_counts.setdefault((n, seed), counts)

    def _check_simulation(self, config, result, label):
        import checks
        np = self.np
        t_a, t_b = config.t.t_a, config.t.t_b
        w = np.array(PRESETS["fig3"][2])
        expected = float(checks.lrm_like(config.params, "zero", w, t_a, t_b))
        program = self.lrm.lrm_like_joint(config.params, config.rho, config.weights, t_a, t_b)
        self.check(checks.close(program, expected, 1e-12), f"{label}: lrm_like_joint differs from the docstring formulas")
        self.check(int(result.pair_counts.sum()) == config.n_events, f"{label}: counts do not sum to n_events")
        self.check(abs(result.estimate - program) <= checks.MC_SIGMAS * result.stderr,
                   f"{label}: pull {(result.estimate - program) / result.stderr:+.2f} sigma")
        p = checks.lrm_p(config.params, "zero", t_a, t_b)
        for i in range(4):
            pairs = int(result.pair_counts[i])
            self.check(checks.binomial_ok(int(result.accepted_counts[i]), pairs, w[i]),
                       f"{label}: acceptance of configuration {i + 1} disagrees with a{i + 1}")
            self.check(checks.binomial_ok(int(result.like_counts[i]), pairs, float(p[i])),
                       f"{label}: like rate of configuration {i + 1} disagrees with P{i + 1}")

    def _ratio_task(self, arg):
        import checks
        species, custom = arg
        params = self.species[species]
        rel_tol = inspect.signature(self.q.integrated_ratio).parameters["rel_tol"].default
        if custom:
            label = f"integrated_ratio {species} (user providers)"
            like, unlike = Provider(self.joints[0]), Provider(self.joints[1])
            self.providers += [like, unlike]
            value, seconds, err = self._op(label, self.q.integrated_ratio, params, like, unlike)
        else:
            label = f"integrated_ratio {species}"
            value, seconds, err = self._op(label, self.q.integrated_ratio, params)
        if err is None:
            self.samples["ratio_custom_s" if custom else "ratio_default_s"].append(seconds)
            self.check(checks.close(value, checks.laplace_ratio(params), rel_tol),
                       f"{label}: {value!r} differs from the Laplace closed form")

    # -- CLI output checks ----------------------------------------------------

    def _check_thresholds(self, cmd, output, label):
        import checks
        rows, has_note = checks.parse_thresholds(output)
        self.check(len(rows) == 4 and has_note, f"{label}: threshold table incomplete")
        for name, value, v_max, v_non in rows:
            self.check(v_max == checks.verdict(value, "maximal") and v_non == checks.verdict(value, "nonmaximal"),
                       f"{label}: verdicts for {name} do not follow from {value}")

    def _scenario(self, cmd):
        species, rho_kind, w = PRESETS[cmd.preset]
        params = self.species[species]
        lo, hi, n = cmd.grid or DEFAULT_GRID
        t_a = self.np.linspace(lo, hi, int(n)) / params.gamma_s
        return params, rho_kind, w, t_a, cmd.tb * t_a

    def _check_curve(self, cmd, output, label):
        import checks
        header, rows = checks.parse_csv(output)
        params, rho_kind, w, t_a, t_b = self._scenario(cmd)
        self.check(header == checks.CSV_HEADER, f"{label}: header {header!r}")
        if rows.shape[0] != t_a.size:
            self.check(False, f"{label}: {rows.shape[0]} rows for a {t_a.size}-point grid")
            return
        rtol, floor = checks.CSV_RTOL, checks.ZERO_FLOOR
        self.check(checks.close(rows[:, 0], t_a * params.gamma_s, rtol), f"{label}: t_a column is not the grid")
        self.check(checks.close(rows[:, 1], checks.qm_like(params, t_a, t_b), rtol,
                                1e-12 * checks.qm_scale(params, t_a, t_b)),
                   f"{label}: qm column differs from the closed form")
        self.check(checks.close(rows[:, 2], checks.lrm_like(params, rho_kind, w, t_a, t_b), rtol, floor),
                   f"{label}: lrm column differs from the docstring formulas")
        scale = self.np.maximum(abs(rows[:, 1]), abs(rows[:, 2]))
        self.check(bool(self.np.all(abs(rows[:, 7] - (rows[:, 2] - rows[:, 1])) <= rtol * scale + floor)),
                   f"{label}: gap is not lrm - qm")
        if cmd.tb >= 1.0:
            self.check(checks.close(rows[:, 3:7], checks.lrm_p(params, rho_kind, t_a, t_b), rtol, floor),
                       f"{label}: P1..P4 columns differ from the docstring formulas")

    def _check_fit(self, cmd, output, label):
        import checks
        np = self.np
        report = checks.parse_report(output)
        params, rho_kind, _, t_a, t_b = self._scenario(cmd)
        objective = cmd.objective or "match_qm"
        a = np.array([float(v) for v in report["fitted_weights"].split(",")])
        self.check(report["objective"] == objective, f"{label}: objective {report['objective']!r}")
        self.check(abs(a.mean() - cmd.eta) <= 1e-11 and abs(float(report["achieved_eta"]) - cmd.eta) <= 1e-11,
                   f"{label}: mean(a) is not eta")
        self.check(bool(np.all((a >= 0.0) & (a <= 1.0))), f"{label}: weights outside [0, 1]")
        p, qm = checks.lrm_p(params, rho_kind, t_a, t_b), checks.qm_like(params, t_a, t_b)
        value = float(report["max_gap"])
        self.check(checks.close(value, checks.fit_objective(p, qm, a, objective), 1e-9, checks.ZERO_FLOOR),
                   f"{label}: max_gap is not the objective of the printed weights")
        optimum = checks.lp_optimum(p, qm, cmd.eta, objective)
        if not checks.fit_is_optimal(value, optimum):
            self.failed.append(f"{label}: objective {value:.6e} is {value / optimum - 1:.2e} above the LP optimum")

    def _check_mc(self, cmd, output, label):
        import checks
        report = checks.parse_report(output)
        params, rho_kind, w, t_a, t_b = self._scenario(cmd)
        n = int(report["n_events"])
        estimate, stderr = float(report["estimate"]), float(report["stderr"])
        analytic = float(report["analytic_lrm"])
        expected = float(checks.lrm_like(params, rho_kind, w, t_a[0], t_b[0]))
        self.check(n == cmd.n_events and int(report["seed"]) == cmd.seed, f"{label}: n_events or seed not echoed")
        self.check(checks.close(analytic, expected, checks.CSV_RTOL), f"{label}: analytic_lrm differs")
        self.check(abs(estimate - expected) <= checks.MC_SIGMAS * stderr, f"{label}: pull beyond 5 sigma")
        pairs_total = 0
        for i in range(4):
            counts = report[f"acceptance[{i + 1}]"].split("(")[1].rstrip(")")
            accepted, pairs = (int(x) for x in counts.split("/"))
            pairs_total += pairs
            self.check(checks.binomial_ok(accepted, pairs, w[i]), f"{label}: acceptance[{i + 1}] disagrees with a{i + 1}")
        self.check(pairs_total == n, f"{label}: configuration counts do not sum to n_events")

    def bell_and_constants(self):
        """The layers with no metric of their own, checked once per run."""
        import checks
        mb = self.mb
        for parent in ("K_L", "K_S", "B0"):
            tagged = sum(r.ratio for r in mb.branching_records(parent) if r.tagging)
            self.check(abs(mb.semileptonic_total(parent) - tagged) <= 1e-15, f"constants: {parent} tagging total")
        self.check(mb.species_params("kaon") == mb.KAON and mb.species_params("bmeson") == mb.BMESON,
                   "constants: species registry")
        for value in (0.3298, 0.67, 0.7, 0.81, 0.9):
            for state in ("maximal", "nonmaximal"):
                self.check(mb.threshold_check(value, state).verdict == checks.verdict(value, state),
                           f"bell: threshold verdict at {value} ({state})")
        report = mb.lhv_bound_brute_force(n_mixtures=2000, seed=7)
        self.check(report.overall_max <= 1e-12, "bell: local bound exceeded")
        chs = mb.chs_sum(mb.singlet_photon_correlations(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8))
        self.check(abs(chs - (math.sqrt(2) - 1) / 2) <= 1e-12, "bell: singlet CHS value")

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, setup_s):
        med = statistics.median
        return {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "figures_wall_s": med(self.samples["figures_wall_s"]),
            "cli_cold_start_s": med(self.samples["cli_cold_start_s"]),
            "scan_points_per_s": med(self.samples["scan_points_per_s"]),
            "fits_per_s": 1.0 / med(self.samples["fit_s"]),
            "mc_events_per_s": med(self.samples["mc_events_per_s"]),
            "ratio_default_s": med(self.samples["ratio_default_s"]),
            "ratio_custom_s": med(self.samples["ratio_custom_s"]),
        }


def peak_rss_mb():
    """Peak resident memory of the harness or of any process it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def import_times():
    """Cumulative `python -X importtime` seconds of mesonbell and mesonbell.quantum, median of 3."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = {"mesonbell": [], "mesonbell.quantum": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mesonbell"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def per_layer(bench, spans, overhead_s):
    import tracer
    summary = tracer.summarize(spans)
    self_s, total = summary["self_s"], summary["total_s"]
    calls = sum(p.calls for p in bench.providers)
    points = sum(p.points for p in bench.providers)
    mc_commands = max(summary["mc_commands"], 1)
    imports = import_times()
    return {
        "import.mesonbell_s": imports["mesonbell"],
        "import.quantum_s": imports["mesonbell.quantum"],
        "quantum.qm_like_joint_s": self_s.get("quantum.qm_like_joint", 0.0),
        "quantum.integrated_ratio_default_s": self_s.get("quantum.integrated_ratio_default", 0.0),
        "quantum.integrated_ratio_custom_s": self_s.get("quantum.integrated_ratio_custom", 0.0),
        "quantum.provider_calls": calls,
        "quantum.provider_points": points,
        "quantum.points_per_call": points / calls if calls else 0.0,
        "lrm.joint_probabilities_s": self_s.get("lrm.joint_probabilities", 0.0),
        "lrm.lrm_like_joint_s": self_s.get("lrm.lrm_like_joint", 0.0),
        "fitting.tables_s": self_s.get("fitting.tables", 0.0),
        "fitting.fit_constant_weights_s": self_s.get("fitting.fit_constant_weights", 0.0),
        "fitting.objective_evals": summary["objective_evals"],
        "fitting.evaluate_gap_s": self_s.get("fitting.evaluate_gap", 0.0),
        "montecarlo.simulate_s": self_s.get("montecarlo.simulate", 0.0),
        "montecarlo.simulate_calls": summary["mc_simulate_calls"] / mc_commands,
        "montecarlo.events_simulated": summary["mc_events"] / mc_commands,
        "cli.curve_s": total.get("cli.curve", 0.0),
        "cli.fit_s": total.get("cli.fit", 0.0),
        "cli.mc_s": total.get("cli.mc", 0.0),
        "cli.thresholds_s": total.get("cli.thresholds", 0.0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.csv_bytes": bench.csv_bytes,
        "trace.overhead_s": overhead_s,
    }


def host_record(np):
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "system": platform.system()}


def setup_probe(workload, seed):
    """setup_s of a fresh harness process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mesonbell" / "__init__.py").is_file():
        print(f"error: no mesonbell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": Bench(args.workload, args.seed, tmp).setup_s}))
            return 0
        setup_samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        bench = Bench(args.workload, args.seed, tmp)
        setup_samples.append(bench.setup_s)

        spans = []
        if args.trace:
            import tracer
            start = time.perf_counter()
            bench.round()
            untraced = time.perf_counter() - start
            bench.providers.clear()
            bench.csv_bytes = 0
            bench.tracer = tracer.Tracer(tag="h.")
            bench.tracer.install()
            start = time.perf_counter()
            try:
                bench.round(spans)
            finally:
                bench.tracer.uninstall()
            traced = time.perf_counter() - start
            spans = bench.tracer.spans + spans
            metrics = per_layer(bench, spans, traced - untraced)
            units = LAYER_UNITS
        else:
            start = time.perf_counter()
            rounds = 0
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                bench.round()
                rounds += 1
            metrics = bench.end_to_end(statistics.median(setup_samples))
            units = E2E_UNITS
        bench.bell_and_constants()

        host = host_record(bench.np)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
                  "setup_samples_s": setup_samples, "failed_operations": bench.failed,
                  "check_failures": bench.problems, "samples": bench.samples, "metrics": metrics}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if args.trace:
            (OUT / f"spans-{name}.json").write_text(json.dumps(spans), encoding="utf-8")
        print(f"host: {json.dumps(host)}")
        for key, value in metrics.items():
            print(f"{key:36} {value:.6g} {units[key]}")
        for line in bench.failed:
            print(f"failed: {line}")
        for line in bench.problems:
            print(f"CHECK FAILED: {line}")
        print(json.dumps({
            "correct": not bench.problems,
            "attempted": bench.ops,
            "failed": len(bench.failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
