"""The package as a user meets it: its exported names and its demos."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import mesonbell

# the submodules the package re-exports, in the order it imports them
REEXPORTED = ["constants", "quantum", "lrm", "fitting", "bell", "montecarlo"]
# the 56 names of the package's former hand-written __all__; none may be dropped
EXPORTED_BEFORE = """
    __version__ OscillationParams BranchingRecord KAON BMESON species_params branching_records
    semileptonic_total TimePair Flavor FlavorOutcome QuadratureError qm_like_joint qm_unlike_joint
    qm_flavor_table asymmetry integrated_ratio HiddenState HIDDEN_STATES INITIAL_PAIRS RhoProfile
    EfficiencyWeights InadmissibleRhoError TimeOrderingError WeightRangeError survival q_plus q_minus
    rho_bounds p21_conditional p43_conditional joint_probabilities lrm_like_joint FitProblem FitResult
    TrivialWeightsResult CurveTable default_grid trivial_weights fit_constant_weights evaluate_gap
    CorrelationSet LocalStrategy BruteForceReport ThresholdVerdict EFFICIENCY_THRESHOLD_MAXIMAL
    EFFICIENCY_THRESHOLD_NONMAXIMAL chs_sum lhv_bound_brute_force singlet_photon_correlations
    threshold_check SimConfig SimResult EventRecord simulate first_events
""".split()
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PUBLIC_MODULES = ["mesonbell"] + [f"mesonbell.{m.name}" for m in pkgutil.iter_modules(mesonbell.__path__)
                                   if not m.name.startswith("_")]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_the_package_exports_each_submodules_names_in_import_order():
    modules = [importlib.import_module(f"mesonbell.{name}") for name in REEXPORTED]
    assert mesonbell.__all__ == ["__version__"] + [name for mod in modules for name in mod.__all__]


def test_no_name_is_exported_by_two_submodules():
    # a star-import collision would silently hide one of the two objects
    names = [name for module in REEXPORTED for name in importlib.import_module(f"mesonbell.{module}").__all__]
    assert len(names) == len(set(names))


def test_every_name_exported_before_is_still_exported():
    assert len(EXPORTED_BEFORE) == 56
    assert set(EXPORTED_BEFORE) <= set(mesonbell.__all__)


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out, err = capsys.readouterr()
    assert out and err == ""
