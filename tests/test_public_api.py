"""The package's public names: every name in ``__all__`` resolves, and the set
is frozen, so a change that drops or adds one must edit this list (and record
a dropped name as deprecated in CHANGES.md).  The policy interface is frozen
the same way: a policy answers ``batch_weights`` and nothing else, and the
built-in policies' fields, their stop among them, keep their names."""

import ast
import dataclasses
from pathlib import Path

import pytest

import active_ht
from active_ht import FixedRulePolicy, Policy, TwoPhasePolicy

from conftest import run_python

PUBLIC_NAMES = frozenset({
    "ActiveHTError", "AlphaOptimum", "AssumptionError", "BinaryReport", "BoundsReport",
    "BudgetError", "BudgetPoint", "DiscriminationOptimum", "DomainError",
    "ErrorExponents", "ExactEvaluation", "ExponentEstimate", "FiniteKernel",
    "FixedRulePolicy", "Gains", "Gaussian", "GaussianKernel", "HorizonError",
    "LeadingOrderBounds", "ModelValidationError",
    "ObservationModel", "OracleBudget", "PairSandwich", "PairwiseExact", "Policy",
    "RandomizedRule", "SimulationSummary", "SweepPoint", "TrialRecord", "TwoPhasePolicy",
    "UsageError", "ValidationReport",
    "alpha_max", "backward_eval", "binary_specialize", "build_policy",
    "compute_bounds", "d_hat", "dominance_check", "estimate_error_exponent", "exact_eval",
    "exact_pairwise", "fixed_lambda_policy", "gains_from_values", "harmonic_reliability",
    "kl", "kl_matrix", "likelihood_ratio_bound", "load_model",
    "max_harmonic_reliability", "max_reliability", "maxmin_reliability",
    "minmax_reliability", "nn_policy", "pairwise_error_rates", "reliability", "renyi",
    "report_at_penalty", "run_trials", "sa_policy", "save_model", "simplex_grid",
    "sn_policy", "stratified_hypotheses", "sweep_L", "tilted_exponent", "validate",
})


POLICY_METHODS = frozenset({"batch_weights"})

# simulator._share_a_pass tells a stop field from an action-rule field by
# name, so renaming either is a deliberate edit here
POLICY_FIELDS = {
    FixedRulePolicy: ("weights", "threshold", "horizon"),
    TwoPhasePolicy: ("explore_weights", "exploit_weights", "phase_threshold", "threshold", "horizon"),
}


def test_every_public_name_resolves():
    missing = [name for name in active_ht.__all__ if not hasattr(active_ht, name)]
    assert missing == []


def test_public_names_are_frozen():
    assert len(active_ht.__all__) == len(set(active_ht.__all__))
    assert set(active_ht.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("cls", [Policy, FixedRulePolicy, TwoPhasePolicy])
def test_policy_methods_are_frozen(cls):
    public = {name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}
    assert public == POLICY_METHODS


@pytest.mark.parametrize("cls", list(POLICY_FIELDS), ids=lambda cls: cls.__name__)
def test_policy_fields_are_frozen(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == POLICY_FIELDS[cls]


def test_import_loads_no_scipy_solvers():
    # The package uses scipy only for ndtri, on the first Gaussian draw;
    # scipy.optimize and scipy.linalg, which load scipy.special too, would add
    # ~0.45 s and ~45 MB to every process that imports the package.
    proc = run_python(
        "-c",
        "import sys, active_ht; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_SCIPY_ON_THE_FIRST_GAUSSIAN_DRAW = """
import sys
from active_ht import build_policy, compute_bounds, run_trials
from conftest import make_gaussian_binary_model, make_two_probe_model

two_probe, gaussian = make_two_probe_model(), make_gaussian_binary_model()
report = compute_bounds(two_probe)
gaussian_report = compute_bounds(gaussian)
run_trials(two_probe, build_policy("sa", two_probe, report), 2048, 7)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
policy = build_policy("sa", gaussian, gaussian_report)
pooled, _ = run_trials(gaussian, policy, 2048, 7, workers=2)
print("scipy.special" in sys.modules)
print(pooled == run_trials(gaussian, policy, 2048, 7, workers=1)[0])
"""


def test_scipy_is_imported_on_the_first_gaussian_draw():
    # Bounds of either kernel type and finite simulation load numpy alone.
    # Two blocks at 2 workers draw every Gaussian symbol in the forked
    # workers, which import ndtri themselves and draw the serial bits.
    proc = run_python("-c", _SCIPY_ON_THE_FIRST_GAUSSIAN_DRAW, cwd=Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "False", "True"]


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads, except on lines marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_modules_import_nothing_unused():
    modules = [p for p in sorted(Path(active_ht.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [name for path in modules for name in _unused_imports(path)] == []


def test_modules_import_only_at_top_level():
    # An import inside a function hides a cycle in the module graph; with every
    # import at the top, a cycle fails at import time instead.  The one
    # exception is draw_symbol's scipy.special, which cannot join a cycle and
    # is deferred to the first Gaussian draw for its import cost.
    nested = []
    for path in sorted(Path(active_ht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        nested += [
            (path.name, node.lineno, getattr(node, "module", None))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert [(name, module) for name, _, module in nested] == [("model.py", "scipy.special")], nested
