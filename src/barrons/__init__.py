"""Online portfolio selection with barrier-regularized online Newton steps.

Each public name is imported from its submodule on first access (PEP 562),
so ``from barrons import generate`` loads ``markets`` and what it imports,
not the whole package.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "adaptive": (
        "AdaConfig",
        "AdaState",
        "EpochBudgetError",
        "ada_init",
        "ada_step",
        "alpha",
        "default_eta",
        "epoch_budget",
        "leader_objective",
        "regularized_leader",
    ),
    "baselines": (
        "EgLearner",
        "OgdLearner",
        "OnsLearner",
        "SoftBayesLearner",
        "UpGridLearner",
        "best_crp",
        "eg_step",
        "ogd_step",
        "project_simplex",
        "soft_bayes_step",
    ),
    "core": ("BarronsState", "barrons_init", "barrons_step", "omd_step_objective"),
    "domain": ("MarketRound", "ProblemDims", "loss_grad_arrays", "normalize_round", "uniform_portfolio"),
    "harness": (
        "ExperimentResult",
        "growth_ratios",
        "load_trace",
        "run_experiment",
        "run_market",
        "save_trace",
        "sweep",
        "verify_trace",
        "write_sweep_csv",
        "write_sweep_json",
    ),
    "markets": ("MARKET_KINDS", "MarketSpec", "generate", "load_csv", "write_csv"),
    "solver": ("Objective", "SolveDiagnostics", "SolverFailure", "minimize_over_clipped_simplex"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """An export, or one of the submodules in ``_EXPORTS``, imported on first access and then cached."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
