"""Attractor-network clustering for binary student-problem charts."""

import importlib

__version__ = "0.1.0"

# each export and its module, imported on first use (PEP 562): importing the
# package loads no numpy, so ``spcluster.cli`` can set numpy's threads first
_EXPORTS = {
    "Clustering": "clustering", "TrialReport": "clustering", "rnn_cluster": "clustering",
    "run_trials": "clustering", "score_baseline": "clustering",
    "GenSpec": "datagen", "generate_chart": "datagen",
    "ChartType": "spchart", "SPChart": "spchart", "parse_chart": "spchart", "rearrange": "spchart",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
