"""Finite-armed contextual bandits on HMM-generated contexts: exact and
estimated belief filtering, spectral parameter estimation, staged and
per-round LinUCB policies, and pseudo-regret evaluation.

The package binds each submodule on first access (``hmmbandits.runner``
imports :mod:`hmmbandits.runner` then), so ``import hmmbandits`` followed by
``config.load_config`` loads ``config``, ``environment``, ``errors`` and
``hmm`` alone, not the learners, the estimator or the runner."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(("beliefs", "config", "environment", "errors", "evaluation", "hmm",
                         "policies", "runner", "spectral"))


def __getattr__(name: str):
    # PEP 562: called only for a name the package does not bind yet; the
    # import binds the submodule, so later lookups do not come back here
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
