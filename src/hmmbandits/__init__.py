"""Finite-armed contextual bandits on HMM-generated contexts: exact and
estimated belief filtering, spectral parameter estimation, staged and
per-round LinUCB policies, and pseudo-regret evaluation."""

__version__ = "0.1.0"

from . import beliefs, config, environment, errors, evaluation, hmm, policies, runner, spectral
