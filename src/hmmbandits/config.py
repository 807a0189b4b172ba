"""Experiment configuration: INI sections with flat, documented keys.

Key names are the contract; the syntax is plain ``configparser`` INI.  Arrays
are whitespace-separated decimals: ``M`` row-major, ``E`` column-major
(column ``h`` is the context distribution of state ``h``), ``theta`` row per
state.  ``auto`` values resolve once per cell, into the cell's
:class:`~hmmbandits.policies.CellPlan` (:meth:`ExperimentConfig.plan`).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .environment import (
    BELIEF_DEPENDENT,
    STATE_DEPENDENT,
    NoiseModel,
    RewardSpec,
    TransferFunction,
    check_reward_bounds,
    sample_theta,
)
from .errors import ConfigError, NotMixing, ShapeMismatch
from .hmm import HmmParams, forgetting_rate, validate
from .policies import CellPlan

KNOWN_POLICIES = ("boxA", "boxB", "oracle", "random")
LEARNERS = ("boxA", "boxB")
BONUS_SCOPES = ("full", "partial")

CONFIG_SCHEMA = """\
[hmm]
H = <int>                 number of hidden states
X = <int>                 number of contexts
pi = <H decimals>         initial distribution
M = <H*H decimals>        transition matrix, row-major (M[h][h'] = P(h -> h'))
E = <X*H decimals>        emission matrix, column-major (column h = nu_h)

[reward]
model = state_dependent | belief_dependent
transfer = one_hot_action | action_context_outer | table
num_actions = <int >= 1>
d = <int>                 table transfer only
phi = <A*X*d decimals>    table transfer only (action-major, then context)
theta = <H*d decimals>    optional; row per state
theta_seed = <int >= 0>   generation recipe when theta absent
theta_target = <decimal in (0,1]>  max |phi . theta| after joint rescale (default 0.9)
noise = gaussian | bounded_uniform
v_eta = <decimal >= 0>    gaussian std (c_eta = v_eta^2)
c_eta = <decimal >= 0>    bounded_uniform second moment (v_eta = sqrt(3 c_eta))

[policy]
policy = <names>          one or more of: boxA boxB oracle random
delta = <decimal in (0,1)>
lambda = auto | <decimal > 0>  auto: T^(3/4) for boxA, T^(1/2) for boxB
ell = auto | <int >= 1>   auto: ceil(T^(3/4))
gamma = auto | <decimal in [0,1)>  auto: forgetting rate of the true transition matrix
c_theta = auto | <decimal >= 0>
c_eta = auto | <decimal >= 0>
v_eta = auto | <decimal >= 0>
bonus_scope = full | partial
beliefs = spectral | oracle
refit_every = auto | <int >= 1>  auto: ell for boxA, max(3, ceil(sqrt(T))) for boxB

[run]
horizons = <distinct ints >= 1>
seeds = <count n >= 1 for indices 0..n-1, or a list of distinct indices >= 0>
master_seed = <int >= 0>  overridden by LBL_SEED env var, then --seed
out = <directory>  non-empty; no leading or trailing whitespace, no ';' or '#' after whitespace
emit_oracle_columns = true | false
plugin_gamma = true | false
workers = <int >= 1>
"""


def _schema_keys(schema: str) -> dict[str, set]:
    """Accepted keys per section, lower-cased as ``configparser`` reads them."""
    keys: dict[str, set] = {}
    for line in schema.splitlines():
        if line.startswith("["):
            section = keys.setdefault(line.strip("[]"), set())
        elif "=" in line:
            section.add(line.split("=", 1)[0].strip().lower())
    return keys


SCHEMA_KEYS = _schema_keys(CONFIG_SCHEMA)


@dataclass(frozen=True)
class PolicySettings:
    policies: tuple
    delta: float = 0.1
    lam: str | float = "auto"
    ell: str | int = "auto"
    gamma: str | float = "auto"
    c_theta: str | float = "auto"
    c_eta: str | float = "auto"
    v_eta: str | float = "auto"
    bonus_scope: str = "full"
    beliefs: str = "spectral"
    refit_every: str | int = "auto"


@dataclass(frozen=True)
class RunSettings:
    horizons: tuple
    seeds: tuple
    master_seed: int = 0
    out: str = "results"
    emit_oracle_columns: bool = False
    plugin_gamma: bool = False
    workers: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    params: HmmParams
    reward: RewardSpec
    phi: TransferFunction
    policy: PolicySettings
    run: RunSettings

    def plan(self, policy: str, horizon: int) -> CellPlan:
        """The values the ``policy`` arm plays with at ``horizon``, every
        ``auto`` resolved: ``lambda = T^(3/4)`` for boxA and ``sqrt(T)``
        otherwise, ``ell = ceil(T^(3/4))``, ``refit_every = ell`` for boxA
        and ``max(3, ceil(sqrt(T)))`` otherwise, ``gamma`` the forgetting
        rate of ``M``, and ``c_theta``, ``c_eta``, ``v_eta`` the reward
        model's.  The baselines read no ``gamma``: theirs is None, so they
        also run on a chain that does not mix."""
        ps, T, noise = self.policy, float(horizon), self.reward.noise
        box_a = policy == "boxA"
        ell = _resolved(ps.ell, math.ceil(T ** 0.75))
        gamma = None
        if policy in LEARNERS:
            gamma = forgetting_rate(self.params) if ps.gamma == "auto" else ps.gamma
        return CellPlan(
            policy, int(horizon),
            lam=_resolved(ps.lam, T ** 0.75 if box_a else math.sqrt(T)),
            ell=ell,
            refit_every=_resolved(ps.refit_every,
                                  ell if box_a else max(3, math.ceil(math.sqrt(T)))),
            delta=ps.delta,
            gamma=gamma,
            c_theta=_resolved(ps.c_theta, self.reward.c_theta),
            c_eta=_resolved(ps.c_eta, noise.c_eta),
            v_eta=_resolved(ps.v_eta, noise.v_eta),
            H=self.params.num_states, X=self.params.num_contexts, d=self.phi.dim,
            bonus_scope=ps.bonus_scope, known_beliefs=ps.beliefs == "oracle",
        )


def _resolved(value, default):
    """``value``, or ``default`` where it is ``auto``."""
    return default if value == "auto" else value


def _floats(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.replace(",", " ").split()])


def _ints(raw: str) -> list:
    return [int(v) for v in raw.replace(",", " ").split()]


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


# (test, wording) ranges for ``read``'s ``bound``; written so that NaN fails
_POSITIVE = (lambda v: v > 0, "> 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")
_OPEN_UNIT_INTERVAL = (lambda v: 0 < v < 1, "in (0, 1)")
_HALF_OPEN_UNIT_INTERVAL = (lambda v: 0 < v <= 1, "in (0, 1]")


def _one_of(*choices):
    return (lambda v: v in choices, f"one of {', '.join(choices)}")


def _reader(section, section_name: str):
    """``read(key, convert, default, bound, auto)``: ``convert`` of the value
    of ``key``, or of ``default`` when the key is absent; no default makes the
    key required.  With ``auto``, the value ``auto`` stays ``auto`` and skips
    ``convert`` and ``bound``.  A value ``convert`` rejects, or one outside
    ``bound`` (one of the ranges above), is a ConfigError naming the key."""

    def read(key: str, convert=str.strip, default: str | None = None, bound=None,
             auto: bool = False):
        if key not in section and default is None:
            raise ConfigError(f"missing required key '{key}' in [{section_name}]")
        raw = section.get(key, default)
        if auto and raw.strip() == "auto":
            return "auto"
        try:
            value = convert(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed value {raw!r} for '{key}' in [{section_name}]") from exc
        if bound is not None and not bound[0](value):
            raise ConfigError(f"'{key}' in [{section_name}] must be {bound[1]}, got {raw!r}")
        return value

    return read


def _parse_hmm(section) -> HmmParams:
    read = _reader(section, "hmm")
    H, X = read("H", int), read("X", int)
    pi, m_flat, e_flat = read("pi", _floats), read("M", _floats), read("E", _floats)
    if m_flat.size != H * H:
        raise ConfigError(f"M must have {H * H} entries, got {m_flat.size}")
    if e_flat.size != X * H:
        raise ConfigError(f"E must have {X * H} entries, got {e_flat.size}")
    try:
        return HmmParams(
            num_states=H,
            num_contexts=X,
            initial_dist=pi,
            transition=m_flat.reshape(H, H),
            emission=e_flat.reshape((X, H), order="F"),
        )
    except ShapeMismatch as exc:
        raise ConfigError(str(exc)) from exc


def _parse_reward(section, params: HmmParams) -> tuple[RewardSpec, TransferFunction]:
    read = _reader(section, "reward")
    model = read("model", default=STATE_DEPENDENT)
    if model not in (STATE_DEPENDENT, BELIEF_DEPENDENT):
        raise ConfigError(f"unknown reward model '{model}'")
    transfer = read("transfer", default="one_hot_action")
    A = read("num_actions", int, "2", _AT_LEAST_ONE)
    if transfer == "one_hot_action":
        phi = TransferFunction.one_hot_action(A, params.num_contexts)
    elif transfer == "action_context_outer":
        phi = TransferFunction.action_context_outer(A, params.num_contexts)
    elif transfer == "table":
        d, flat = read("d", int), read("phi", _floats)
        if flat.size != A * params.num_contexts * d:
            raise ConfigError("phi table has the wrong number of entries")
        phi = TransferFunction.from_table(flat.reshape(A, params.num_contexts, d))
    else:
        raise ConfigError(f"unknown transfer kind '{transfer}'")

    noise_kind = read("noise", default="gaussian")
    if noise_kind == "gaussian":
        noise = NoiseModel.gaussian(read("v_eta", float, "0.1", _NONNEGATIVE))
    elif noise_kind == "bounded_uniform":
        noise = NoiseModel.bounded_uniform(read("c_eta", float, "0.01", _NONNEGATIVE))
    else:
        raise ConfigError(f"unknown noise kind '{noise_kind}'")

    if "theta" in section:
        theta = read("theta", _floats)
        if theta.size != params.num_states * phi.dim:
            raise ConfigError("theta must have H*d entries")
        theta = theta.reshape(params.num_states, phi.dim)
        c_theta = float(np.linalg.norm(theta, axis=1).max())
    else:
        rng = np.random.default_rng(read("theta_seed", int, "0", _NONNEGATIVE))
        target = read("theta_target", float, "0.9", _HALF_OPEN_UNIT_INTERVAL)
        theta, c_theta = sample_theta(phi, params.num_states, rng, target=target)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=noise, model=model)
    try:
        check_reward_bounds(spec, phi)
    except ShapeMismatch as exc:
        raise ConfigError(str(exc)) from exc
    return spec, phi


def _parse_policy(section) -> PolicySettings:
    read = _reader(section, "policy")
    names = tuple(read("policy", str.split, "boxA"))
    if not names or len(set(names)) < len(names):
        # a repeated arm would write its cell twice and count it twice
        raise ConfigError(f"'policy' in [policy] must list distinct policy names, "
                          f"got {' '.join(names)!r}")
    for name in names:
        if name not in KNOWN_POLICIES:
            raise ConfigError(
                f"unknown policy '{name}'; expected one of {KNOWN_POLICIES}"
            )
    return PolicySettings(
        policies=names,
        delta=read("delta", float, "0.1", _OPEN_UNIT_INTERVAL),
        lam=read("lambda", float, "auto", _POSITIVE, auto=True),
        ell=read("ell", int, "auto", _AT_LEAST_ONE, auto=True),
        gamma=read("gamma", float, "auto", _UNIT_INTERVAL, auto=True),
        c_theta=read("c_theta", float, "auto", _NONNEGATIVE, auto=True),
        c_eta=read("c_eta", float, "auto", _NONNEGATIVE, auto=True),
        v_eta=read("v_eta", float, "auto", _NONNEGATIVE, auto=True),
        bonus_scope=read("bonus_scope", default="full", bound=_one_of(*BONUS_SCOPES)),
        beliefs=read("beliefs", default="spectral", bound=_one_of("spectral", "oracle")),
        refit_every=read("refit_every", int, "auto", _AT_LEAST_ONE, auto=True),
    )


def _ini_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)


def _check_out(out: str, where: str) -> str:
    """``out`` if ``config_snapshot`` writes it back to itself: not empty, and
    read back by :func:`parse_config` unchanged (which strips whitespace at
    the ends and cuts an inline comment at ``;`` or ``#`` after whitespace)."""
    if not out:
        raise ConfigError(f"{where} must name an output directory, got an empty value")
    written = configparser.ConfigParser(interpolation=None)
    written["run"] = {"out": out}
    buf = io.StringIO()
    written.write(buf)
    try:
        back = _ini_parser()
        back.read_string(buf.getvalue())
        same = back["run"].get("out") == out
    except configparser.Error:
        same = False
    if not same:
        raise ConfigError(f"{where} = {out!r} does not read back unchanged from "
                          "config_snapshot.ini: drop leading or trailing whitespace "
                          "and any ';' or '#' that follows whitespace")
    return out


def _parse_run(section) -> RunSettings:
    read = _reader(section, "run")
    horizons = tuple(read("horizons", _ints))
    if not horizons or min(horizons) < 1 or len(set(horizons)) < len(horizons):
        raise ConfigError("horizons must be distinct positive integers")
    seeds_raw = read("seeds", _ints, "1")
    seeds = tuple(range(seeds_raw[0])) if len(seeds_raw) == 1 else tuple(seeds_raw)
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(
            "seeds must be a count of at least 1 or distinct non-negative indices"
        )
    return RunSettings(
        horizons=horizons,
        seeds=seeds,
        master_seed=read("master_seed", int, "0", _NONNEGATIVE),
        out=_check_out(section.get("out", "results"), "'out' in [run]"),
        emit_oracle_columns=read("emit_oracle_columns", _bool, "false"),
        plugin_gamma=read("plugin_gamma", _bool, "false"),
        workers=read("workers", int, "1", _AT_LEAST_ONE),
    )


def _check_learner_inputs(params: HmmParams, policy: PolicySettings) -> None:
    """What a listed learner needs of the instance: ``H <= X`` for spectral
    beliefs, a transition matrix without zero entries for ``gamma = auto``."""
    learners = " ".join(name for name in policy.policies if name in LEARNERS)
    H, X = params.num_states, params.num_contexts
    if learners and policy.beliefs == "spectral" and H > X:
        raise ConfigError(f"'beliefs' = spectral in [policy] needs H <= X in [hmm] "
                          f"for {learners}, got H = {H}, X = {X}")
    if learners and policy.gamma == "auto":
        try:
            forgetting_rate(params)
        except NotMixing as exc:
            raise ConfigError(f"'gamma' in [policy] is auto, but the forgetting rate "
                              f"is undefined: {exc}; set gamma in [0, 1)") from exc


def parse_config(text: str) -> ExperimentConfig:
    parser = _ini_parser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    for name in ("hmm", "reward", "run"):
        if name not in parser:
            raise ConfigError(f"missing required section [{name}]")
    for name in parser.sections():
        for key in parser[name]:
            if key not in SCHEMA_KEYS.get(name, ()):
                raise ConfigError(f"unknown key '{key}' in [{name}]")
    params = _parse_hmm(parser["hmm"])
    reward, phi = _parse_reward(parser["reward"], params)
    policy = _parse_policy(parser["policy"] if "policy" in parser else {})
    run = _parse_run(parser["run"])
    _check_learner_inputs(params, policy)
    validate(params)  # shape-level sanity; regularity is reported downstream
    return ExperimentConfig(params=params, reward=reward, phi=phi, policy=policy, run=run)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def apply_overrides(
    config: ExperimentConfig,
    out: str | None = None,
    workers: int | None = None,
    master_seed: int | None = None,
    emit_oracle_columns: bool | None = None,
    plugin_gamma: bool | None = None,
    bonus_scope: str | None = None,
) -> ExperimentConfig:
    run = config.run
    policy = config.policy
    if out is not None:
        run = replace(run, out=_check_out(out, "--out"))
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {workers}")
        run = replace(run, workers=workers)
    if master_seed is not None:
        if master_seed < 0:
            raise ConfigError(f"--seed and LBL_SEED must be >= 0, got {master_seed}")
        run = replace(run, master_seed=master_seed)
    if emit_oracle_columns:
        run = replace(run, emit_oracle_columns=True)
    if plugin_gamma:
        run = replace(run, plugin_gamma=True)
    if bonus_scope is not None:
        if bonus_scope not in BONUS_SCOPES:
            raise ConfigError(f"--bonus-scope must be one of {BONUS_SCOPES}")
        policy = replace(policy, bonus_scope=bonus_scope)
    return replace(config, run=run, policy=policy)


def config_snapshot(config: ExperimentConfig) -> str:
    """Canonical INI snapshot of the parsed configuration.

    Hyperparameters set to ``auto`` are written as ``auto``: they resolve
    once per cell, and ``manifest.json`` lists each cell's resolved plan.
    """
    parser = configparser.ConfigParser(interpolation=None)
    p = config.params
    parser["hmm"] = {
        "H": str(p.num_states),
        "X": str(p.num_contexts),
        "pi": " ".join(repr(float(v)) for v in p.initial_dist),
        "M": " ".join(repr(float(v)) for v in p.transition.ravel(order="C")),
        "E": " ".join(repr(float(v)) for v in p.emission.ravel(order="F")),
    }
    parser["reward"] = {
        "model": config.reward.model,
        "transfer": config.phi.kind,
        "num_actions": str(config.phi.num_actions),
        "d": str(config.phi.dim),
        "phi": " ".join(repr(float(v)) for v in config.phi.table.ravel(order="C")),
        "theta": " ".join(repr(float(v)) for v in config.reward.theta_star.ravel(order="C")),
        "noise": config.reward.noise.kind,
        "v_eta": repr(config.reward.noise.v_eta),
        "c_eta": repr(config.reward.noise.c_eta),
    }
    parser["policy"] = {
        "policy": " ".join(config.policy.policies),
        "delta": repr(config.policy.delta),
        "lambda": str(config.policy.lam),
        "ell": str(config.policy.ell),
        "gamma": str(config.policy.gamma),
        "c_theta": str(config.policy.c_theta),
        "c_eta": str(config.policy.c_eta),
        "v_eta": str(config.policy.v_eta),
        "bonus_scope": config.policy.bonus_scope,
        "beliefs": config.policy.beliefs,
        "refit_every": str(config.policy.refit_every),
    }
    parser["run"] = {
        "horizons": " ".join(str(T) for T in config.run.horizons),
        "seeds": " ".join(str(s) for s in config.run.seeds),
        "master_seed": str(config.run.master_seed),
        "out": config.run.out,
        "emit_oracle_columns": str(config.run.emit_oracle_columns).lower(),
        "plugin_gamma": str(config.run.plugin_gamma).lower(),
        "workers": str(config.run.workers),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
