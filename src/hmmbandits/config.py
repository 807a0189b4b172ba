"""Experiment configuration: INI sections with flat, documented keys.

Key names are the contract; the syntax is plain ``configparser`` INI.  Arrays
are whitespace-separated decimals: ``M`` row-major, ``E`` column-major
(column ``h`` is the context distribution of state ``h``), ``theta`` row per
state.  :data:`KEYS` holds one :class:`Key` per key, which the schema, the
section readers, the settings classes, ``config_snapshot`` and the CLI
overrides all read.  ``auto`` values resolve once per cell, into the cell's
:class:`CellPlan` (:meth:`ExperimentConfig.plan`), which the policies and
the runner import from here: loading a configuration imports
``environment``, ``errors`` and ``hmm``, and no learner, estimator or runner.
"""

from __future__ import annotations

import configparser
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field, make_dataclass, replace
from typing import NamedTuple

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
from .hmm import HmmParams, forgetting_rate

KNOWN_POLICIES = ("boxA", "boxB", "oracle", "random")
LEARNERS = ("boxA", "boxB")
SECTIONS = ("hmm", "reward", "policy", "run")
REQUIRED = object()  # the default of a key that every config sets


class Bound(NamedTuple):
    """A key's range: a ``test`` of the value, its wording, any choices."""

    test: Callable
    wording: str
    choices: tuple | None = None


_GT0 = Bound(lambda v: v > 0, "> 0")
_GE0 = Bound(lambda v: v >= 0, ">= 0")
_GE1 = Bound(lambda v: v >= 1, ">= 1")
_UNIT = Bound(lambda v: 0 <= v < 1, "in [0, 1)")
_OPEN_UNIT = Bound(lambda v: 0 < v < 1, "in (0, 1)")
_HALF_OPEN_UNIT = Bound(lambda v: 0 < v <= 1, "in (0, 1]")


def _one_of(*choices: str) -> Bound:
    return Bound(lambda v: v in choices, f"one of {', '.join(choices)}", choices)


def _decimal(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite decimal {raw!r}")
    return value


def _floats(raw: str) -> np.ndarray:
    return np.array([_decimal(v) for v in raw.replace(",", " ").split()])


def _ints(raw: str) -> tuple:
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _distinct(test: Callable, wording: str) -> Bound:
    """A non-empty list of distinct items, each passing ``test``: a repeated
    arm, horizon or seed would write its cell twice and count it twice."""
    return Bound(lambda v: len(set(v)) == len(v) > 0 and all(map(test, v)), wording)


def _seeds(raw: str) -> tuple:
    """One number ``n`` is the indices ``0..n-1``; a longer list is the indices."""
    listed = _ints(raw)
    return tuple(range(listed[0])) if len(listed) == 1 else listed


def _ini_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)


def _ini_text(sections: dict) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _check_out(out: str, where: str) -> str:
    """``out`` if ``config_snapshot`` writes it back to itself: not empty, and
    read back by :func:`parse_config` unchanged (which strips whitespace at
    the ends and cuts an inline comment at ``;`` or ``#`` after whitespace)."""
    if not out:
        raise ConfigError(f"{where} must name an output directory, got an empty value")
    try:
        back = _ini_parser()
        back.read_string(_ini_text({"run": {"out": out}}))
        same = back["run"].get("out") == out
    except configparser.Error:
        same = False
    if not same:
        raise ConfigError(f"{where} = {out!r} does not read back unchanged from "
                          "config_snapshot.ini: drop leading or trailing whitespace "
                          "and any ';' or '#' that follows whitespace")
    return out


@dataclass(frozen=True)
class Key:
    """One key of ``[section]``: ``convert`` reads its text (a ValueError or
    KeyError means malformed text; a ConfigError of its own passes through),
    ``default`` is its value when absent (REQUIRED, or None for a key only
    some branch reads), and ``bound`` is its range, a :class:`Bound` or a
    ``check(value, where)``.  ``doc`` and ``note`` make its schema line; with
    ``auto`` the text ``auto`` stays ``auto``.  ``attr`` is its settings
    field, ``flag`` its CLI override."""

    section: str
    name: str
    convert: Callable = str
    default: object = None
    bound: Bound | Callable | None = None
    doc: str = ""
    note: str = ""
    auto: bool = False
    attr: str = ""
    flag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "attr", self.attr or self.name)

    def schema_line(self) -> str:
        line = f"{self.name} = {'auto | ' if self.auto else ''}{self.doc}"
        return f"{line:<24}  {self.note}" if self.note else line

    def parse(self, raw: str):
        where = f"'{self.name}' in [{self.section}]"
        if self.auto and raw == "auto":
            return "auto"
        try:
            value = self.convert(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed value {raw!r} for {where}") from exc
        return self.check(value, where, raw)

    def check(self, value, where: str, raw: str | None = None):
        """``value``, or a ConfigError naming ``where`` and showing ``raw``."""
        if callable(self.bound):
            return self.bound(value, where)
        if self.bound is not None and not self.bound.test(value):
            raise ConfigError(f"{where} must be {self.bound.wording}, "
                              f"got {value if raw is None else raw!r}")
        return value


KEYS = (
    Key("hmm", "H", int, REQUIRED, _GE1, "<int >= 1>", "number of hidden states"),
    Key("hmm", "X", int, REQUIRED, _GE1, "<int >= 1>", "number of contexts"),
    Key("hmm", "pi", _floats, REQUIRED, None, "<H decimals>", "initial distribution"),
    Key("hmm", "M", _floats, REQUIRED, None, "<H*H decimals>",
        "transition matrix, row-major (M[h][h'] = P(h -> h'))"),
    Key("hmm", "E", _floats, REQUIRED, None, "<X*H decimals>",
        "emission matrix, column-major (column h = nu_h)"),
    Key("reward", "model", str, STATE_DEPENDENT, _one_of(STATE_DEPENDENT, BELIEF_DEPENDENT),
        "state_dependent | belief_dependent"),
    Key("reward", "transfer", str, "one_hot_action",
        _one_of("one_hot_action", "action_context_outer", "table"),
        "one_hot_action | action_context_outer | table"),
    Key("reward", "num_actions", int, 2, _GE1, "<int >= 1>"),
    Key("reward", "d", int, None, _GE1, "<int >= 1>", "table transfer only"),
    Key("reward", "phi", _floats, None, None, "<A*X*d decimals>",
        "table transfer only (action-major, then context)"),
    Key("reward", "theta", _floats, None, None, "<H*d decimals>", "optional; row per state"),
    Key("reward", "theta_seed", int, 0, _GE0, "<int >= 0>", "generation recipe when theta absent"),
    Key("reward", "theta_target", _decimal, 0.9, _HALF_OPEN_UNIT, "<decimal in (0,1]>",
        "max |phi . theta| after joint rescale (default 0.9)"),
    Key("reward", "noise", str, "gaussian", _one_of("gaussian", "bounded_uniform"),
        "gaussian | bounded_uniform"),
    Key("reward", "v_eta", _decimal, 0.1, _GE0, "<decimal >= 0>", "gaussian std (c_eta = v_eta^2)"),
    Key("reward", "c_eta", _decimal, 0.01, _GE0, "<decimal >= 0>",
        "bounded_uniform second moment (v_eta = sqrt(3 c_eta))"),
    Key("policy", "policy", lambda raw: tuple(raw.split()), ("boxA",),
        _distinct(KNOWN_POLICIES.__contains__, f"distinct names of {', '.join(KNOWN_POLICIES)}"),
        "<names>", "one or more of: boxA boxB oracle random", attr="policies"),
    Key("policy", "delta", _decimal, 0.1, _OPEN_UNIT, "<decimal in (0,1)>"),
    Key("policy", "lambda", _decimal, "auto", _GT0, "<decimal > 0>",
        "auto: T^(3/4) for boxA, T^(1/2) for boxB", auto=True, attr="lam"),
    Key("policy", "ell", int, "auto", _GE1, "<int >= 1>", "auto: ceil(T^(3/4))", auto=True),
    Key("policy", "gamma", _decimal, "auto", _UNIT, "<decimal in [0,1)>",
        "auto: forgetting rate of the true transition matrix", auto=True),
    Key("policy", "c_theta", _decimal, "auto", _GE0, "<decimal >= 0>", auto=True),
    Key("policy", "c_eta", _decimal, "auto", _GE0, "<decimal >= 0>", auto=True),
    Key("policy", "v_eta", _decimal, "auto", _GE0, "<decimal >= 0>", auto=True),
    Key("policy", "bonus_scope", str, "full", _one_of("full", "partial"), "full | partial",
        flag="--bonus-scope"),
    Key("policy", "beliefs", str, "spectral", _one_of("spectral", "oracle"), "spectral | oracle"),
    Key("policy", "refit_every", int, "auto", _GE1, "<int >= 1>",
        "auto: ell for boxA, max(3, ceil(sqrt(T))) for boxB", auto=True),
    Key("run", "horizons", _ints, REQUIRED, _distinct(lambda v: v >= 1, "distinct ints >= 1"),
        "<distinct ints >= 1>"),
    Key("run", "seeds", _seeds, (0,),
        _distinct(lambda v: v >= 0, "a count >= 1 or distinct indices >= 0"),
        "<count n >= 1 for indices 0..n-1, or a list of distinct indices >= 0>"),
    Key("run", "master_seed", int, 0, _GE0, "<int >= 0>",
        "overridden by LBL_SEED env var, then --seed", flag="--seed"),
    Key("run", "out", str, "results", _check_out, "<directory>  non-empty; no leading or "
        "trailing whitespace, no ';' or '#' after whitespace", flag="--out"),
    Key("run", "emit_oracle_columns", _bool, False, None, "true | false",
        flag="--emit-oracle-columns"),
    Key("run", "plugin_gamma", _bool, False, None, "true | false", flag="--plugin-gamma"),
    Key("run", "workers", int, 1, _GE1, "<int >= 1>", flag="--workers"),
)
FLAG_KEYS = tuple(key for key in KEYS if key.flag)
CONFIG_SCHEMA = "\n".join(
    f"[{section}]\n" + "".join(key.schema_line() + "\n" for key in KEYS if key.section == section)
    for section in SECTIONS
)
# accepted keys per section, lower-cased as ``configparser`` reads them
SCHEMA_KEYS = {section: {key.name.lower() for key in KEYS if key.section == section}
               for section in SECTIONS}


def _settings(name: str, section: str) -> type:
    """A frozen dataclass with a field per key of ``section``, whose
    default is the key's: the table is its one definition."""
    return make_dataclass(name, [
        (key.attr, object) if key.default is REQUIRED
        else (key.attr, object, field(default=key.default))
        for key in KEYS if key.section == section
    ], frozen=True, namespace={"__module__": __name__})


PolicySettings = _settings("PolicySettings", "policy")
RunSettings = _settings("RunSettings", "run")


@dataclass(frozen=True)
class CellPlan:
    """Every value one (policy, horizon) cell plays with.

    ``lam`` is the ridge regularizer, round ``t`` is in stage
    ``ceil(t / ell)``, and the estimator refits every ``refit_every`` rounds.
    ``gamma``, ``c_theta``, ``c_eta``, ``v_eta`` are treated as available to
    the learner; only boxA's staged width reads ``gamma``, which is None for
    every other policy, and the baselines read only ``lam`` and ``ell``.
    ``known_beliefs`` zeroes every belief-error term (the oracle-belief
    ablation).  ``bonus_scope`` selects whether the Gram-norm factor
    multiplies the full five-term parenthesis of the staged bonus
    (``"full"``) or only its first three terms (``"partial"``).
    """

    policy: str
    horizon: int
    lam: float
    ell: int
    refit_every: int
    delta: float
    gamma: float | None
    c_theta: float
    c_eta: float
    v_eta: float
    H: int
    X: int
    d: int
    bonus_scope: str = "full"
    known_beliefs: bool = False

    @property
    def num_stages(self) -> int:
        return -(-self.horizon // self.ell)

    def stage_of(self, t: int) -> int:
        if not 1 <= t <= self.horizon:
            raise ShapeMismatch(f"round {t} outside [1, {self.horizon}]")
        return -(-t // self.ell)


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
        model's.  Only boxA's staged width reads ``gamma``: every other
        arm's is None, so it also runs on a chain that does not mix."""
        ps, T, noise = self.policy, float(horizon), self.reward.noise
        box_a = policy == "boxA"
        ell = _resolved(ps.ell, math.ceil(T ** 0.75))
        gamma = None
        if box_a:
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


def _read(section, name: str) -> dict:
    """Every key of ``[name]`` by settings field: a present key converted and
    checked, whichever branch reads it, and an absent one its default."""
    values = {}
    for key in (key for key in KEYS if key.section == name):
        if key.name in section:
            values[key.attr] = key.parse(section[key.name])
        elif key.default is REQUIRED:
            raise ConfigError(f"missing required key '{key.name}' in [{name}]")
        else:
            values[key.attr] = key.default
    return values


def _parse_hmm(section) -> HmmParams:
    v = _read(section, "hmm")
    H, X = v["H"], v["X"]
    if v["M"].size != H * H:
        raise ConfigError(f"M must have {H * H} entries, got {v['M'].size}")
    if v["E"].size != X * H:
        raise ConfigError(f"E must have {X * H} entries, got {v['E'].size}")
    try:
        return HmmParams(
            num_states=H,
            num_contexts=X,
            initial_dist=v["pi"],
            transition=v["M"].reshape(H, H),
            emission=v["E"].reshape((X, H), order="F"),
        )
    except ShapeMismatch as exc:
        raise ConfigError(str(exc)) from exc


def _parse_reward(section, params: HmmParams) -> tuple[RewardSpec, TransferFunction]:
    v = _read(section, "reward")
    transfer, A = v["transfer"], v["num_actions"]
    if transfer == "one_hot_action":
        phi = TransferFunction.one_hot_action(A, params.num_contexts)
    elif transfer == "action_context_outer":
        phi = TransferFunction.action_context_outer(A, params.num_contexts)
    else:  # table
        d, flat = v["d"], v["phi"]
        for name in ("d", "phi"):
            if v[name] is None:
                raise ConfigError(f"missing required key '{name}' in [reward]")
        if flat.size != A * params.num_contexts * d:
            raise ConfigError("phi table has the wrong number of entries")
        phi = TransferFunction.from_table(flat.reshape(A, params.num_contexts, d))

    if v["noise"] == "gaussian":
        noise = NoiseModel.gaussian(v["v_eta"])
    else:  # bounded_uniform
        noise = NoiseModel.bounded_uniform(v["c_eta"])

    theta = v["theta"]
    if theta is not None and theta.size != params.num_states * phi.dim:
        raise ConfigError("theta must have H*d entries")
    try:  # a phi table of zeros has no theta to draw
        if theta is None:
            rng = np.random.default_rng(v["theta_seed"])
            theta, c_theta = sample_theta(phi, params.num_states, rng, target=v["theta_target"])
        else:
            theta = theta.reshape(params.num_states, phi.dim)
            c_theta = float(np.linalg.norm(theta, axis=1).max())
        spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=noise, model=v["model"])
        check_reward_bounds(spec, phi)
    except ShapeMismatch as exc:
        raise ConfigError(str(exc)) from exc
    return spec, phi


def _check_learner_inputs(params: HmmParams, policy: PolicySettings) -> None:
    """What a listed learner needs of the instance: ``H <= X`` for spectral
    beliefs, a transition matrix without zero entries for boxA's ``gamma = auto``."""
    learners = " ".join(name for name in policy.policies if name in LEARNERS)
    H, X = params.num_states, params.num_contexts
    if learners and policy.beliefs == "spectral" and H > X:
        raise ConfigError(f"'beliefs' = spectral in [policy] needs H <= X in [hmm] "
                          f"for {learners}, got H = {H}, X = {X}")
    if "boxA" in policy.policies and policy.gamma == "auto":
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
    policy = PolicySettings(**_read(parser["policy"] if "policy" in parser else {}, "policy"))
    run = RunSettings(**_read(parser["run"], "run"))
    _check_learner_inputs(params, policy)
    return ExperimentConfig(params=params, reward=reward, phi=phi, policy=policy, run=run)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """``config`` with the overrides of :data:`FLAG_KEYS`, by settings field,
    each checked like its key under its flag's name; None keeps a value."""
    given = {"policy": {}, "run": {}}
    for key in FLAG_KEYS:
        value = overrides.pop(key.attr, None)
        if value is not None:
            where = key.flag + (" and LBL_SEED" if key.flag == "--seed" else "")
            given[key.section][key.attr] = key.check(value, where)
    if overrides:
        raise TypeError(f"no override for {', '.join(sorted(overrides))}")
    return replace(config, policy=replace(config.policy, **given["policy"]),
                   run=replace(config.run, **given["run"]))


def _text(value) -> str:
    """``value`` as ``config_snapshot`` writes it, for its key to read back."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, np.ndarray):
        return " ".join(repr(float(v)) for v in value.ravel())
    if value == (0,):  # the one seed index 0, as a count: `seeds = 0` is no seeds
        return "1"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def config_snapshot(config: ExperimentConfig) -> str:
    """Canonical INI snapshot of the parsed configuration.

    Hyperparameters set to ``auto`` are written as ``auto``: they resolve
    once per cell, and ``manifest.json`` lists each cell's resolved plan.  A
    single seed index other than 0 raises :class:`ConfigError`: ``seeds``
    reads one number as a count, so the INI form cannot hold it.
    """
    p, reward, phi = config.params, config.reward, config.phi
    if len(config.run.seeds) == 1 and config.run.seeds != (0,):
        # one number reads back as a count, and the INI form has no list of one
        raise ConfigError(f"'seeds' in [run] cannot write the one seed index "
                          f"{config.run.seeds[0]}: it would read back as a count")
    values = {
        "hmm": dict(H=p.num_states, X=p.num_contexts, pi=p.initial_dist, M=p.transition,
                    E=p.emission.ravel(order="F")),
        "reward": dict(model=reward.model, transfer=phi.kind, num_actions=phi.num_actions,
                       d=phi.dim, phi=phi.table, theta=reward.theta_star,
                       noise=reward.noise.kind, v_eta=reward.noise.v_eta,
                       c_eta=reward.noise.c_eta),
        "policy": vars(config.policy), "run": vars(config.run),
    }
    return _ini_text({section: {key.name: _text(values[section][key.attr]) for key in KEYS
                                if key.section == section and key.attr in values[section]}
                      for section in SECTIONS})
