import argparse
import configparser
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmmbandits.cli import _parser as cli_parser
from hmmbandits.cli import main as cli_main
from hmmbandits.config import (
    FLAG_KEYS,
    KEYS,
    KNOWN_POLICIES,
    apply_overrides,
    config_snapshot,
    parse_config,
)
from hmmbandits.environment import check_reward_bounds
from hmmbandits.errors import ConfigError
from hmmbandits.runner import blas_core, simulate_group

from conftest import run_under_blas_core, simulate_cell
from oracles import estimate_from_text

MINIMAL = """
[hmm]
H = 2
X = 2
pi = 0.5 0.5
M = 0.8 0.2 0.3 0.7
E = 0.7 0.3 0.2 0.8

[reward]
model = state_dependent
transfer = one_hot_action
num_actions = 2
theta_seed = 3
noise = gaussian
v_eta = 0.1

[policy]
policy = oracle random

[run]
horizons = 32 64
seeds = 2
master_seed = 11
out = {out}
"""


TWO_STATES = "H = 2\nX = 2\npi = 0.5 0.5\nM = 0.8 0.2 0.3 0.7\nE = 0.7 0.3 0.2 0.8"
# H > X: no spectral estimate exists
THREE_STATES = ("H = 3\nX = 2\npi = 0.5 0.25 0.25\nM = 0.8 0.1 0.1 0.1 0.8 0.1 0.1 0.1 0.8\n"
                "E = 0.7 0.3 0.5 0.5 0.2 0.8")


SUBCOMMANDS = ("simulate", "estimate", "check-lemmas", "fit-rate", "print-config-schema")


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "exp.ini"
    body = (MINIMAL if text is None else text).format(**fmt)
    path.write_text(body)
    return str(path)


class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        assert cfg.params.num_states == 2
        assert cfg.phi.num_actions == 2
        assert cfg.run.horizons == (32, 64)
        assert cfg.run.seeds == (0, 1)
        reparsed = parse_config(config_snapshot(cfg))
        assert np.allclose(reparsed.params.transition, cfg.params.transition)
        assert np.allclose(reparsed.reward.theta_star, cfg.reward.theta_star)

    def test_missing_matrix_key_named(self, tmp_path):
        text = MINIMAL.format(out=str(tmp_path)).replace("M = 0.8 0.2 0.3 0.7", "")
        with pytest.raises(ConfigError, match="'M'"):
            parse_config(text)

    def test_bad_policy_name(self, tmp_path):
        text = MINIMAL.format(out=str(tmp_path)).replace(
            "policy = oracle random", "policy = thompson"
        )
        with pytest.raises(ConfigError, match="thompson"):
            parse_config(text)

    def test_column_major_emission_order(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        assert cfg.params.emission[:, 0] == pytest.approx([0.7, 0.3])
        assert cfg.params.emission[:, 1] == pytest.approx([0.2, 0.8])

    def test_auto_resolutions(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        box_a, box_b, random = (cfg.plan(name, 4096) for name in ("boxA", "boxB", "random"))
        assert box_a.lam == pytest.approx(4096 ** 0.75)
        assert box_b.lam == random.lam == pytest.approx(64.0)
        assert box_a.ell == box_b.ell == random.ell == 512
        assert box_a.refit_every == 512
        assert box_b.refit_every == 64
        assert box_a.gamma == pytest.approx(1.0 - 0.2 / 0.8)
        # only boxA's staged width reads the forgetting rate
        assert box_b.gamma is None and random.gamma is None
        assert (box_a.c_theta, box_a.c_eta, box_a.v_eta) == (
            cfg.reward.c_theta, cfg.reward.noise.c_eta, cfg.reward.noise.v_eta)
        assert (box_a.H, box_a.X, box_a.d) == (2, 2, 2)
        assert box_a.bonus_scope == "full" and not box_a.known_beliefs

    def test_explicit_seed_list(self, tmp_path):
        text = MINIMAL.format(out=str(tmp_path)).replace("seeds = 2", "seeds = 5 9 13")
        cfg = parse_config(text)
        assert cfg.run.seeds == (5, 9, 13)

    @pytest.mark.parametrize("seeds", ["0", "-2", "3 -1", "4 4", "1 2 1"])
    def test_bad_seeds_rejected(self, tmp_path, seeds):
        text = MINIMAL.format(out=str(tmp_path)).replace("seeds = 2", f"seeds = {seeds}")
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(text)

    @pytest.mark.parametrize("horizons", ["32 32", "0", "64 -1", "16 32 16"])
    def test_bad_horizons_rejected(self, tmp_path, horizons):
        # a repeated horizon would run its cells twice and list them twice
        text = MINIMAL.format(out=str(tmp_path)).replace(
            "horizons = 32 64", f"horizons = {horizons}")
        with pytest.raises(ConfigError, match="horizons"):
            parse_config(text)

    def test_seed_list_runs_the_listed_indices(self, tmp_path):
        # seeds = 5 7 runs the cells of indices 5 and 7 of a seeds = 8 run
        listed, counted = tmp_path / "listed", tmp_path / "counted"
        path = write_config(tmp_path, MINIMAL.replace("seeds = 2", "seeds = 5 7"),
                            out=str(listed))
        assert cli_main(["simulate", path]) == 0
        path = write_config(tmp_path, MINIMAL.replace("seeds = 2", "seeds = 8"),
                            out=str(counted))
        assert cli_main(["simulate", path]) == 0
        names = sorted(p.name for p in listed.iterdir()
                       if p.suffix == ".csv" and p.name != "summary.csv")
        assert names == [f"{pol}_T{T}_s{s}.csv" for pol in ("oracle", "random")
                         for T in (32, 64) for s in (5, 7)]
        for name in names:
            assert (listed / name).read_bytes() == (counted / name).read_bytes()
        summary = (listed / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[2] for line in summary] == ["5", "7"] * 4

    def test_unknown_key_named_with_section(self, tmp_path):
        text = MINIMAL.format(out=str(tmp_path)).replace(
            "seeds = 2", "seeds = 2\nplugin_gama = true")
        with pytest.raises(ConfigError, match=r"'plugin_gama' in \[run\]"):
            parse_config(text)

    def test_removed_exact_refilter_key_rejected(self, tmp_path):
        text = MINIMAL.format(out=str(tmp_path)).replace(
            "seeds = 2", "seeds = 2\nexact_refilter = false")
        with pytest.raises(ConfigError, match=r"'exact_refilter' in \[run\]"):
            parse_config(text)

    def test_schema_lists_every_snapshot_key(self, tmp_path):
        from hmmbandits.config import SCHEMA_KEYS

        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        snapshot = parse_config(config_snapshot(cfg))
        assert snapshot.run == cfg.run
        assert set(SCHEMA_KEYS) == {"hmm", "reward", "policy", "run"}
        assert "exact_refilter" not in SCHEMA_KEYS["run"]

    def test_overrides(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        cfg2 = apply_overrides(cfg, out="elsewhere", master_seed=99,
                               bonus_scope="partial", plugin_gamma=True)
        assert cfg2.run.out == "elsewhere"
        assert cfg2.run.master_seed == 99
        assert cfg2.policy.bonus_scope == "partial"
        assert cfg2.run.plugin_gamma


SCHEMA_TEXT = """\
[hmm]
H = <int >= 1>            number of hidden states
X = <int >= 1>            number of contexts
pi = <H decimals>         initial distribution
M = <H*H decimals>        transition matrix, row-major (M[h][h'] = P(h -> h'))
E = <X*H decimals>        emission matrix, column-major (column h = nu_h)

[reward]
model = state_dependent | belief_dependent
transfer = one_hot_action | action_context_outer | table
num_actions = <int >= 1>
d = <int >= 1>            table transfer only
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

# a value outside the bound of each key that has one, as INI text
OUT_OF_RANGE = {
    ("hmm", "H"): "0", ("hmm", "X"): "0", ("reward", "num_actions"): "0",
    ("reward", "d"): "0", ("reward", "theta_seed"): "-1", ("reward", "theta_target"): "0",
    ("reward", "v_eta"): "-0.5", ("reward", "c_eta"): "-0.5", ("policy", "delta"): "1",
    ("policy", "lambda"): "0", ("policy", "ell"): "0", ("policy", "gamma"): "1",
    ("policy", "c_theta"): "-1", ("policy", "c_eta"): "-1", ("policy", "v_eta"): "-1",
    ("policy", "bonus_scope"): "auto", ("policy", "beliefs"): "auto",
    ("policy", "refit_every"): "0", ("run", "master_seed"): "-1", ("run", "out"): "",
    ("run", "workers"): "0", ("policy", "policy"): "boxA boxA", ("run", "horizons"): "0",
    ("run", "seeds"): "0", ("reward", "model"): "linear", ("reward", "transfer"): "dense",
    ("reward", "noise"): "laplace",
}


def with_keys(values: dict, text: str = MINIMAL) -> str:
    """``text`` (formatted with ``out = x``) with each ``(section, name)`` of
    ``values`` set to its text, or removed where that is None."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text.format(out="x"))
    for (section, name), value in values.items():
        if not parser.has_section(section):
            parser.add_section(section)
        if value is None:
            parser.remove_option(section, name)
        else:
            parser[section][name] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _decimal_text(low: float, high: float):
    return st.floats(low, high, allow_nan=False).map(repr)


def _maybe(strategy):
    """A key's text, or None: the key is left out and takes its default."""
    return st.one_of(st.none(), strategy)


@st.composite
def config_texts(draw):
    """The text of every key of every section, drawn valid, or None where the
    key is left out; the hmm instance is the minimal one."""
    auto_or = lambda strategy: _maybe(st.one_of(st.just("auto"), strategy))  # noqa: E731
    A, transfer = draw(st.integers(1, 3)), draw(st.sampled_from(
        ["one_hot_action", "action_context_outer", "table"]))
    d = draw(st.integers(1, 2)) if transfer == "table" else None
    seeds = st.one_of(st.integers(1, 4).map(str), st.lists(
        st.integers(0, 50), min_size=2, max_size=3, unique=True).map(
        lambda s: " ".join(map(str, s))))
    theta_given = draw(st.booleans())
    values = {
        ("hmm", "H"): "2", ("hmm", "X"): "2", ("hmm", "pi"): "0.5 0.5",
        ("hmm", "M"): "0.8 0.2 0.3 0.7", ("hmm", "E"): "0.7 0.3 0.2 0.8",
        ("reward", "model"): draw(_maybe(st.sampled_from(["state_dependent",
                                                         "belief_dependent"]))),
        ("reward", "transfer"): transfer,
        ("reward", "num_actions"): str(A),
        ("reward", "d"): None if d is None else str(d),
        ("reward", "phi"): None if d is None else " ".join(draw(st.lists(  # none is 0
            st.one_of(_decimal_text(-1, -0.1), _decimal_text(0.1, 1)),
            min_size=A * 2 * d, max_size=A * 2 * d))),
        ("reward", "theta"): None,
        ("reward", "theta_seed"): draw(_maybe(st.integers(0, 2**32).map(str))),
        ("reward", "theta_target"): draw(_maybe(_decimal_text(0.05, 1))),
        ("reward", "noise"): draw(_maybe(st.sampled_from(["gaussian", "bounded_uniform"]))),
        ("reward", "v_eta"): draw(_maybe(_decimal_text(0, 2))),
        ("reward", "c_eta"): draw(_maybe(_decimal_text(0, 2))),
        ("policy", "policy"): draw(_maybe(st.lists(st.sampled_from(KNOWN_POLICIES), min_size=1,
                                                   unique=True).map(" ".join))),
        ("policy", "delta"): draw(_maybe(_decimal_text(0.01, 0.99))),
        ("policy", "lambda"): draw(auto_or(_decimal_text(1e-3, 1e3))),
        ("policy", "ell"): draw(auto_or(st.integers(1, 100).map(str))),
        ("policy", "gamma"): draw(auto_or(_decimal_text(0, 0.99))),
        ("policy", "c_theta"): draw(auto_or(_decimal_text(0, 10))),
        ("policy", "c_eta"): draw(auto_or(_decimal_text(0, 10))),
        ("policy", "v_eta"): draw(auto_or(_decimal_text(0, 10))),
        ("policy", "bonus_scope"): draw(_maybe(st.sampled_from(["full", "partial"]))),
        ("policy", "beliefs"): draw(_maybe(st.sampled_from(["spectral", "oracle"]))),
        ("policy", "refit_every"): draw(auto_or(st.integers(1, 100).map(str))),
        ("run", "horizons"): " ".join(map(str, draw(st.lists(
            st.integers(1, 5000), min_size=1, max_size=3, unique=True)))),
        ("run", "seeds"): draw(_maybe(seeds)),
        ("run", "master_seed"): draw(_maybe(st.integers(0, 2**63).map(str))),
        ("run", "out"): draw(_maybe(st.from_regex(r"[\w./%-][\w./%;#-]{0,8}", fullmatch=True))),
        ("run", "emit_oracle_columns"): draw(_maybe(st.sampled_from(["true", "no", "1", "off"]))),
        ("run", "plugin_gamma"): draw(_maybe(st.sampled_from(["false", "yes", "0", "on"]))),
        ("run", "workers"): draw(_maybe(st.integers(1, 8).map(str))),
    }
    if theta_given:  # |phi . theta| <= d * 0.4 < 1 for every transfer
        dim = {"one_hot_action": A, "action_context_outer": 2 * A, "table": d}[transfer]
        values[("reward", "theta")] = " ".join(draw(st.lists(
            _decimal_text(-0.4, 0.4), min_size=2 * dim, max_size=2 * dim)))
    return values


def _same_config(a, b) -> bool:
    return (a.policy == b.policy and a.run == b.run
            and a.reward.model == b.reward.model and a.reward.noise == b.reward.noise
            and a.reward.c_theta == b.reward.c_theta and a.phi.kind == b.phi.kind
            and np.array_equal(a.reward.theta_star, b.reward.theta_star)
            and np.array_equal(a.phi.table, b.phi.table)
            and all(np.array_equal(getattr(a.params, f), getattr(b.params, f))
                    for f in ("initial_dist", "transition", "emission")))


ONE_SEED = {**{(key.section, key.name): None for key in KEYS},
            ("hmm", "H"): "2", ("hmm", "X"): "2", ("hmm", "pi"): "0.5 0.5",
            ("hmm", "M"): "0.8 0.2 0.3 0.7", ("hmm", "E"): "0.7 0.3 0.2 0.8",
            ("run", "horizons"): "16", ("run", "seeds"): "1"}


class TestKeyTable:
    @settings(deadline=None, max_examples=150)
    @given(config_texts())
    @example(ONE_SEED)
    def test_every_key_round_trips_through_the_snapshot(self, values):
        assert set(values) == {(key.section, key.name) for key in KEYS}
        cfg = parse_config(with_keys(values, "[hmm]\n[reward]\n[policy]\n[run]\n"))
        back = parse_config(config_snapshot(cfg))
        assert _same_config(cfg, back)
        assert config_snapshot(back) == config_snapshot(cfg)

    def test_one_seed_snapshot_reads_back(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out="x").replace("seeds = 2", "seeds = 1"))
        assert cfg.run.seeds == (0,)
        assert "seeds = 1\n" in config_snapshot(cfg)
        assert parse_config(config_snapshot(cfg)).run.seeds == (0,)

    @pytest.mark.parametrize("seeds", [(0,), (0, 1), (5, 7)])
    def test_seed_indices_round_trip_through_the_snapshot(self, seeds):
        cfg = parse_config(MINIMAL.format(out="x"))
        cfg = replace(cfg, run=replace(cfg.run, seeds=seeds))
        assert parse_config(config_snapshot(cfg)).run.seeds == seeds

    def test_one_seed_index_other_than_0_is_refused(self):
        # `seeds = 5` would read back as the five indices 0..4
        cfg = parse_config(MINIMAL.format(out="x"))
        cfg = replace(cfg, run=replace(cfg.run, seeds=(5,)))
        with pytest.raises(ConfigError, match="'seeds' in \\[run\\]"):
            config_snapshot(cfg)

    @pytest.mark.parametrize("key", [key for key in KEYS if key.bound is not None],
                             ids=lambda key: f"{key.section}.{key.name}")
    def test_each_bound_rejects_a_value_outside_it(self, key):
        raw = OUT_OF_RANGE[key.section, key.name]
        with pytest.raises(ConfigError,
                           match=rf"^'{key.name}' in \[{key.section}\] must (be|name) "):
            parse_config(with_keys({(key.section, key.name): raw}))

    def test_print_config_schema_text(self, capsys):
        assert cli_main(["print-config-schema"]) == 0
        assert capsys.readouterr().out == SCHEMA_TEXT + "\n"


class TestCli:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[hmm]\nH = 2\n")
        assert cli_main(["simulate", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,named", [
        ("horizons = 32 64", "horizons = 3OO", r"'horizons' in \[run\]"),
        ("v_eta = 0.1", "v_eta = x", r"'v_eta' in \[reward\]"),
        ("seeds = 2", "seeds = 2\nworkers = two", r"'workers' in \[run\]"),
        ("seeds = 2", "seeds = 2\nplugin_gamma = maybe", r"'plugin_gamma' in \[run\]"),
        ("policy = oracle random", "policy = oracle random\nlambda = 1.5.2",
         r"'lambda' in \[policy\]"),
        ("H = 2", "H = two", r"'H' in \[hmm\]"),
        (None, None, "LBL_SEED"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, monkeypatch, capsys, old, new, named):
        if old is None:
            monkeypatch.setenv("LBL_SEED", "12x")
        text = MINIMAL if old is None else MINIMAL.replace(old, new)
        path = write_config(tmp_path, text, out=str(tmp_path / "run"))
        assert cli_main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert re.search(named, err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("old,new,flags,named", [
        ("policy = oracle random", "policy = boxB\nlambda = -1", [], r"'lambda' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nlambda = nan", [], r"'lambda' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nc_eta = -1", [], r"'c_eta' in \[policy\]"),
        ("num_actions = 2", "num_actions = 0", [], r"'num_actions' in \[reward\]"),
        ("policy = oracle random", "policy = boxA\nell = 0", [], r"'ell' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nrefit_every = 0", [],
         r"'refit_every' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\ngamma = 1.5", [], r"'gamma' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\ngamma = -0.1", [], r"'gamma' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nc_theta = -1", [],
         r"'c_theta' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nv_eta = -1", [], r"'v_eta' in \[policy\]"),
        ("v_eta = 0.1", "v_eta = -1", [], r"'v_eta' in \[reward\]"),
        ("policy = oracle random", "policy = oracle random\ndelta = 1", [],
         r"'delta' in \[policy\]"),
        ("seeds = 2", "seeds = 2\nworkers = 0", [], r"'workers' in \[run\]"),
        ("policy = oracle random", "policy = boxA\nbonus_scope = half", [],
         r"'bonus_scope' in \[policy\] must be one of full, partial, got 'half'"),
        ("policy = oracle random", "policy = boxA\nbeliefs = exact", [],
         r"'beliefs' in \[policy\] must be one of spectral, oracle, got 'exact'"),
        ("policy = oracle random", "policy = boxA\nbonus_scope = auto", [],
         r"'bonus_scope' in \[policy\] must be one of full, partial, got 'auto'"),
        ("policy = oracle random", "policy = boxA\nbeliefs = auto", [],
         r"'beliefs' in \[policy\] must be one of spectral, oracle, got 'auto'"),
        (None, None, ["--workers", "0"], "--workers"),
        ("theta_seed = 3", "theta_seed = 3\ntheta_target = -1", [],
         r"'theta_target' in \[reward\] must be in \(0, 1\]"),
        ("theta_seed = 3", "theta_seed = 3\ntheta_target = 0", [],
         r"'theta_target' in \[reward\] must be in \(0, 1\]"),
        ("theta_seed = 3", "theta_seed = 3\ntheta_target = 1.5", [],
         r"'theta_target' in \[reward\] must be in \(0, 1\]"),
        ("policy = oracle random", "policy = random random", [],
         r"'policy' in \[policy\] must be distinct names of boxA, boxB, oracle, random"),
        ("policy = oracle random", "policy = oracle random boxA oracle", [],
         r"'policy' in \[policy\] must be distinct names of boxA, boxB, oracle, random"),
        ("policy = oracle random", "policy =", [],
         r"'policy' in \[policy\] must be distinct names of boxA, boxB, oracle, random"),
        ("master_seed = 11", "master_seed = -5", [], r"'master_seed' in \[run\] must be >= 0"),
        ("theta_seed = 3", "theta_seed = -2", [], r"'theta_seed' in \[reward\] must be >= 0"),
        # decimals must be finite
        ("policy = oracle random", "policy = boxB\nlambda = inf", [],
         r"malformed value 'inf' for 'lambda' in \[policy\]"),
        ("policy = oracle random", "policy = boxA\nc_theta = inf", [],
         r"malformed value 'inf' for 'c_theta' in \[policy\]"),
        ("policy = oracle random", "policy = boxB\nv_eta = inf", [],
         r"malformed value 'inf' for 'v_eta' in \[policy\]"),
        ("v_eta = 0.1", "v_eta = inf", [], r"malformed value 'inf' for 'v_eta' in \[reward\]"),
        ("theta_seed = 3", "theta = 0.1 nan 0.3 0.4", [], r"'theta' in \[reward\]"),
        # sizes are at least 1
        ("H = 2", "H = -1", [], r"'H' in \[hmm\] must be >= 1, got '-1'"),
        ("X = 2", "X = 0", [], r"'X' in \[hmm\] must be >= 1, got '0'"),
        ("transfer = one_hot_action", "transfer = table\nd = 0\nphi = 1 0 0 1", [],
         r"'d' in \[reward\] must be >= 1, got '0'"),
        # a present key is checked whichever branch reads it
        ("noise = gaussian", "noise = gaussian\nc_eta = -5", [],
         r"'c_eta' in \[reward\] must be >= 0, got '-5'"),
        ("noise = gaussian\nv_eta = 0.1", "noise = bounded_uniform\nv_eta = -3", [],
         r"'v_eta' in \[reward\] must be >= 0, got '-3'"),
        ("theta_seed = 3", "theta = 0.1 0.2 0.3 0.4\ntheta_target = 7", [],
         r"'theta_target' in \[reward\] must be in \(0, 1\], got '7'"),
        ("theta_seed = 3", "theta = 0.1 0.2 0.3 0.4\ntheta_seed = -7", [],
         r"'theta_seed' in \[reward\] must be >= 0, got '-7'"),
        ("theta_seed = 3", "theta_seed = 3\nd = -4", [],
         r"'d' in \[reward\] must be >= 1, got '-4'"),
        ("theta_seed = 3", "theta_seed = 3\nphi = garbage", [],
         r"malformed value 'garbage' for 'phi' in \[reward\]"),
        # a table of zeros has no theta to draw: a configuration error, not exit 3
        ("transfer = one_hot_action", "transfer = table\nd = 1\nphi = 0 0 0 0", [],
         "configuration error: degenerate transfer/theta draw"),
        (None, None, ["--seed", "-1"], "--seed and LBL_SEED must be >= 0"),
        (None, None, {"LBL_SEED": "-1"}, "--seed and LBL_SEED must be >= 0"),
        # the list keys take the shared message too
        ("policy = oracle random", "policy = thompson", [],
         r"'policy' in \[policy\] must be distinct names of boxA, boxB, oracle, random, "
         r"got 'thompson'"),
        ("horizons = 32 64", "horizons = 16 32 16", [],
         r"'horizons' in \[run\] must be distinct ints >= 1, got '16 32 16'"),
        ("seeds = 2", "seeds = 0", [],
         r"'seeds' in \[run\] must be a count >= 1 or distinct indices >= 0, got '0'"),
    ])
    def test_out_of_range_value_exit_2(self, tmp_path, monkeypatch, capsys, old, new, flags,
                                       named):
        if isinstance(flags, dict):  # environment variables in place of flags
            for key, value in flags.items():
                monkeypatch.setenv(key, value)
            flags = []
        text = MINIMAL if old is None else MINIMAL.replace(old, new)
        path = write_config(tmp_path, text, out=str(tmp_path / "run"))
        assert cli_main(["simulate", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert re.search(named, err)
        assert not (tmp_path / "run").exists()

    def test_auto_and_boundary_values_accepted(self, tmp_path):
        text = MINIMAL.replace("policy = oracle random", (
            "policy = boxA boxB\nlambda = auto\nell = 1\ngamma = 0\nc_theta = 0\n"
            "c_eta = 0\nv_eta = 0\nrefit_every = 1"))
        text = text.replace("theta_seed = 3", "theta_seed = 3\ntheta_target = 1")
        cfg = parse_config(text.replace("seeds = 2", "seeds = 2\nworkers = 1").format(out="x"))
        assert cfg.policy.lam == "auto" and cfg.policy.ell == 1 and cfg.policy.gamma == 0.0
        assert cfg.run.workers == 1
        assert check_reward_bounds(cfg.reward, cfg.phi) == pytest.approx(1.0, abs=1e-12)

    def test_spectral_learner_with_more_states_than_contexts_exit_2(self, tmp_path, capsys):
        three_states = MINIMAL.replace(TWO_STATES, THREE_STATES)
        text = three_states.replace("policy = oracle random", "policy = random boxB")
        path = write_config(tmp_path, text, out=str(tmp_path / "run"))
        assert cli_main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"'beliefs' = spectral in \[policy\] needs H <= X", err)
        assert not (tmp_path / "run").exists()
        # the baselines and learners on known beliefs need no estimate
        assert parse_config(three_states.format(out="x")).params.num_states == 3
        parse_config(text.replace("boxB", "boxB\nbeliefs = oracle").format(out="x"))

    def test_auto_gamma_on_non_mixing_chain_exit_2(self, tmp_path, capsys):
        sticky = MINIMAL.replace("M = 0.8 0.2 0.3 0.7", "M = 1.0 0.0 0.3 0.7")
        text = sticky.replace("policy = oracle random", "policy = random boxA")
        path = write_config(tmp_path, text, out=str(tmp_path / "run"))
        assert cli_main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"'gamma' in \[policy\] is auto", err)
        assert not (tmp_path / "run").exists()
        # an explicit gamma, or no learner, leaves the forgetting rate unused
        cfg = parse_config(text.replace("boxA", "boxA\ngamma = 0.5").format(out="x"))
        assert cfg.plan("boxA", 64).gamma == 0.5
        parse_config(sticky.format(out="x"))

    @pytest.mark.parametrize("beliefs", ["spectral", "oracle"])
    def test_boxB_on_non_mixing_chain_runs(self, tmp_path, capsys, beliefs):
        # boxB's per-round width reads no forgetting rate, so gamma = auto
        # leaves it unresolved; boxA's staged width needs it
        sticky = MINIMAL.replace("M = 0.8 0.2 0.3 0.7", "M = 1.0 0.0 0.3 0.7")
        text = sticky.replace("policy = oracle random",
                              f"policy = boxB random\nbeliefs = {beliefs}\ngamma = auto")
        out = tmp_path / "run"
        assert cli_main(["simulate", write_config(tmp_path, text, out=str(out))]) == 0
        plans = json.loads((out / "manifest.json").read_text())["plans"]
        assert [plan["gamma"] for plan in plans.values()] == [None] * 8
        text = text.replace("policy = boxB random", "policy = boxA boxB")
        path = write_config(tmp_path, text, out=str(tmp_path / "with_boxA"))
        capsys.readouterr()
        assert cli_main(["simulate", path]) == 2
        assert re.search(r"'gamma' in \[policy\] is auto", capsys.readouterr().err)
        assert not (tmp_path / "with_boxA").exists()

    def test_baselines_on_non_mixing_chain_run(self, tmp_path):
        # gamma = auto is undefined here, and neither baseline reads it
        text = MINIMAL.replace("M = 0.8 0.2 0.3 0.7", "M = 1.0 0.0 0.3 0.7").replace(
            "policy = oracle random", "policy = random oracle\ngamma = auto")
        out = tmp_path / "run"
        assert cli_main(["simulate", write_config(tmp_path, text, out=str(out))]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 2 * 2
        plans = json.loads((out / "manifest.json").read_text())["plans"]
        assert [plan["gamma"] for plan in plans.values()] == [None] * 8

    def test_simulate_oracle_regret_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, out=str(out))
        assert cli_main(["simulate", path]) == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        header = summary[0].split(",")
        for line in summary[1:]:
            row = dict(zip(header, line.split(",")))
            if row["policy"] == "oracle":
                assert float(row["R_T"]) == 0.0

    def test_manifest_names_the_blas_core(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["simulate", write_config(tmp_path, out=str(out))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_core"] == blas_core()
        script = "from hmmbandits.runner import blas_core; print(blas_core())"
        assert run_under_blas_core(script, "Haswell") == b"Haswell\n"

    def test_simulate_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, out="unused")
        assert cli_main(["simulate", path, "--out", str(out1)]) == 0
        assert cli_main(["simulate", path, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
        assert names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_does_not_change_artifacts(self, tmp_path):
        # the learner arms too, so their columns and estimates cross the pool
        text = MINIMAL.replace("policy = oracle random", "policy = boxA boxB oracle random")
        path = write_config(tmp_path, text, out="unused")
        for k, flags in enumerate([[], ["--emit-oracle-columns"]]):
            out1, out2 = tmp_path / f"w1_{k}", tmp_path / f"w2_{k}"
            assert cli_main(["simulate", path, "--out", str(out1)] + flags) == 0
            assert cli_main(["simulate", path, "--out", str(out2), "--workers", "2"]
                            + flags) == 0
            names = sorted(p.name for p in out1.iterdir() if p.suffix in (".csv", ".txt"))
            assert sum(name.endswith(".estimate.txt") for name in names) == 8
            assert len(names) == 8 + 16 + 1  # estimates, cells, summary
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            # the pool runs (T, seed) groups; the manifest stays policy-major
            policy_major = [f"{p}_T{T}_s{s}.csv" for p in ("boxA", "boxB", "oracle", "random")
                            for T in (32, 64) for s in (0, 1)]
            for out in (out1, out2):
                manifest = json.loads((out / "manifest.json").read_text())
                assert list(manifest["durations"]) == policy_major

    def test_pool_in_a_fresh_process_writes_the_same_bytes(self, tmp_path):
        # a fresh interpreter imports the pool on the workers > 1 branch alone
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        outs = {}
        for workers in ("1", "2"):
            outs[workers] = tmp_path / f"w{workers}"
            result = subprocess.run(
                [sys.executable, "-m", "hmmbandits", "simulate", "configs/smoke.ini",
                 "--workers", workers, "--out", str(outs[workers])],
                cwd=root, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
            )
            assert result.returncode == 0, result.stderr
        names = sorted(p.name for p in outs["1"].iterdir() if p.suffix == ".csv")
        assert "summary.csv" in names and len(names) == 3 * 2 * 2 + 1
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def test_lbl_seed_env_override(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        path = write_config(tmp_path, out="unused")
        monkeypatch.setenv("LBL_SEED", "12345")
        assert cli_main(["simulate", path, "--out", str(out1)]) == 0
        monkeypatch.delenv("LBL_SEED")
        assert cli_main(["simulate", path, "--out", str(out2), "--seed", "12345"]) == 0
        for name in sorted(p.name for p in out1.iterdir() if p.suffix == ".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_percent_sign_in_out_is_kept(self, tmp_path, monkeypatch):
        # values are read and written verbatim: no configparser interpolation
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, out="res%1")
        assert cli_main(["simulate", path]) == 0
        assert cli_main(["simulate", path, "--out", "res%%2"]) == 0
        for out in ("res%1", "res%%2"):  # the snapshot is config_snapshot(cfg)
            snapshot = (tmp_path / out / "config_snapshot.ini").read_text()
            assert parse_config(snapshot).run.out == out

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("source,named", [("file", r"'out' in \[run\]"),
                                              ("flag", "--out")])
    def test_empty_out_exit_2(self, tmp_path, monkeypatch, capsys, command, source, named):
        # a configuration error before any cell or curve runs, not a traceback
        # from creating a directory with an empty name
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, out="" if source == "file" else "kept")
        flags = ["--out", ""] if source == "flag" else []
        assert cli_main([command, path, *flags]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"configuration error: {named} must name an output directory", err)
        assert os.listdir(tmp_path) == ["exp.ini"]

    @pytest.mark.parametrize("out", ["sc ;x", "sc #x", "sc\t;x", " sc", "sc ", "\tsc"])
    def test_out_that_does_not_read_back_exit_2(self, tmp_path, monkeypatch, capsys, out):
        # config_snapshot.ini would read back as another directory: parse_config
        # strips the ends and cuts an inline comment after whitespace
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, out="kept")
        for command in ("simulate", "estimate"):
            assert cli_main([command, path, "--out", out]) == 2
            err = capsys.readouterr().err
            assert f"configuration error: --out = {out!r} does not read back" in err
        assert os.listdir(tmp_path) == ["exp.ini"]
        with pytest.raises(ConfigError, match="--out"):
            apply_overrides(parse_config(MINIMAL.format(out="kept")), out=out)

    def test_comment_characters_without_whitespace_are_kept(self, tmp_path):
        cfg = apply_overrides(parse_config(MINIMAL.format(out="kept")), out="a;b#c")
        assert parse_config(config_snapshot(cfg)).run.out == "a;b#c"
        with pytest.raises(ConfigError, match=r"'out' in \[run\] must name"):
            parse_config(MINIMAL.format(out=""))

    def test_config_flag_is_usage_error(self, tmp_path, capsys):
        # the configuration is the positional argument alone
        out = tmp_path / "flagform"
        path = write_config(tmp_path, out=str(out))
        assert cli_main(["simulate", "--config", path]) == 1
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_help_lists_every_subcommand(self, capsys):
        assert cli_main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in SUBCOMMANDS:
            assert command in out

    def test_readme_cli_section_names_every_subcommand_and_flag(self):
        # a removed or renamed subcommand or flag cannot outlive its docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        commands = next(action for action in cli_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        assert sorted(commands) == sorted(SUBCOMMANDS)
        flags = {key.flag for key in FLAG_KEYS} | {
            option for sub in commands.values() for action in sub._actions
            for option in action.option_strings if option.startswith("--")} - {"--help"}
        missing = [name for name in [*commands, *sorted(flags)]
                   if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", section)]
        assert not missing

    def test_removed_exact_refilter_flag_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "run"))
        assert cli_main(["simulate", path, "--exact-refilter"]) == 1
        assert "--exact-refilter" in capsys.readouterr().err

    def test_missing_config_argument(self, capsys):
        assert cli_main(["simulate"]) == 1
        assert "required" in capsys.readouterr().err

    def test_check_lemmas_exit_zero(self, capsys):
        assert cli_main(["check-lemmas", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "elliptic_potential: 5/5 ok" in out
        assert "forgetting: 5/5 ok" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_check_lemmas_without_trials_is_usage_error(self, capsys, trials):
        assert cli_main(["check-lemmas", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert captured.out == ""

    def test_check_lemmas_negative_seed_is_usage_error(self, capsys):
        assert cli_main(["check-lemmas", "--trials", "5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""

    def test_fit_rate_on_synthetic_sqrt_data(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        lines = ["policy,T,seed,R_T"]
        for T in (128, 256, 512, 1024):
            for seed in range(10):
                lines.append(f"demo,{T},{seed},{2.0 * T ** 0.5!r}")
        (results / "summary.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["fit-rate", str(results)]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["demo"]["slope"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("text, line", [
        ("name,T,seed,R_T\ndemo,128,0,1.0\n", 1),
        ("policy,T,seed,R_T\n\ndemo,128,0,1.0\ndemo,abc,1,1.0\n", 4),
        ("policy,T,seed,R_T\ndemo,128\n", 2),
    ], ids=["no-policy-column", "T-not-an-integer", "row-short-of-R_T"])
    def test_fit_rate_on_malformed_summary_exit_2(self, tmp_path, capsys, text, line):
        summary = tmp_path / "run" / "summary.csv"
        summary.parent.mkdir()
        summary.write_text(text)
        assert cli_main(["fit-rate", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: {summary}, line {line}: " in captured.err
        assert captured.out == ""

    def test_fit_rate_empty_out_exit_2(self, tmp_path, monkeypatch, capsys):
        # an empty --out is a configuration error, not a silently skipped write
        monkeypatch.chdir(tmp_path)
        (tmp_path / "summary.csv").write_text("policy,T,seed,R_T\ndemo,128,0,1.0\n")
        assert cli_main(["fit-rate", str(tmp_path), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert "configuration error: --out must name an output directory" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["summary.csv"]
        assert cli_main(["fit-rate", str(tmp_path), "--out", "fit"]) == 0
        # written through a temporary file and a rename, which leaves no temporary behind
        assert os.listdir(tmp_path / "fit") == ["rate_fit.json"]

    def test_print_config_schema(self, capsys):
        assert cli_main(["print-config-schema"]) == 0
        out = capsys.readouterr().out
        for key in ("[hmm]", "pi =", "M =", "E =", "[policy]", "lambda",
                    "bonus_scope", "refit_every", "[run]", "horizons"):
            assert key in out

    def test_estimate_subcommand(self, tmp_path, capsys):
        out = tmp_path / "est"
        text = MINIMAL.format(out=str(out)).replace(
            "horizons = 32 64", "horizons = 500 2000"
        ).replace("seeds = 2", "seeds = 1")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert cli_main(["estimate", str(path)]) == 0
        curves = (out / "estimation_curves.csv").read_text().splitlines()
        assert curves[0] == "t,frobenius_M_err,frobenius_E_err,median_l1_belief_gap"
        assert len(curves) == 3

    def test_estimate_too_short_horizon_exit_2(self, tmp_path, capsys):
        out = tmp_path / "est"
        text = MINIMAL.format(out=str(out)).replace("horizons = 32 64", "horizons = 2 64")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert cli_main(["estimate", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"configuration error: 'horizons' in \[run\]", err)
        assert not out.exists()

    def test_estimate_more_states_than_contexts_exit_2(self, tmp_path, capsys):
        out = tmp_path / "est"
        path = write_config(tmp_path, MINIMAL.replace(TWO_STATES, THREE_STATES), out=str(out))
        assert cli_main(["estimate", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"configuration error: 'H' in \[hmm\] must be <= X", err)
        assert not out.exists()

    def test_console_script_entry_point(self, tmp_path):
        # the child imports the package from this checkout's src/
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "hmmbandits", "print-config-schema"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert "[hmm]" in result.stdout


class TestAtomicity:
    @staticmethod
    def _explode_on_third(monkeypatch):
        import hmmbandits.runner as runner
        from hmmbandits.errors import DiagonalizationFailed

        original = runner.play_arm
        calls = {"n": 0}

        def explode_on_third(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise DiagonalizationFailed("injected failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "play_arm", explode_on_third)

    def test_failure_preserves_completed_cells_and_marker(self, tmp_path, monkeypatch):
        self._explode_on_third(monkeypatch)
        out = tmp_path / "boom"
        path = write_config(tmp_path, out=str(out))
        assert cli_main(["simulate", path]) == 3
        assert (out / "FAILED").exists()
        assert "DiagonalizationFailed" in (out / "FAILED").read_text()
        # the third arm is the first of the second (T, seed) group: the two
        # cells of the completed group were preserved, each fully written
        csvs = sorted(p for p in out.iterdir() if p.suffix == ".csv"
                      and p.name != "summary.csv")
        assert len(csvs) == 2
        for p in csvs:
            lines = p.read_text().strip().splitlines()
            assert len(lines) == 1 + int(p.name.split("_T")[1].split("_")[0])
        assert not (out / "summary.csv").exists()

    def test_success_after_failure_clears_marker(self, tmp_path, monkeypatch):
        out = tmp_path / "rerun"
        path = write_config(tmp_path, out=str(out))
        with monkeypatch.context() as patch:
            self._explode_on_third(patch)
            assert cli_main(["simulate", path]) == 3
        assert (out / "FAILED").exists()
        assert cli_main(["simulate", path]) == 0
        assert not (out / "FAILED").exists()
        assert (out / "summary.csv").exists() and (out / "manifest.json").exists()

    def test_failure_after_success_clears_whole_run_files(self, tmp_path, monkeypatch):
        out = tmp_path / "rerun"
        path = write_config(tmp_path, out=str(out))
        assert cli_main(["simulate", path]) == 0
        assert (out / "summary.csv").exists() and (out / "manifest.json").exists()
        self._explode_on_third(monkeypatch)
        assert cli_main(["simulate", path]) == 3
        assert (out / "FAILED").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_rerun_removes_stale_cell_files(self, tmp_path):
        # a re-run into the same directory keeps no cell file it does not write
        out = tmp_path / "rerun"
        text = MINIMAL.replace("policy = oracle random", "policy = boxB random")
        path = write_config(tmp_path, text, out=str(out))
        assert cli_main(["simulate", path]) == 0
        assert (out / "boxB_T64_s1.estimate.txt").exists()
        keep = ["boxB_T64_s1.csv.bak", "notes.txt", "boxC_T64_s1.csv", "random_T64.csv"]
        for name in keep:
            (out / name).write_text("not a cell file of this package\n")
        # oracle beliefs write no estimate; one horizon drops the T = 64 cells
        path = write_config(tmp_path, text.replace("policy = boxB random",
                                                   "policy = boxB random\nbeliefs = oracle")
                            .replace("horizons = 32 64", "horizons = 32"), out=str(out))
        assert cli_main(["simulate", path]) == 0
        cells = [f"{policy}_T32_s{seed}.csv" for policy in ("boxB", "random") for seed in (0, 1)]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            cells + keep + ["config_snapshot.ini", "manifest.json", "summary.csv"])

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import errno

        import hmmbandits.runner as runner

        class FullDisk:
            """A text file whose writes fail as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(runner, "open", FullDisk, raising=False)
        out = tmp_path / "full"
        path = write_config(tmp_path, out=str(out))
        with pytest.raises(OSError, match="No space left"):
            cli_main(["simulate", path])
        # the first write (config_snapshot.ini) failed and left no temp file
        assert os.listdir(out) == []

    def test_nonstationary_start_warns_for_spectral_runs(self, tmp_path, capsys):
        out = tmp_path / "warn"
        text = MINIMAL.format(out=str(out)).replace(
            "pi = 0.5 0.5", "pi = 0.9 0.1"
        ).replace("policy = oracle random", "policy = boxB"
        ).replace("horizons = 32 64", "horizons = 16").replace("seeds = 2", "seeds = 1")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert cli_main(["simulate", str(path)]) == 0
        assert "not stationary" in capsys.readouterr().out

    def test_emit_oracle_columns_csv_schema(self, tmp_path):
        out = tmp_path / "oc"
        text = MINIMAL.format(out=str(out)).replace(
            "policy = oracle random", "policy = boxB"
        ).replace("horizons = 32 64", "horizons = 40").replace("seeds = 2", "seeds = 1")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert cli_main(["simulate", str(path), "--emit-oracle-columns"]) == 0
        body = (out / "boxB_T40_s0.csv").read_text().strip().splitlines()
        assert body[0] == "t,x,a,r,regret_inc,h,b1,b2,b1_hat,b2_hat"
        row = body[1].split(",")
        assert len(row) == 10
        assert float(row[6]) + float(row[7]) == pytest.approx(1.0)
        assert float(row[8]) + float(row[9]) == pytest.approx(1.0)  # the learner's belief
        # the learner-side estimate is serialized as a flat decimal block
        est_text = (out / "boxB_T40_s0.estimate.txt").read_text()
        est = estimate_from_text(est_text)
        assert est.transition_hat.shape == (2, 2)

    def test_summary_matches_per_round_csv(self, tmp_path):
        out = tmp_path / "xcheck"
        path = write_config(tmp_path, out=str(out))
        assert cli_main(["simulate", path]) == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        header = summary[0].split(",")
        for line in summary[1:]:
            row = dict(zip(header, line.split(",")))
            csv_name = f"{row['policy']}_T{row['T']}_s{row['seed']}.csv"
            body = (out / csv_name).read_text().strip().splitlines()[1:]
            total = 0.0  # left to right, as the cell sums its increments
            for ln in body:
                total += float(ln.split(",")[4])
            assert total == float(row["R_T"])


class TestRunModes:
    def test_plugin_gamma_updates_bonus_input(self, tmp_path):
        from dataclasses import replace

        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        cfg = apply_overrides(cfg, plugin_gamma=True, master_seed=31)
        cfg = replace(cfg, policy=replace(cfg.policy, policies=("boxA",)))
        # run a cell long enough for at least one estimator refresh, then
        # confirm the policy's gamma was swapped away from the true-M value
        result = simulate_cell(cfg, "boxA", 300, 0)
        assert result.regret_total >= 0.0
        baseline_gamma = cfg.plan("boxA", 300).gamma
        # re-run while keeping a handle on the policy object
        import hmmbandits.runner as runner

        captured = {}
        original = runner._build_policy

        def capture(plan):
            captured["policy"] = original(plan)
            return captured["policy"]

        runner._build_policy = capture
        try:
            simulate_cell(cfg, "boxA", 300, 0)
        finally:
            runner._build_policy = original
        assert captured["policy"].plan.gamma != baseline_gamma
        assert 0.0 <= captured["policy"].plan.gamma < 1.0

    def test_plugin_gamma_caps_degenerate_estimates(self):
        from hmmbandits.runner import GAMMA_CAP, _plugin_gamma

        assert _plugin_gamma(np.array([[1.0, 0.0], [0.3, 0.7]])) == GAMMA_CAP
        assert _plugin_gamma(np.zeros((2, 2))) == GAMMA_CAP


class TestTranscriptReplay:
    def test_actions_are_functions_of_observables(self, tmp_path):
        """Replaying recorded contexts and rewards through fresh learner
        components reproduces the action sequence exactly."""
        from hmmbandits.beliefs import refit_schedule, scheduled_beliefs
        from hmmbandits.runner import learner_seed_sequence, _build_policy

        cfg = parse_config(MINIMAL.format(out=str(tmp_path)))
        cfg = apply_overrides(cfg, master_seed=21)
        from dataclasses import replace

        cfg = replace(cfg, policy=replace(cfg.policy, policies=("boxB",)))
        horizon = 300
        tape, (result,) = simulate_group(cfg, horizon, 0, ["boxB"])
        contexts = tape["contexts"].tolist()
        actions = result.actions.tolist()
        rewards = result.rewards.tolist()

        _, estimator_ss = learner_seed_sequence(21, "boxB", horizon, 0).spawn(2)
        plan = cfg.plan("boxB", horizon)
        policy = _build_policy(plan)
        schedule, *_ = refit_schedule(
            contexts, 2, 2, plan.refit_every,
            seed=int(estimator_ss.generate_state(1)[0]),
        )
        beliefs = scheduled_beliefs(schedule, contexts, 2)
        table = cfg.phi.table
        feats = np.array([[np.kron(b_hat, row) for row in table[:, x]]
                          for x, b_hat in zip(contexts, beliefs)])
        # whichever action a round picks earns the recorded reward
        recorded = np.repeat(np.array(rewards)[:, None], len(table), axis=1)
        replayed = policy.play(1, feats, recorded).tolist()
        assert replayed == actions
