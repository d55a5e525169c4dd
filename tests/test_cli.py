import json
import math
import os
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from grig import __version__, analytics, experiments
from grig.cli import main
from grig.config import KINDS, config_from_dict, default_sweep_values, load_config, resolve_torus
from grig.errors import ConfigError
from grig.experiments import build_profile
from grig.serialize import json_sanitize

SRC = os.path.dirname(os.path.dirname(analytics.__file__))  # the tree grig is imported from
GAUSS = {"family": "gaussian", "sigma": 1.0, "norm": 1.0, "d": 2}
BOOL = {"family": "boolean", "r": 1.0, "d": 2}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _degrees_cfg(tmp_path, **extra):
    payload = {
        "kind": "degrees",
        "kernel": GAUSS,
        "torus": {"d": 2, "measure": "side", "value": 12.0},
        "lambda": 1.0,
        "mu": 1.0,
        "replicates": 2,
        "seed": 11,
        "threads": 1,
    }
    payload.update(extra)
    return _write(tmp_path, "cfg.json", payload)


# ---------------------------------------------------------------------------
# config layer


def test_config_defaults():
    cfg = config_from_dict({"kind": "degrees", "kernel": GAUSS})
    assert cfg.torus.d == 2
    assert cfg.torus.side == pytest.approx(math.sqrt(1000.0))
    assert cfg.replicates == 10
    assert cfg.seed == 0
    assert cfg.mode == "auto"
    assert cfg.eps_tail == 1e-3
    assert cfg.confidence == 0.99


def test_config_phase_default_grids():
    cfg = config_from_dict({"kind": "phase", "kernel": GAUSS})
    assert cfg.lambda_values == default_sweep_values()
    assert len(cfg.lambda_values) == 16
    assert cfg.lambda_values[0] == pytest.approx(0.25)
    assert cfg.lambda_values[-1] == pytest.approx(4.0)
    assert cfg.mu_values == cfg.lambda_values


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"kind": "degrees", "kernel": GAUSS, "lambda_": 1.0})
    with pytest.raises(ConfigError, match="unknown profile keys"):
        config_from_dict({"kind": "degrees", "kernel": GAUSS, "profile": {"tolx": 1}})
    with pytest.raises(ConfigError, match="unknown torus keys"):
        resolve_torus({"d": 2, "value": 4.0, "shape": "square"})


def test_config_dimension_mismatch():
    with pytest.raises(ConfigError, match="does not match"):
        config_from_dict(
            {"kind": "degrees", "kernel": GAUSS, "torus": {"d": 3, "value": 1000.0}}
        )


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
VALID_CONFIGS = [
    {"kind": "degrees", "kernel": GAUSS, "lambda": 1.0, "mu": 1.0, "replicates": 2, "seed": 3},
    {
        "kind": "phase",
        "kernel": {"family": "powerlaw", "alpha": 4.5, "norm": 1.0, "d": 2},
        "torus": {"d": 2, "measure": "side", "value": 12.0},
        "lambda_values": [0.5, 1.0],
        "mode": "truncated",
        "eps_tail": 1e-3,
        "threads": 1,
    },
    {
        "kind": "analytics",
        "kernel": {"family": "tabulated", "radii": [0.5, 1.0], "values": [0.9, 0.1], "d": 2},
        "probe_distances": [0.0, 1.0],
        "confidence": 0.99,
        "dispersion_alpha": 0.01,
        "profile": {"n_radii": 64, "max_refinements": 2, "t_max": 4.0, "tol": 1e-6},
    },
    {"kind": "connection", "kernel": BOOL, "mu": 1.5, "profile": {"method": "tabulated"}},
    # small enough for every sampling run
    {
        "kind": "visualize",
        "kernel": {"family": "tabulated", "radii": [0.5, 1.0], "values": [0.9, 0.1], "d": 2},
        "torus": {"d": 2, "measure": "side", "value": 5.0},
        "lambda": 1.0,
        "mu": 1.0,
        "lambda_values": [0.5, 1.0],
        "mu_values": [1.0, 2.0],
        "replicates": 3,
        "seed": 5,
        "mode": "truncated",
        "eps_tail": 0.0,
    },
]
# fractional, out-of-range, huge and beyond-float-range values
EDGE_VALUES = st.sampled_from([True, 2.7, -1, 0, 400, 10**6, 10**400, math.inf, math.nan])
# key paths whose values the fuzz replaces
CONFIG_PATHS = (
    [(key,) for key in sorted(set().union(*VALID_CONFIGS)) + ["torus", "mu_values"]]
    + [
        ("kernel", key)
        for key in ("family", "d", "r", "sigma", "alpha", "norm", "amplitude", "radii", "values", "params")
    ]
    + [("torus", key) for key in ("d", "measure", "value")]
    + [("profile", key) for key in ("n_radii", "base_nodes", "max_refinements", "t_max", "tol", "method")]
)


@st.composite
def edited_configs(draw, bases=VALID_CONFIGS, most=3, paths=CONFIG_PATHS):
    """A valid config of `bases` with at most `most` key paths of `paths`
    set to arbitrary JSON values."""
    payload = json.loads(json.dumps(draw(st.sampled_from(bases))))
    edits = draw(st.dictionaries(st.sampled_from(paths), EDGE_VALUES | JSON, max_size=most))
    for path, value in edits.items():
        target = payload
        for key in path[:-1]:
            target = target.setdefault(key, {})
        if isinstance(target, dict):
            target[path[-1]] = value
    return payload


@settings(max_examples=300, deadline=None)
@given(edited_configs() | JSON)
def test_config_from_dict_returns_or_raises_config_error(payload):
    try:
        config = config_from_dict(payload)
    except ConfigError:
        return
    assert config.kind in KINDS
    # every number a returned config holds is finite (integers always are)
    pending = [config.describe()]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, (list, tuple)):
            pending.extend(item)
        elif isinstance(item, float):
            assert math.isfinite(item), config.describe()


@settings(max_examples=100, deadline=None)
@given(edited_configs())
def test_described_config_reloads_to_itself(payload):
    # a manifest's config record is a config file: it reads back to a
    # config that describes to the same JSON
    try:
        config = config_from_dict(payload)
    except ConfigError:
        return
    described = json.dumps(json_sanitize(config.describe()), sort_keys=True, allow_nan=False)
    again = config_from_dict(json.loads(described))
    assert json.dumps(json_sanitize(again.describe()), sort_keys=True) == described


def test_config_torus_side_measure():
    torus = resolve_torus({"d": 3, "measure": "side", "value": 4.0})
    assert torus.side == 4.0
    assert resolve_torus({"d": 2, "measure": "area", "value": 49.0}).side == pytest.approx(7.0)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# exit codes


def test_cli_degrees_ok(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["degrees", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # concavity of 1 - exp(-f) keeps the mean under lambda*mu*||g||^2 = 1
    assert 0.9 < summary["theoretical_mean"] < 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == __version__
    assert manifest["subcommand"] == "degrees"
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["config"]["seed"] == 11
    assert manifest["outputs"] == ["histogram.csv", "report.json"]


def test_cli_reruns_from_its_manifest_config(tmp_path):
    # the manifest's config record alone regenerates every artifact, the
    # manifest included, byte for byte
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["degrees", "--config", _degrees_cfg(tmp_path), "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert main(["degrees", "--config", _write(tmp_path, "again.json", config), "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and "manifest.json" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_cli_config_error_writes_nothing(tmp_path, capsys):
    torus = {"d": 2, "measure": "side", "value": 12.0}
    bad_configs = [
        {"kind": "degrees", "kernel": GAUSS, "typo": 1},
        {"kind": "degrees", "kernel": dict(BOOL, r=None), "torus": torus},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, value="abc")},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"n_radii": "x"}},
        {"kind": "degrees", "kernel": dict(GAUSS, d=2.7), "torus": torus},
        {"kind": "degrees", "kernel": dict(GAUSS, d=True), "torus": dict(torus, d=True)},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, d=2.9)},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "replicates": True},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "seed": False},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "threads": True},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"base_nodes": True}},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"max_refinements": False}},
        # non-finite numbers (Python's json reads NaN and Infinity)
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "lambda": math.nan},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "mu": -math.inf},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "lambda_values": [math.nan, 1.0]},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "mu_values": [math.inf]},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, value=math.inf)},
        {"kind": "degrees", "kernel": GAUSS, "torus": {"d": 2, "measure": "area", "value": math.inf}},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "eps_tail": math.nan},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "probe_distances": [math.inf]},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "confidence": math.nan},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"t_max": math.inf}},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"tol": math.nan}},
        {"kind": "degrees", "kernel": dict(BOOL, r=math.inf), "torus": torus},
        {"kind": "degrees", "kernel": dict(GAUSS, sigma=math.nan), "torus": torus},
        {"kind": "degrees", "kernel": dict(GAUSS, norm=math.inf), "torus": torus},
        {"kind": "degrees", "kernel": {"family": "powerlaw", "alpha": math.inf, "d": 2}, "torus": torus},
        {
            "kind": "degrees",
            "kernel": {"family": "tabulated", "radii": [0.5, math.inf], "values": [0.9, 0.1], "d": 2},
            "torus": torus,
        },
        {
            "kind": "degrees",
            "kernel": {"family": "tabulated", "radii": [0.5, 1.0], "values": [math.nan, 0.1], "d": 2},
            "torus": torus,
        },
        # kernel parameters the family does not have, or given twice
        {"kind": "degrees", "kernel": {"family": "gaussian", "sigma": 1.0, "amplitud": 0.5, "d": 2}, "torus": torus},
        {"kind": "degrees", "kernel": dict(BOOL, radius=3.0), "torus": torus},
        {"kind": "degrees", "kernel": dict(GAUSS, amplitude=0.5), "torus": torus},
        {"kind": "degrees", "kernel": dict(GAUSS, params={"sigma": 2.0}), "torus": torus},
        {"kind": "degrees", "kernel": dict(BOOL, r=True), "torus": torus},
        # JSON booleans are not numbers, wherever a number is expected
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "lambda": True},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "mu": True},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "eps_tail": False},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "lambda_values": [1.0, True]},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "probe_distances": [True]},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, value=True)},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"tol": True}},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"t_max": True}},
        # JSON strings are not numbers either
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "lambda": "1.5"},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, value="12")},
        {"kind": "degrees", "kernel": dict(GAUSS, sigma="2"), "torus": torus},
        {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"tol": "1e-6"}},
        {
            "kind": "degrees",
            "kernel": {"family": "tabulated", "radii": ["0.5", "1"], "values": [0.9, 0.1], "d": 2},
            "torus": torus,
        },
        {
            "kind": "degrees",
            "kernel": {"family": "tabulated", "radii": [0.5, 1.0], "values": [True, 0.5], "d": 2},
            "torus": torus,
        },
        # finite inputs whose torus side or volume leaves the float range
        {"kind": "degrees", "kernel": GAUSS, "torus": {"d": 10**400, "measure": "area", "value": 2.0}},
        {"kind": "degrees", "kernel": GAUSS, "torus": dict(torus, value=1e200)},
        # planted-pair checks: the default 10 replicates are too few for the
        # dispersion test, and a probe beyond side/2 is refused before any runs
        {"kind": "joint_groups", "kernel": GAUSS, "torus": torus, "probe_distances": [0.5]},
        {
            "kind": "joint_groups",
            "kernel": GAUSS,
            "torus": dict(torus, value=8.0),
            "replicates": 100,
            "probe_distances": [0.5, 9.0],
        },
    ]
    for k, payload in enumerate(bad_configs):
        bad = _write(tmp_path, f"bad{k}.json", dict({"lambda": 1.0, "mu": 1.0}, **payload))
        out = tmp_path / f"out{k}"
        subcommand = "validate" if payload["kind"] == "joint_groups" else "degrees"
        assert main([subcommand, "--config", bad, "--out", str(out)]) == 2, payload
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()
    # the profile has no base_nodes option, whatever its value
    payload = {"kind": "degrees", "kernel": GAUSS, "torus": torus, "profile": {"base_nodes": 64}}
    bad = _write(tmp_path, "base-nodes.json", dict({"lambda": 1.0, "mu": 1.0}, **payload))
    out = tmp_path / "out-base-nodes"
    assert main(["degrees", "--config", bad, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "base_nodes" in captured.err
    assert captured.out == ""
    assert not out.exists()
    # a pair distance that is not finite or is negative is refused up front
    cfg = _degrees_cfg(tmp_path, kind="analytics")
    for k, t in enumerate(("nan", "-1", "inf")):
        out = tmp_path / f"out-t{k}"
        argv = ["analytics", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--quantity", "connection-probability", "--t", t]) == 2, t
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()
    # so is a replicate override below the joint-groups minimum
    cfg = _write(tmp_path, "jg.json", dict(bad_configs[-1], mu=1.0, probe_distances=[0.5]))
    out = tmp_path / "out-replicates"
    assert main(["validate", "--config", cfg, "--out", str(out), "--replicates", "29"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    # build options are refused up front for every build runner: an eps_tail
    # outside [0, 1), and an explicit truncated build whose radius is infinite
    powerlaw = {"family": "powerlaw", "alpha": 2.0, "norm": 1.0, "d": 2}
    bad_builds = [
        {"kernel": GAUSS, "eps_tail": 1.5},
        {"kernel": GAUSS, "mode": "truncated", "eps_tail": 0},
        {"kernel": powerlaw, "mode": "truncated", "eps_tail": 0.0},
    ]
    base = {"torus": torus, "lambda": 1.0, "mu": 1.0, "replicates": 2}
    for k, payload in enumerate(bad_builds):
        bad = _write(tmp_path, f"bad-build{k}.json", dict(base, **payload))
        for subcommand in ("degrees", "phase"):
            out = tmp_path / f"out-build{k}-{subcommand}"
            assert main([subcommand, "--config", bad, "--out", str(out)]) == 2, (subcommand, payload)
            captured = capsys.readouterr()
            assert "config error" in captured.err
            assert captured.out == ""
            assert not out.exists()
    # a bounded kernel has a finite truncated radius at eps_tail 0
    config = config_from_dict(dict(base, kernel=BOOL, mode="truncated", eps_tail=0), kind="phase")
    assert (config.mode, config.eps_tail) == ("truncated", 0.0)


def test_cli_missing_config_file(tmp_path):
    assert main(["degrees", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path)]) == 2


def test_cli_validate_rejects_other_kinds(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "joint_groups" in capsys.readouterr().err


def test_cli_bad_override_values(tmp_path):
    cfg = _degrees_cfg(tmp_path)
    out = str(tmp_path / "o")
    assert main(["degrees", "--config", cfg, "--out", out, "--seed", "-1"]) == 2
    assert main(["degrees", "--config", cfg, "--out", out, "--replicates", "0"]) == 2
    assert main(["degrees", "--config", cfg, "--out", out, "--threads", "0"]) == 2


TORUS_12 = {"d": 2, "measure": "side", "value": 12.0}
SAMPLED = {"kernel": GAUSS, "torus": TORUS_12, "lambda": 1.0, "mu": 1.0, "replicates": 2}
PLANTED = {"kernel": BOOL, "torus": TORUS_12, "mu": 1.5, "replicates": 50, "probe_distances": [0.5]}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


# configs that load, but that the subcommand's run cannot use
UNSERVABLE = [
    *(
        pytest.param(sub, _without(dict(SAMPLED, kind=sub), key), id=f"{sub}-no-{key}")
        for sub in ("sample", "degrees", "visualize")
        for key in ("lambda", "mu")
    ),
    *(
        pytest.param("validate", _without(dict(PLANTED, kind=kind), key), id=f"{kind}-no-{key}")
        for kind in ("joint_groups", "connection")
        for key in ("mu", "probe_distances")
    ),
    pytest.param(
        "visualize",
        dict(SAMPLED, kind="visualize", kernel=dict(GAUSS, d=1), torus=dict(TORUS_12, d=1)),
        id="visualize-d1",
    ),
]


@pytest.mark.parametrize("subcommand, payload", UNSERVABLE)
def test_cli_refuses_configs_the_run_cannot_use(tmp_path, capsys, subcommand, payload):
    cfg = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_module_exit_status_of_a_config_error(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _without(dict(SAMPLED, kind="degrees"), "lambda"))
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "grig.cli", "degrees", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 2, run.stderr
    assert "config error" in run.stderr
    assert not out.exists()


# runs whose expected count of results, or of vertices, groups or
# memberships over all replicates, passes the limit on the default torus of
# area 1000, each refused before anything is drawn
OVERSIZED = [
    pytest.param("degrees", {"kind": "degrees", "lambda": 1e12, "mu": 1.0}, id="vertices"),
    pytest.param("sample", {"kind": "sample", "lambda": 1.0, "mu": 1e12}, id="groups"),
    pytest.param("visualize", {"kind": "visualize", "lambda": 1e3, "mu": 1e3}, id="memberships"),
    pytest.param(
        "phase", {"kind": "phase", "lambda_values": [1.0, 1e12], "mu_values": [1.0]}, id="grid-max"
    ),
    pytest.param(
        "validate",
        {"kind": "connection", "mu": 1e9, "replicates": 50, "probe_distances": [0.5]},
        id="planted-groups",
    ),
    pytest.param(
        "validate",
        {"kind": "joint_groups", "mu": 1.0, "replicates": 10**12, "probe_distances": [0.5]},
        id="planted-replicates",
    ),
    pytest.param(
        "degrees", {"kind": "degrees", "lambda": 1.0, "mu": 1.0, "replicates": 10**6}, id="replicate-memberships"
    ),
    pytest.param(
        "phase",
        {"kind": "phase", "lambda_values": [1e-6] * 100, "mu_values": [1e-6] * 100, "replicates": 10**4},
        id="grid-results",
    ),
]


@pytest.mark.parametrize("subcommand, payload", OVERSIZED)
def test_cli_refuses_oversized_runs(tmp_path, capsys, subcommand, payload):
    cfg = _write(tmp_path, "cfg.json", dict(payload, kernel=GAUSS))
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "over the limit" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_analytics_is_never_refused_for_size(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"kind": "analytics", "kernel": GAUSS, "lambda": 1e12, "mu": 1e12})
    out = tmp_path / "out"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", "offspring-mean"]) == 0
    assert json.loads((out / "analytics.json").read_text())["value"] == pytest.approx(1e24)
    capsys.readouterr()


OVERRIDES = st.dictionaries(
    st.sampled_from(["--seed", "--replicates", "--threads"]),
    st.integers(-3, 3) | st.integers(-(10**30), 10**30),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    edited_configs() | JSON,
    st.sampled_from(["kernel-norm", "offspring-mean", "isolated-bound"]),
    OVERRIDES,
)
def test_cli_main_exits_0_or_2_on_fuzzed_configs(payload, quantity, overrides):
    # these quantities build no profile and sample nothing, so every config
    # either runs at once or is refused before the output directory exists
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        argv = ["analytics", "--config", cfg, "--out", out, "--quantity", quantity]
        code = main(argv + [f"{flag}={value}" for flag, value in overrides.items()])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)


BUILD_MODES = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(["auto", "exact", "truncated", "bogus"]),
        "eps_tail": st.sampled_from([0.0, 1e-3, 0.5, 1.0]),
    },
)


@settings(max_examples=150, deadline=None)
@given(
    edited_configs([c for c in VALID_CONFIGS if "lambda" in c], most=1),
    st.sampled_from(["sample", "phase", "visualize"]),
    BUILD_MODES,
)
def test_cli_sampling_runs_on_fuzzed_configs(payload, subcommand, build):
    # every accepted run is tiny under a limit of 2^10 expected points,
    # memberships and cells, and one thread starts no pool.  A refused
    # config writes nothing; a run writes its manifest, ok on exit 0 and
    # partial or failed on exit 1
    payload.update(build, threads=1)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        experiments, "MAX_EXPECTED_COUNT", 1 << 10
    ):
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        code = main([subcommand, "--config", cfg, "--out", out])
        event(f"{subcommand} exit {code}")
        if code == 2:
            assert not os.path.exists(out)
            return
        with open(os.path.join(out, "manifest.json")) as fh:
            status = json.load(fh)["status"]
        assert (code, status) in ((0, "ok"), (1, "partial"), (1, "failed")), (code, status)


SIDE_4 = {"d": 2, "measure": "side", "value": 4.0}
# degrees and validate configs on kernels whose profile is a closed form,
# each small enough for a limit of 2^10 expected points, memberships and
# results
CLOSED_FORM_CONFIGS = {
    "degrees": [
        {"kind": "degrees", "kernel": GAUSS, "torus": SIDE_4, "lambda": 1.0, "mu": 1.0, "replicates": 3, "seed": 3},
        {"kind": "degrees", "kernel": BOOL, "torus": SIDE_4, "lambda": 2.0, "mu": 1.0, "replicates": 2, "seed": 4},
    ],
    "validate": [
        {"kind": "joint_groups", "kernel": GAUSS, "torus": SIDE_4, "mu": 1.5, "probe_distances": [0.0, 1.0],
         "replicates": 30, "seed": 5},
        {"kind": "connection", "kernel": BOOL, "torus": SIDE_4, "mu": 1.5, "probe_distances": [0.5, 1.5],
         "replicates": 30, "seed": 6},
    ],
}
# no edit changes the kernel's family or dimension or the profile, so every
# run keeps its closed-form profile
CLOSED_FORM_PATHS = [
    path
    for path in CONFIG_PATHS
    if path[0] != "profile" and path not in (("kernel",), ("kernel", "family"), ("kernel", "d"), ("kernel", "params"))
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CLOSED_FORM_CONFIGS)).flatmap(
        lambda sub: st.tuples(st.just(sub), edited_configs(CLOSED_FORM_CONFIGS[sub], 2, CLOSED_FORM_PATHS))
    ),
    BUILD_MODES,
)
def test_cli_degrees_and_validate_run_on_fuzzed_configs(case, build):
    # the contract of the sampling fuzz for the two subcommands that build
    # a profile: a refused config writes nothing; a run writes its manifest,
    # ok on exit 0 and partial or failed on exit 1
    subcommand, payload = case
    payload.update(build, threads=1)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        experiments, "MAX_EXPECTED_COUNT", 1 << 10
    ):
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        code = main([subcommand, "--config", cfg, "--out", out])
        event(f"{subcommand} exit {code}")
        if code == 2:
            assert not os.path.exists(out)
            return
        with open(os.path.join(out, "manifest.json")) as fh:
            status = json.load(fh)["status"]
        assert (code, status) in ((0, "ok"), (1, "partial"), (1, "failed")), (code, status)


def test_cli_runtime_failure_partial_manifest(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kind": "degrees",
            "kernel": {"family": "powerlaw", "alpha": 2.5, "amplitude": 0.8, "d": 2},
            "torus": {"d": 2, "measure": "side", "value": 12.0},
            "lambda": 0.5,
            "mu": 0.5,
            "replicates": 2,
            "seed": 2,
            "threads": 1,
            # the panel rule's first level misses tol, and no level follows
            "profile": {"tol": 1e-6, "max_refinements": 0, "n_radii": 256},
        },
    )
    out = tmp_path / "out"
    assert main(["degrees", "--config", cfg, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("ConvergenceError")
    # artifacts from the partial run are still listed
    assert "report.json" in manifest["outputs"]
    assert "histogram.csv" in manifest["outputs"]


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# subcommand behavior


def test_cli_validate_joint_groups(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kind": "joint_groups",
            "kernel": BOOL,
            "torus": {"d": 2, "measure": "side", "value": 12.0},
            "mu": 2.0,
            "replicates": 300,
            "seed": 3,
            "threads": 1,
            "probe_distances": [0.0, 1.0, 3.0],
        },
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["kind"] == "joint_groups"
    report = json.loads((out / "report.json").read_text())
    assert {p["t"] for p in report["probes"]} == {0.0, 1.0, 3.0}


def test_cli_validate_connection(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kind": "connection",
            "kernel": BOOL,
            "torus": {"d": 2, "measure": "side", "value": 12.0},
            "mu": 1.5,
            "replicates": 250,
            "seed": 6,
            "threads": 1,
            "probe_distances": [0.5, 2.5],
        },
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["probes"]) == 2


def test_cli_phase_and_grid_override(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kind": "phase",
            "kernel": BOOL,
            "torus": {"d": 2, "measure": "side", "value": 10.0},
            "lambda_values": [0.5, 1.5],
            "mu_values": [0.5, 1.5],
            "replicates": 5,
            "seed": 5,
            "threads": 1,
        },
    )
    out = tmp_path / "out"
    assert main(["phase", "--config", cfg, "--out", str(out), "--replicates", "2"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"cells": 4, "failures": 0, "replicates": 2}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replicates"] == 2
    rows = (out / "phase.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        for cell in row.split(",")[1:]:
            assert 0.0 <= float(cell) <= 1.0


def test_cli_sample_and_visualize(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path, kind="sample")
    out = tmp_path / "s"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    assert (out / "vertices.csv").exists() and (out / "groups.csv").exists()
    out2 = tmp_path / "v"
    assert main(["visualize", "--config", cfg, "--out", str(out2)]) == 0
    assert (out2 / "scene.svg").exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# analytics subcommand


def test_cli_analytics_matches_library(tmp_path, capsys):
    cfg_path = _degrees_cfg(tmp_path, kind="analytics", **{"lambda": 2.0, "mu": 2.0})
    out = tmp_path / "out"
    code = main(
        ["analytics", "--config", cfg_path, "--out", str(out), "--quantity", "expected-degree"]
    )
    assert code == 0
    record = json.loads((out / "analytics.json").read_text())
    cfg = load_config(cfg_path, kind="analytics")
    expected = analytics.expected_degree(build_profile(cfg), 2.0, 2.0)
    assert record["value"] == pytest.approx(expected, rel=1e-12)
    assert record["quantity"] == "expected_degree"
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["value"] == record["value"]


def test_cli_analytics_kernel_norm_and_profile(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path, kind="analytics")
    out1 = tmp_path / "n"
    assert main(["analytics", "--config", cfg, "--out", str(out1), "--quantity", "kernel-norm"]) == 0
    record = json.loads((out1 / "analytics.json").read_text())
    assert record["value"] == pytest.approx(1.0, rel=1e-12)
    out2 = tmp_path / "p"
    assert main(["analytics", "--config", cfg, "--out", str(out2), "--quantity", "profile"]) == 0
    assert (out2 / "profile.csv").read_text().startswith("radius,f")
    record = json.loads((out2 / "analytics.json").read_text())
    assert record["max_abs_error"] is None and record["refinement_level"] is None  # closed form
    tab = {"family": "tabulated", "radii": [0.5, 1.0], "values": [0.8, 0.2], "d": 2}
    cfg = _degrees_cfg(tmp_path, kind="analytics", kernel=tab, profile={"n_radii": 33, "tol": 1e-3})
    out3 = tmp_path / "q"
    assert main(["analytics", "--config", cfg, "--out", str(out3), "--quantity", "profile"]) == 0
    record = json.loads((out3 / "analytics.json").read_text())
    # the quadrature met tol (else exit 1); the recorded bound adds the
    # interpolation error between the 33 radii
    profile = build_profile(load_config(cfg))
    assert profile.max_abs_error > 1e-3
    assert record["max_abs_error"] == profile.max_abs_error
    assert record["refinement_level"] == 0
    capsys.readouterr()


def test_cli_analytics_readme_powerlaw_at_default_profile(tmp_path, capsys):
    # the README powerlaw kernel with no profile block: 1024 radii to tol 1e-6
    kernel = {"family": "powerlaw", "alpha": 2.0, "norm": 1.0, "d": 2}
    cfg = _degrees_cfg(tmp_path, kind="analytics", kernel=kernel)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", "expected-degree"]) == 0
    assert time.perf_counter() - start < 30.0
    record = json.loads((out / "analytics.json").read_text())
    assert 0.0 < record["value"] <= 1.0  # lambda mu ||g||^2
    capsys.readouterr()


def test_cli_analytics_boolean_d1(tmp_path, capsys):
    # f(t) = max(0, 2 - t) at r = 1, so the expected degree
    # lambda * int (1 - exp(-mu f(t))) dt reads 2 (1 + e^-2) at lambda = mu = 1
    kernel = {"family": "boolean", "r": 1.0, "d": 1}
    torus = {"d": 1, "measure": "side", "value": 100.0}
    cfg = _degrees_cfg(tmp_path, kind="analytics", kernel=kernel, torus=torus)
    out = tmp_path / "degree"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", "expected-degree"]) == 0
    record = json.loads((out / "analytics.json").read_text())
    assert record["value"] == pytest.approx(2.0 * (1.0 + math.exp(-2.0)), rel=1e-9)
    out = tmp_path / "profile"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", "profile"]) == 0
    assert json.loads((out / "analytics.json").read_text())["refinement_level"] == 0
    capsys.readouterr()


def test_cli_analytics_connection_probability_needs_t(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path, kind="analytics")
    out = tmp_path / "out"
    code = main(
        ["analytics", "--config", cfg, "--out", str(out), "--quantity", "connection-probability"]
    )
    assert code == 2  # config error: refused before anything is written
    assert not out.exists() or not any(out.iterdir())
    assert "needs --t" in capsys.readouterr().err
    code = main(
        [
            "analytics",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "ok"),
            "--quantity",
            "connection-probability",
            "--t",
            "0.5",
        ]
    )
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "quantity, dropped",
    [("expected-degree", "lambda"), ("degree-bounds", "mu"), ("isolated-bound", "mu")],
)
def test_cli_analytics_missing_intensity_writes_nothing(tmp_path, capsys, quantity, dropped):
    payload = json.loads(open(_degrees_cfg(tmp_path, kind="analytics")).read())
    del payload[dropped]
    cfg = _write(tmp_path, "partial.json", payload)
    out = tmp_path / "out"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", quantity]) == 2
    assert not out.exists()
    assert f"needs config value(s): ['{dropped}']" in capsys.readouterr().err


def test_cli_analytics_offspring_and_bounds(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path, kind="analytics", **{"lambda": 0.25, "mu": 1.0})
    out = tmp_path / "o"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", "offspring-mean"]) == 0
    record = json.loads((out / "analytics.json").read_text())
    assert record["value"] == pytest.approx(0.25, rel=1e-12)
    assert record["subcritical"] is True
    cfg_bool = _degrees_cfg(tmp_path, kind="analytics", kernel=BOOL, mu=1.0)
    out2 = tmp_path / "b"
    code = main(["analytics", "--config", cfg_bool, "--out", str(out2), "--quantity", "degree-bounds"])
    assert code == 0
    bounds = json.loads((out2 / "analytics.json").read_text())
    # 1/mu = 1 sits below f(0) = pi, so the bracket is finite and ordered
    assert 0.0 < bounds["bracket_low"] <= bounds["bracket_high"] < math.inf
    assert bounds["bracket_high"] == pytest.approx(1.0 * math.pi * 4.0, rel=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize(
    "quantity, expected",
    [("offspring-mean", 0.5 * 2.0 * 1.0**2), ("isolated-bound", math.exp(-2.0 * 1.0))],
)
def test_cli_analytics_norm_quantities_build_no_profile(
    tmp_path, monkeypatch, capsys, quantity, expected
):
    # both read only ||g||; a powerlaw profile at default settings would take minutes
    def refuse(config):
        raise AssertionError("profile built for a quantity that reads only the norm")

    monkeypatch.setattr("grig.cli.build_profile", refuse)
    plaw = {"family": "powerlaw", "alpha": 2.0, "norm": 1.0, "d": 2}
    cfg = _degrees_cfg(tmp_path, kind="analytics", kernel=plaw, **{"lambda": 0.5, "mu": 2.0})
    out = tmp_path / "o"
    assert main(["analytics", "--config", cfg, "--out", str(out), "--quantity", quantity]) == 0
    record = json.loads((out / "analytics.json").read_text())
    assert record["value"] == pytest.approx(expected, rel=1e-12)
    capsys.readouterr()


def _fresh(statement, *argv):
    """`status` as `statement` sets it in a fresh interpreter, where argv
    is the list of the given arguments, and the scipy and multiprocessing
    modules loaded by then."""
    probe = (
        f"import json, sys; argv = json.loads(sys.argv[1]); {statement}; "
        "heavy = ('scipy', 'multiprocessing'); "
        "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] in heavy)]))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(list(argv))],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(run.stdout.strip().splitlines()[-1])


def _fresh_cli(*argv):
    """Exit status of main(argv) in a fresh interpreter, and the scipy and
    multiprocessing modules loaded by then; with no argv, those of importing
    grig.cli."""
    return _fresh("from grig.cli import main; status = main(argv) if argv else None", *argv)


def test_import_surface_leaves_out_optimize_and_integrate():
    # each CLI process pays for every module grig imports: importing
    # grig.cli loads no scipy module, scipy.optimize and scipy.integrate
    # included, and no multiprocessing module, which only a process pool needs
    assert _fresh_cli() == [None, []]


PLANTED_GAUSS = dict(PLANTED, kernel=GAUSS, seed=5)
PHASE = dict(kind="phase", torus=TORUS_12, replicates=2, lambda_values=[1.0, 2.0], mu_values=[1.0, 2.0])


@pytest.mark.parametrize(
    "subcommand, payload, extra, status",
    [
        pytest.param("analytics", dict(SAMPLED, kind="analytics"), ["--quantity", "profile"], 0, id="profile"),
        pytest.param(
            "analytics", dict(SAMPLED, kind="analytics"), ["--quantity", "expected-degree"], 0,
            id="expected-degree",
        ),
        pytest.param(
            "validate", dict(PLANTED_GAUSS, kind="joint_groups"), ["--replicates", "30"], 0, id="joint_groups"
        ),
        pytest.param(
            "validate", dict(PLANTED_GAUSS, kind="connection"), ["--replicates", "5"], 0, id="connection"
        ),
        pytest.param("sample", dict(SAMPLED, kind="sample"), [], 0, id="sample"),
        pytest.param("degrees", dict(SAMPLED, kind="degrees"), ["--threads", "1"], 0, id="degrees"),
        pytest.param("visualize", dict(SAMPLED, kind="visualize"), [], 0, id="visualize"),
        pytest.param("degrees", _without(dict(SAMPLED, kind="degrees"), "lambda"), [], 2, id="refused"),
        pytest.param(
            "phase", dict(PHASE, kernel=GAUSS, mode="truncated"), ["--threads", "1"], 0, id="phase-gaussian"
        ),
        pytest.param("phase", dict(PHASE, kernel=BOOL), ["--threads", "1"], 0, id="phase-boolean"),
    ],
)
def test_cli_runs_that_build_no_matrix_load_no_scipy(tmp_path, subcommand, payload, extra, status):
    # no CLI run needs scipy.sparse or csgraph: analytics, the planted-pair
    # scans, a sample, a refused config, the projections of degrees and
    # visualize (in numpy) and a phase sweep, whose cells take their
    # components from an incremental union in numpy.  The boolean sweep's
    # master builds (288 x 288 points) split on their grid of cells, so no
    # build loads a KD-tree from scipy.spatial either.  None of these runs
    # starts a process pool: degrees and the phase sweeps on one thread
    # keep their builds in the probed process
    cfg = _write(tmp_path, "cfg.json", payload)
    assert _fresh_cli(subcommand, "--config", cfg, "--out", str(tmp_path / "o"), *extra) == [status, []]


def test_probe_sees_a_csgraph_load():
    # positive control: the probe lists a scipy module where one loads
    status, modules = _fresh("import scipy.sparse.csgraph; status = 0")
    assert status == 0
    assert "scipy.sparse.csgraph" in modules


def test_component_searches_load_no_scipy():
    # the one-shot component searches merge their edges in numpy
    # (union_edges), as a phase sweep's cells do
    statement = (
        "import numpy as np, grig; "
        "bi = grig.BipartiteGraph(3, 1, np.array([0, 1, 2, 2]), np.array([0, 0])); "
        "gv = grig.project_onto_vertices(bi); "
        "status = [grig.components(gv).n_components, grig.largest_component_fraction(gv), "
        "grig.bipartite_components(bi).n_components]"
    )
    assert _fresh(statement) == [[2, 2 / 3, 2], []]


# ---------------------------------------------------------------------------
# output directory resolution and determinism


def test_cli_out_dir_from_env(tmp_path, monkeypatch, capsys):
    cfg = _degrees_cfg(tmp_path, kind="sample")
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("GRIG_OUT", str(env_dir))
    assert main(["sample", "--config", cfg]) == 0
    assert (env_dir / "manifest.json").exists()
    capsys.readouterr()


def test_cli_out_dir_default(tmp_path, monkeypatch, capsys):
    cfg = _degrees_cfg(tmp_path, kind="sample")
    monkeypatch.delenv("GRIG_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--config", cfg]) == 0
    assert (tmp_path / "grig-out" / "manifest.json").exists()
    capsys.readouterr()


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    cfg = _degrees_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["degrees", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["degrees", "--config", cfg, "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    capsys.readouterr()


def test_cli_phase_byte_identical_across_threads(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kind": "phase",
            "kernel": BOOL,
            "torus": {"d": 2, "measure": "side", "value": 8.0},
            "lambda_values": [0.5, 1.5],
            "mu_values": [1.0],
            "replicates": 2,
            "seed": 4,
        },
    )
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out in zip(("1", "2"), outs):
        assert main(["phase", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "manifest.json" in names
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    capsys.readouterr()
