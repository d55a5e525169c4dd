import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grig import __version__, analytics
from grig.cli import main
from grig.config import KINDS, config_from_dict, default_sweep_values, load_config, resolve_torus
from grig.errors import ConfigError
from grig.experiments import build_profile

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
        "profile": {"n_radii": 64, "base_nodes": 8, "max_refinements": 2, "t_max": 4.0, "tol": 1e-6},
    },
    {"kind": "connection", "kernel": BOOL, "mu": 1.5, "profile": {"method": "tabulated"}},
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
def edited_configs(draw):
    """A valid config with a few key paths set to arbitrary JSON values."""
    payload = json.loads(json.dumps(draw(st.sampled_from(VALID_CONFIGS))))
    edits = draw(st.dictionaries(st.sampled_from(CONFIG_PATHS), EDGE_VALUES | JSON, max_size=3))
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
            "profile": {"tol": 1e-6, "max_refinements": 2, "n_radii": 256},
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
    assert record["max_abs_error"] <= 1e-3
    assert record["refinement_level"] in range(2, 7)
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


def test_import_surface_leaves_out_optimize_and_integrate():
    # each CLI process pays for every scipy module grig imports
    probe = (
        "import sys, grig.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.strip() == "[]"


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
