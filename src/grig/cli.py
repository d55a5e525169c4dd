"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners plus a direct
analytics query.  Every run writes a ``manifest.json`` into the output
directory with the fully resolved config, the seed, the tool version,
and the list of produced files, so any artifact can be regenerated from
its manifest alone.

Exit codes: 0 success, 1 runtime failure (a manifest describing the
partial outputs is still written), 2 config error (diagnostic on stderr,
nothing written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__, analytics, kernels
from .config import load_config
from .errors import ConfigError, GrigError
from .experiments import (
    build_profile,
    export_visualization,
    run_connection_check,
    run_degree_experiment,
    run_joint_groups_check,
    run_phase_sweep,
    run_sample,
)
from .kernels import kernel_to_json, profile_to_csv
from .serialize import json_sanitize, write_json

_QUANTITIES = (
    "kernel-norm",
    "profile",
    "expected-degree",
    "connection-probability",
    "degree-bounds",
    "offspring-mean",
    "isolated-bound",
)

# config values each analytics quantity needs; connection-probability
# also needs --t
_QUANTITY_NEEDS = {
    "expected-degree": ("lambda", "mu"),
    "connection-probability": ("mu",),
    "degree-bounds": ("lambda", "mu"),
    "offspring-mean": ("lambda", "mu"),
    "isolated-bound": ("mu",),
}

_SUBCOMMAND_KIND = {
    "sample": "sample",
    "degrees": "degrees",
    "phase": "phase",
    "visualize": "visualize",
    "validate": None,  # the config's own kind picks the check
    "analytics": "analytics",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grig",
        description="Random intersection graphs from spatial kernels: sampling, "
        "sweeps, and analytic cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, helptext):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument(
            "--out",
            default=None,
            help="output directory (default: $GRIG_OUT, then ./grig-out)",
        )
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument(
            "--replicates", type=int, default=None, help="override the replicate count"
        )
        sp.add_argument(
            "--threads", type=int, default=None, help="override the worker count"
        )
        return sp

    add("sample", "sample the vertex and group clouds and write them out")
    add("degrees", "degree histogram experiment with the analytic mean")
    add("phase", "largest-component sweep over an intensity grid")
    add("validate", "planted-pair statistical checks (joint_groups or connection config)")
    add("visualize", "export an SVG scene of one sampled graph (d = 2)")
    ap = add("analytics", "evaluate one analytic quantity for the configured model")
    ap.add_argument("--quantity", required=True, choices=_QUANTITIES)
    ap.add_argument(
        "--t", type=float, default=None, help="pair distance for connection-probability"
    )
    return parser


def _apply_overrides(config, args):
    t = getattr(args, "t", None)
    if t is not None and not 0.0 <= t < float("inf"):  # also refuses NaN
        raise ConfigError(f"--t must be a finite distance >= 0, got {t}")
    quantity = getattr(args, "quantity", None)
    if t is None and quantity == "connection-probability":
        raise ConfigError("connection-probability needs --t")
    needs = _QUANTITY_NEEDS.get(quantity, ())
    missing = [f for f in needs if getattr(config, "lam" if f == "lambda" else f) is None]
    if missing:
        raise ConfigError(f"{quantity} needs config value(s): {missing}")
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        updates["seed"] = args.seed
    if args.replicates is not None:
        if args.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {args.replicates}")
        updates["replicates"] = args.replicates
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        updates["threads"] = args.threads
    return dataclasses.replace(config, **updates) if updates else config


def _write_manifest(out_dir, subcommand, config, status, error=None) -> None:
    outputs = []
    if os.path.isdir(out_dir):
        outputs = sorted(name for name in os.listdir(out_dir) if name != "manifest.json")
    payload = {
        "version": __version__,
        "subcommand": subcommand,
        "status": status,
        "error": error,
        "config": config.describe(),
        "outputs": outputs,
    }
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def _params(config, **extra) -> dict:
    params = {
        "kernel": kernel_to_json(config.kernel),
        "torus": {"d": config.torus.d, "side": config.torus.side},
        "lambda": config.lam,
        "mu": config.mu,
    }
    params.update(extra)
    return params


def _run_analytics(config, quantity, t, out_dir) -> dict:
    spec = config.kernel
    if quantity == "kernel-norm":
        record = analytics.analytics_record(
            "kernel_norm", _params(config), kernels.kernel_norm(spec)
        )
    else:
        profile = build_profile(config)
        if quantity == "profile":
            path = os.path.join(out_dir, "profile.csv")
            profile_to_csv(profile, path)
            record = analytics.analytics_record(
                "profile",
                _params(config),
                profile.f0,
                kind=profile.kind,
                support=profile.support,
                max_abs_error=profile.max_abs_error,
                refinement_level=profile.refinement_level,
            )
        elif quantity == "expected-degree":
            record = analytics.analytics_record(
                "expected_degree",
                _params(config),
                analytics.expected_degree(profile, config.lam, config.mu),
            )
        elif quantity == "connection-probability":
            record = analytics.analytics_record(
                "connection_probability",
                _params(config, t=t),
                analytics.connection_probability(profile, config.mu, t),
            )
        elif quantity == "degree-bounds":
            bounds = analytics.degree_bounds(profile, config.lam, config.mu)
            record = analytics.analytics_record(
                "degree_bounds",
                _params(config),
                bounds.upper_simple,
                bracket_low=bounds.bracket_low,
                bracket_high=bounds.bracket_high,
            )
        elif quantity == "offspring-mean":
            mean = analytics.offspring_mean(config.lam, config.mu, kernels.kernel_norm(spec))
            record = analytics.analytics_record(
                "offspring_mean",
                _params(config),
                mean.value,
                subcritical=mean.subcritical,
            )
        elif quantity == "isolated-bound":
            record = analytics.analytics_record(
                "isolated_bound",
                _params(config),
                analytics.isolated_probability_bound(config.mu, kernels.kernel_norm(spec)),
            )
        else:  # pragma: no cover - argparse restricts the choices
            raise ConfigError(f"unknown quantity {quantity!r}")
    write_json(os.path.join(out_dir, "analytics.json"), record)
    return record


def _dispatch(args, config, out_dir) -> dict:
    name = args.subcommand
    if name == "sample":
        return run_sample(config, out_dir)
    if name == "degrees":
        result = run_degree_experiment(config, out_dir)
        return {
            "empirical_mean": result.empirical_mean,
            "theoretical_mean": result.theoretical_mean,
            "node_total": result.node_total,
        }
    if name == "phase":
        grid = run_phase_sweep(config, out_dir)
        return {
            "cells": int(grid.mean_v.size),
            "replicates": grid.replicates,
            "failures": len(grid.failures),
        }
    if name == "validate":
        if config.kind == "joint_groups":
            report = run_joint_groups_check(config, out_dir)
        else:
            report = run_connection_check(config, out_dir)
        return {"kind": config.kind, "all_passed": report["all_passed"]}
    if name == "visualize":
        return export_visualization(config, out_dir)
    if name == "analytics":
        return _run_analytics(config, args.quantity, args.t, out_dir)
    raise ConfigError(f"unknown subcommand {name!r}")  # pragma: no cover


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, kind=_SUBCOMMAND_KIND[args.subcommand])
        config = _apply_overrides(config, args)
        if args.subcommand == "validate" and config.kind not in ("joint_groups", "connection"):
            raise ConfigError(
                f'validate needs a config with "kind": "joint_groups" or "connection", '
                f"got {config.kind!r}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get("GRIG_OUT") or "grig-out"
    os.makedirs(out_dir, exist_ok=True)
    try:
        summary = _dispatch(args, config, out_dir)
    except GrigError as exc:
        _write_manifest(out_dir, args.subcommand, config, "partial", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected failure: still leave a manifest behind
        _write_manifest(out_dir, args.subcommand, config, "failed", f"{type(exc).__name__}: {exc}")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out_dir, args.subcommand, config, "ok")
    print(json.dumps(json_sanitize(summary), sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
