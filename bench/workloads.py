"""The benchmark's two workloads and the checks on their outputs.

A workload is a fixed sequence of ``grig`` CLI invocations built from the
benchmark seed.  Every config sets ``"threads": 1``, so no process pool
starts and every layer runs in the benchmark's own process.

The checks use invariants that hold for any random stream, so a later
change of stream (a new build path, a coupled sweep) does not trip them:
no failed cells, fractions in [0, 1], the gaussian corners of the phase
grid, zero hits beyond twice the boolean radius, analytic values equal to
closed forms or to references frozen at finer quadrature settings, and
5-sigma bands where a check is statistical.  The runners' own 99% verdicts
are recorded but never gated on: at a few thousand replicates a 99%
interval misses now and then by chance.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

TORUS_AREA_1000 = {"d": 2, "measure": "area", "value": 1000.0}
TORUS_SIDE_8 = {"d": 2, "measure": "side", "value": 8.0}
GAUSSIAN = {"family": "gaussian", "sigma": 1.0, "norm": 1.0, "d": 2}
BOOLEAN = {"family": "boolean", "r": 1.0, "d": 2}
PROFILE_KERNELS = {
    "powerlaw": {"family": "powerlaw", "alpha": 2.0, "norm": 1.0, "d": 2},
    "tabulated": {
        "family": "tabulated",
        "radii": [0.5, 1.0, 1.5, 2.0],
        "values": [0.9, 0.6, 0.3, 0.1],
        "d": 2,
    },
}

PHASE_GRID = [0.25, 2.0, 4.0]  # (0, 4] with both corners
PHASE_REPLICATES = 2  # the fewest that give every cell a finite stderr
DEGREE_REPLICATES = 10
PLANTED_REPLICATES = 1000
# Per-kernel n_radii: the tabulated kernel reaches 4e-4 of its reference
# at 64 radii, the powerlaw kernel needs 128 to stay within REFERENCE_RTOL.
PROFILE_SETTINGS = {
    "powerlaw": {"n_radii": 128, "tol": 1e-4, "max_refinements": 4},
    "tabulated": {"n_radii": 64, "tol": 1e-4, "max_refinements": 4},
}

# (lambda, mu) of the expected-degree invocations, picked by seed; the
# quadrature cost does not depend on them, only the expected-degree
# integral does.
INTENSITY_PAIRS = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5)]

# Expected degree per kernel and INTENSITY_PAIRS entry, from profiles
# tabulated at n_radii 512, tol 1e-5, max_refinements 6 (bench/reference.py).
REFERENCES = {
    "powerlaw": [0.9733247550974675, 3.8076233796044074, 1.3971162537006487, 1.4765961763791824],
    "tabulated": [15.045780796510565, 41.26720230190572, 11.866587749804427, 29.31373737913275],
}
REFERENCE_RTOL = 2e-3  # measured gaps: 8e-4 (powerlaw, 128 radii), 4e-4 (tabulated, 64)

Z = 5.0  # width of the statistical bands, in standard errors


@dataclass
class Invocation:
    """One CLI call: ``grig <subcommand> --config <file> --out <dir> [extra]``."""

    name: str
    subcommand: str
    config: dict
    items: int
    check: Callable  # (out_dir) -> (errors, info)
    extra: tuple = ()

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.subcommand, "--config", config_path, "--out", out_dir, *self.extra]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_matrix(path):
    """phase*.csv: header of mu values, then one row per lambda value."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    mus = [float(v) for v in rows[0][1:]]
    lams = [float(r[0]) for r in rows[1:]]
    values = [[float(v) for v in r[1:]] for r in rows[1:]]
    return lams, mus, values


def _gaussian_profile(t, sigma=1.0, norm=1.0):
    """f = g * g of a 2-d gaussian kernel with the given L1 norm."""
    return norm**2 / (4.0 * math.pi * sigma**2) * math.exp(-(t**2) / (4.0 * sigma**2))


def _lens_area(t, r=1.0):
    if t >= 2.0 * r:
        return 0.0
    return 2.0 * r**2 * math.acos(t / (2.0 * r)) - 0.5 * t * math.sqrt(4.0 * r**2 - t**2)


def _ein(x):
    """Ein(x) = integral_0^x (1 - e^-s) / s ds, by its alternating series."""
    total, term, k = 0.0, 1.0, 1
    while True:
        term *= x / k
        step = term / k
        total += step if k % 2 else -step
        if step < 1e-17 * abs(total):
            return total
        k += 1


def _gaussian_expected_degree(lam, mu, sigma=1.0, norm=1.0):
    """lambda * integral over R^2 of 1 - exp(-mu f), f the gaussian profile."""
    return lam * 4.0 * math.pi * sigma**2 * _ein(mu * _gaussian_profile(0.0, sigma, norm))


def _tabulated_norm(kernel):
    """2 pi * integral of g(t) t dt for the piecewise-linear kernel."""
    radii = [0.0] + kernel["radii"] if kernel["radii"][0] > 0 else list(kernel["radii"])
    values = ([kernel["values"][0]] if kernel["radii"][0] > 0 else []) + kernel["values"]
    total = 0.0
    for a, b, ga, gb in zip(radii, radii[1:], values, values[1:]):
        slope = (gb - ga) / (b - a)
        # integral_a^b (ga + slope (t - a)) t dt
        total += (ga - slope * a) * (b**2 - a**2) / 2.0 + slope * (b**3 - a**3) / 3.0
    return 2.0 * math.pi * total


def _kernel_norm(kernel):
    if kernel["family"] == "tabulated":
        return _tabulated_norm(kernel)
    return kernel["norm"]


# ---------------------------------------------------------------------------
# phase-truncated


def _check_phase(gaussian: bool):
    def check(out_dir):
        errors = []
        meta = _read_json(os.path.join(out_dir, "phase_meta.json"))
        if meta["failures"]:
            errors.append(f"{len(meta['failures'])} failed cell-replicates")
        _, _, stderr = _read_matrix(os.path.join(out_dir, "phase_stderr.csv"))
        if not all(0.0 <= v < math.inf for row in stderr for v in row):  # also false for NaN
            errors.append("phase_stderr.csv: negative, infinite or NaN stderr")
        for name in ("phase.csv", "phase_groups.csv"):
            lams, mus, values = _read_matrix(os.path.join(out_dir, name))
            if lams != PHASE_GRID or mus != PHASE_GRID:
                errors.append(f"{name}: grid {lams} x {mus} is not {PHASE_GRID}")
            flat = [v for row in values for v in row]
            if not all(0.0 <= v <= 1.0 for v in flat):  # also false for NaN
                errors.append(f"{name}: fraction outside [0, 1] or NaN")
            if gaussian and name == "phase.csv" and len(flat) == len(PHASE_GRID) ** 2:
                if not values[0][0] < 0.1:
                    errors.append(f"gaussian low corner fraction {values[0][0]} >= 0.1")
                if not values[-1][-1] > 0.5:
                    errors.append(f"gaussian high corner fraction {values[-1][-1]} <= 0.5")
        return errors, {}

    return check


def phase_truncated(seed: int) -> list:
    invocations = []
    for name, kernel in (("gaussian", GAUSSIAN), ("boolean", BOOLEAN)):
        config = {
            "kind": "phase",
            "kernel": kernel,
            "torus": TORUS_AREA_1000,
            "lambda_values": PHASE_GRID,
            "mu_values": PHASE_GRID,
            "replicates": PHASE_REPLICATES,
            "seed": seed,
            "mode": "truncated",
            "threads": 1,
        }
        items = len(PHASE_GRID) ** 2 * PHASE_REPLICATES
        invocations.append(
            Invocation(f"phase-{name}", "phase", config, items, _check_phase(name == "gaussian"))
        )
    return invocations


# ---------------------------------------------------------------------------
# point-checks, part 1: degrees on the README config


def _check_degrees(lam, mu):
    def check(out_dir):
        errors = []
        report = _read_json(os.path.join(out_dir, "report.json"))
        with open(os.path.join(out_dir, "histogram.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        counts = [int(c) for _, c in rows]
        total = sum(counts)
        if report["replicates"] != DEGREE_REPLICATES:
            errors.append(f"report has {report['replicates']} replicates")
        if total != report["node_total"] or total == 0:
            errors.append(f"histogram total {total} != node_total {report['node_total']}")
        else:
            mean = sum(d * c for d, c in enumerate(counts)) / total
            if not math.isclose(mean, report["empirical_mean"], rel_tol=1e-9):
                errors.append(f"histogram mean {mean} != empirical_mean")
        theory = report["theoretical_mean"]
        closed = _gaussian_expected_degree(lam, mu)
        if not (isinstance(theory, float) and math.isclose(theory, closed, rel_tol=1e-4)):
            errors.append(f"theoretical_mean {theory} != closed form {closed}")
        elif not 0.0 < theory <= lam * mu * GAUSSIAN["norm"] ** 2:
            errors.append(f"theoretical_mean {theory} outside (0, lambda mu ||g||^2]")
        band = Z * report["empirical_stderr"]
        if not abs(report["empirical_mean"] - closed) <= band:
            errors.append(
                f"empirical mean {report['empirical_mean']} outside {closed} +- {band}"
            )
        return errors, {}

    return check


def degrees_auto(seed: int) -> list:
    config = {
        "kind": "degrees",
        "kernel": GAUSSIAN,
        "torus": TORUS_AREA_1000,
        "lambda": 2.0,
        "mu": 2.0,
        "replicates": DEGREE_REPLICATES,
        "seed": seed,
        "mode": "auto",
        "threads": 1,
    }
    return [Invocation("degrees", "degrees", config, DEGREE_REPLICATES, _check_degrees(2.0, 2.0))]


# ---------------------------------------------------------------------------
# point-checks, part 2: planted pairs (criteria 1 and 2)


def _check_joint_groups(mu, probes):
    def check(out_dir):
        errors = []
        report = _read_json(os.path.join(out_dir, "report.json"))
        if [p["t"] for p in report["probes"]] != list(probes):
            errors.append(f"probes {[p['t'] for p in report['probes']]} != {list(probes)}")
        verdicts = []
        for p in report["probes"]:
            n, theory = p["replicates"], p["theory_mean"]
            if n != PLANTED_REPLICATES:
                errors.append(f"t={p['t']}: {n} replicates")
            closed = mu * _gaussian_profile(p["t"])
            if not math.isclose(theory, closed, rel_tol=1e-9):
                errors.append(f"t={p['t']}: theory {theory} != closed form {closed}")
            if not abs(p["empirical_mean"] - closed) <= Z * math.sqrt(closed / n):
                errors.append(f"t={p['t']}: mean {p['empirical_mean']} outside 5 sigma")
            if not abs(p["empirical_variance"] - closed) <= Z * math.sqrt(
                (2 * closed**2 + closed) / n
            ):
                errors.append(f"t={p['t']}: variance {p['empirical_variance']} outside 5 sigma")
            verdicts += [v["passed"] for v in p["verdicts"]]
        return errors, {"runner_verdicts": verdicts}

    return check


def _check_connection(mu, probes, r=1.0):
    def check(out_dir):
        errors = []
        report = _read_json(os.path.join(out_dir, "report.json"))
        if [p["t"] for p in report["probes"]] != list(probes):
            errors.append(f"probes {[p['t'] for p in report['probes']]} != {list(probes)}")
        for p in report["probes"]:
            n, t = p["trials"], p["t"]
            if n != PLANTED_REPLICATES:
                errors.append(f"t={t}: {n} trials")
            closed = -math.expm1(-mu * _lens_area(t, r))
            if not math.isclose(p["theory"], closed, rel_tol=1e-9, abs_tol=1e-15):
                errors.append(f"t={t}: theory {p['theory']} != closed form {closed}")
            if t > 2.0 * r:
                if p["successes"] != 0 or not p["beyond_support"]:
                    errors.append(f"t={t}: {p['successes']} hits beyond 2r")
            elif not abs(p["frequency"] - closed) <= Z * math.sqrt(closed * (1 - closed) / n):
                errors.append(f"t={t}: frequency {p['frequency']} outside 5 sigma of {closed}")
        return errors, {"runner_verdicts": [p["passed"] for p in report["probes"]]}

    return check


def planted_pairs(seed: int) -> list:
    shapes = [
        ("joint-groups", "joint_groups", GAUSSIAN, 2.0, (0.0, 0.5, 1.0, 2.0), _check_joint_groups),
        ("connection", "connection", BOOLEAN, 1.5, (0.5, 1.0, 1.75, 2.5), _check_connection),
    ]
    invocations = []
    for name, kind, kernel, mu, probes, checker in shapes:
        config = {
            "kind": kind,
            "kernel": kernel,
            "torus": TORUS_SIDE_8,
            "mu": mu,
            "replicates": PLANTED_REPLICATES,
            "seed": seed,
            "probe_distances": list(probes),
            "threads": 1,
        }
        items = len(probes) * PLANTED_REPLICATES
        invocations.append(Invocation(name, "validate", config, items, checker(mu, probes)))
    return invocations


# ---------------------------------------------------------------------------
# point-checks, part 3: expected-degree profiles


def _check_expected_degree(kernel_name, lam, mu, reference):
    kernel = PROFILE_KERNELS[kernel_name]

    def check(out_dir):
        errors = []
        record = _read_json(os.path.join(out_dir, "analytics.json"))
        value = record["value"]
        upper = lam * mu * _kernel_norm(kernel) ** 2
        if record["quantity"] != "expected_degree" or not isinstance(value, float):
            errors.append(f"analytics record {record['quantity']} = {value!r}")
        elif not 0.0 < value <= upper:
            errors.append(f"{kernel_name}: expected degree {value} outside (0, {upper}]")
        elif not math.isclose(value, reference, rel_tol=REFERENCE_RTOL):
            errors.append(f"{kernel_name}: expected degree {value} != reference {reference}")
        return errors, {}

    return check


def profile_quadrature(seed: int) -> list:
    pair = seed % len(INTENSITY_PAIRS)
    lam, mu = INTENSITY_PAIRS[pair]
    invocations = []
    for name, kernel in PROFILE_KERNELS.items():
        config = {
            "kind": "analytics",
            "kernel": kernel,
            "lambda": lam,
            "mu": mu,
            "profile": PROFILE_SETTINGS[name],
            "threads": 1,
        }
        check = _check_expected_degree(name, lam, mu, REFERENCES[name][pair])
        invocations.append(
            Invocation(
                f"expected-degree-{name}", "analytics", config, 1, check,
                extra=("--quantity", "expected-degree"),
            )
        )
    return invocations


# ---------------------------------------------------------------------------
# point-checks


def point_checks(seed: int) -> list:
    """Every subcommand but phase, in one pass: degrees, validate, analytics.

    The README degrees config makes ten dense exact builds of about 4.0M
    pairs each; the planted pairs make 8000 exact builds of about 256 pairs
    each, where fixed per-call cost dominates; the two expected-degree
    profiles are the only traffic through the quadrature layer.
    """
    return degrees_auto(seed) + planted_pairs(seed) + profile_quadrature(seed)


WORKLOADS = {
    "phase-truncated": phase_truncated,
    "point-checks": point_checks,
}
