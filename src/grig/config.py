"""JSON config loading and validation for the CLI and runners.

A config is one JSON object.  Example::

    {
      "kind": "degrees",
      "kernel": {"family": "gaussian", "sigma": 1.0, "norm": 1.0, "d": 2},
      "torus": {"d": 2, "measure": "area", "value": 1000.0},
      "lambda": 1.0,
      "mu": 1.0,
      "replicates": 10,
      "seed": 0
    }

The torus size is given either as the d-dimensional volume
(measure "area") or as the side length (measure "side").  Unknown keys
are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
import os

from .errors import ConfigError
from .experiments import ExperimentConfig, check_planted_pairs
from .geometry import Torus
from .graph import BuildOptions
from .kernels import kernel_from_json

KINDS = ("sample", "degrees", "phase", "joint_groups", "connection", "visualize", "analytics")

_TOP_KEYS = {
    "kind",
    "kernel",
    "torus",
    "lambda",
    "mu",
    "lambda_values",
    "mu_values",
    "replicates",
    "seed",
    "mode",
    "eps_tail",
    "threads",
    "probe_distances",
    "confidence",
    "dispersion_alpha",
    "profile",
}

# profile key -> smallest allowed integer value
_PROFILE_INTS = {"n_radii": 2, "base_nodes": 1, "max_refinements": 0}
_PROFILE_KEYS = set(_PROFILE_INTS) | {"t_max", "tol", "method"}

DEFAULT_TORUS = {"d": 2, "measure": "area", "value": 1000.0}


def default_sweep_values(n: int = 16, upper: float = 4.0) -> tuple:
    """Evenly spaced intensities (upper/n, ..., upper], zero excluded."""
    step = upper / n
    return tuple(step * (k + 1) for k in range(n))


def _int_at_least(value, what: str, low: int) -> int:
    """A JSON integer >= low; floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """A finite number; NaN, the infinities and non-numbers are refused."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def resolve_torus(payload) -> Torus:
    if not isinstance(payload, dict):
        raise ConfigError(f"torus must be an object, got {type(payload).__name__}")
    extra = set(payload) - {"d", "measure", "value"}
    if extra:
        raise ConfigError(f"unknown torus keys: {sorted(extra)}")
    try:
        d = _int_at_least(payload["d"], "torus d", 1)
        value = _finite(payload["value"], "torus value")
    except KeyError as exc:
        raise ConfigError(f"torus is missing required key {exc}") from None
    measure = payload.get("measure", "area")
    if measure == "side":
        side = value
    elif measure == "area":
        if value <= 0:
            raise ConfigError(f"torus area must be > 0, got {value}")
        try:
            side = value ** (1.0 / d)
        except OverflowError:
            raise ConfigError(f"torus d is too large for a float exponent, got {d}") from None
    else:
        raise ConfigError(f'torus measure must be "area" or "side", got {measure!r}')
    try:
        torus = Torus(d, side)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        volume = torus.volume
    except OverflowError:
        volume = math.inf
    if not math.isfinite(volume):
        raise ConfigError(f"torus volume side**d must be finite, got side {side} and d {d}")
    return torus


def _float_or_none(payload, key):
    if key not in payload or payload[key] is None:
        return None
    value = _finite(payload[key], key)
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value}")
    return value


def _unit_interval(payload, key, default):
    value = _finite(payload.get(key, default), key)
    if not 0 < value < 1:
        raise ConfigError(f"{key} must lie in (0, 1), got {value}")
    return value


def _profile_options(payload) -> dict:
    """Check the profile overrides' types and ranges; values pass unchanged."""
    options = payload.get("profile", {})
    if not isinstance(options, dict):
        raise ConfigError("profile must be an object")
    bad = set(options) - _PROFILE_KEYS
    if bad:
        raise ConfigError(f"unknown profile keys: {sorted(bad)}")
    for key, low in _PROFILE_INTS.items():
        _int_at_least(options.get(key, low), f"profile {key}", low)
    if options.get("t_max") is not None and not _float_or_none(options, "t_max") > 0:
        raise ConfigError(f"profile t_max must be null or a number > 0, got {options['t_max']!r}")
    if "tol" in options and not (_float_or_none(options, "tol") or 0.0) > 0:
        raise ConfigError(f"profile tol must be a number > 0, got {options['tol']!r}")
    if options.get("method", "auto") not in ("auto", "tabulated"):
        raise ConfigError(f'profile method must be "auto" or "tabulated", got {options["method"]!r}')
    return dict(options)


def _float_tuple(payload, key):
    raw = payload.get(key, ())
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key} must be an array of numbers")
    values = tuple(_finite(v, f"{key} entry") for v in raw)
    if any(v < 0 for v in values):
        raise ConfigError(f"{key} entries must be >= 0")
    return values


def config_from_dict(payload: dict, kind=None) -> ExperimentConfig:
    """Validate a parsed JSON object and resolve it to an ExperimentConfig.

    `kind` (usually the CLI subcommand) takes precedence over the config's
    own "kind" entry; phase sweeps get the standard 16-point grids when
    the value arrays are omitted.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved_kind = kind if kind is not None else payload.get("kind")
    if resolved_kind is None:
        raise ConfigError(f"config needs a kind; one of {KINDS}")
    if resolved_kind not in KINDS:
        raise ConfigError(f"unknown kind {resolved_kind!r}; expected one of {KINDS}")

    if "kernel" not in payload:
        raise ConfigError('config is missing the "kernel" object')
    kernel = kernel_from_json(payload["kernel"])
    torus = resolve_torus(payload.get("torus", DEFAULT_TORUS))
    if kernel.d != torus.d:
        raise ConfigError(
            f"kernel dimension {kernel.d} does not match torus dimension {torus.d}"
        )

    replicates = _int_at_least(payload.get("replicates", 10), "replicates", 1)
    seed = _int_at_least(payload.get("seed", 0), "seed", 0)
    eps_tail = _finite(payload.get("eps_tail", 1e-3), "eps_tail")
    build = BuildOptions(payload.get("mode", "auto"), eps_tail)
    if build.mode == "truncated":
        build.truncation_radius(kernel)  # refuses eps_tail 0 for unbounded support
    threads = _int_at_least(payload.get("threads", os.cpu_count() or 1), "threads", 1)
    confidence = _unit_interval(payload, "confidence", 0.99)
    dispersion_alpha = _unit_interval(payload, "dispersion_alpha", 0.01)

    lambda_values = _float_tuple(payload, "lambda_values")
    mu_values = _float_tuple(payload, "mu_values")
    if resolved_kind == "phase":
        if not lambda_values:
            lambda_values = default_sweep_values()
        if not mu_values:
            mu_values = default_sweep_values()

    config = ExperimentConfig(
        kind=resolved_kind,
        kernel=kernel,
        torus=torus,
        lam=_float_or_none(payload, "lambda"),
        mu=_float_or_none(payload, "mu"),
        lambda_values=lambda_values,
        mu_values=mu_values,
        replicates=replicates,
        seed=seed,
        mode=build.mode,
        eps_tail=build.eps_tail,
        threads=threads,
        probe_distances=_float_tuple(payload, "probe_distances"),
        confidence=confidence,
        dispersion_alpha=dispersion_alpha,
        profile_options=_profile_options(payload),
    )
    check_planted_pairs(config)
    return config


def load_config(path, kind=None) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(payload, kind=kind)
