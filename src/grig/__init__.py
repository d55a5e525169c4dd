"""Spatial random intersection graphs.

Vertices and groups are independent Poisson clouds on a d-dimensional
torus; each vertex joins each group independently with a probability
given by a distance kernel, and two vertices are adjacent when they
share a group.  The package samples these graphs exactly or with a
controlled tail truncation, computes the matching analytic quantities
(kernel self-convolution, connection probability, expected degree,
branching bounds), and ships reproducible experiment runners.
"""

__version__ = "0.1.0"

from .analytics import (
    DegreeBounds,
    OffspringMean,
    connection_probability,
    degree_bounds,
    expected_degree,
    isolated_probability_bound,
    offspring_mean,
    sample_dominating_degree,
)
from .config import config_from_dict, load_config
from .errors import ConfigError, ConvergenceError, GrigError
from .experiments import (
    ExperimentConfig,
    run_connection_check,
    run_degree_experiment,
    run_joint_groups_check,
    run_phase_sweep,
    sample_origin_degrees,
)
from .geometry import GROUP, VERTEX, PointCloud, Torus, sample_poisson, torus_distance
from .graph import (
    BipartiteGraph,
    BuildOptions,
    IntersectionGraph,
    bipartite_components,
    build_bipartite,
    components,
    degree_histogram,
    largest_component_fraction,
    project_onto_groups,
    project_onto_vertices,
)
from .kernels import (
    BooleanKernel,
    ConvolutionGrid,
    ConvolutionProfile,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_kernel,
    eval_profile,
    kernel_from_json,
    kernel_norm,
    kernel_to_json,
    length_scale,
    radius_level,
    self_convolve,
    support_radius,
)
from .stats import TestVerdict, poisson_dispersion_test, wilson_interval

__all__ = [
    "__version__",
    "BipartiteGraph",
    "BooleanKernel",
    "BuildOptions",
    "ConfigError",
    "ConvergenceError",
    "ConvolutionGrid",
    "ConvolutionProfile",
    "DegreeBounds",
    "ExperimentConfig",
    "GROUP",
    "GaussianKernel",
    "GrigError",
    "VERTEX",
    "IntersectionGraph",
    "OffspringMean",
    "PointCloud",
    "PowerLawKernel",
    "TabulatedKernel",
    "TestVerdict",
    "Torus",
    "bipartite_components",
    "build_bipartite",
    "components",
    "config_from_dict",
    "connection_probability",
    "degree_bounds",
    "degree_histogram",
    "eval_kernel",
    "eval_profile",
    "expected_degree",
    "isolated_probability_bound",
    "kernel_from_json",
    "kernel_norm",
    "kernel_to_json",
    "largest_component_fraction",
    "length_scale",
    "load_config",
    "offspring_mean",
    "poisson_dispersion_test",
    "project_onto_groups",
    "project_onto_vertices",
    "radius_level",
    "run_connection_check",
    "run_degree_experiment",
    "run_joint_groups_check",
    "run_phase_sweep",
    "sample_dominating_degree",
    "sample_origin_degrees",
    "sample_poisson",
    "self_convolve",
    "support_radius",
    "torus_distance",
    "wilson_interval",
]
