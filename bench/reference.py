"""Recompute the frozen expected-degree references of point-checks.

The workload tabulates its profiles at tol 1e-4 (PROFILE_SETTINGS); the
references come from the same kernels tabulated on a finer grid at tol
1e-5, so a check against them bounds the workload's quadrature error from
outside.  Run from the repository root (takes a few minutes on one core):

    PYTHONPATH=src python3 bench/reference.py

and paste the printed table into ``REFERENCES`` in bench/workloads.py.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import INTENSITY_PAIRS, PROFILE_KERNELS  # noqa: E402

from grig.analytics import expected_degree  # noqa: E402
from grig.kernels import ConvolutionGrid, kernel_from_json, self_convolve  # noqa: E402

FINE = {"n_radii": 512, "tol": 1e-5, "max_refinements": 6}


def main() -> None:
    table = {}
    for name, kernel in PROFILE_KERNELS.items():
        t0 = time.perf_counter()
        profile = self_convolve(
            kernel_from_json(kernel),
            grid=ConvolutionGrid(n_radii=FINE["n_radii"]),
            tol=FINE["tol"],
            max_refinements=FINE["max_refinements"],
        )
        print(
            f"{name}: max_abs_error {profile.max_abs_error:.3g} "
            f"in {time.perf_counter() - t0:.1f} s",
            file=sys.stderr,
        )
        table[name] = [expected_degree(profile, lam, mu) for lam, mu in INTENSITY_PAIRS]
    print(json.dumps(table, indent=2))


if __name__ == "__main__":
    main()
