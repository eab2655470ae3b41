"""The benchmark's workloads: one kernel problem each, at two sizes.

Every workload builds a main instance and a smaller companion of the
same problem.  A round multiplies the main instance, then the companion,
so the per-DoF ratio between the two sizes (the paper's linear-scaling
evidence) comes from neighbouring products and machine drift cancels.
The error estimate runs on the companion's products; the companion is
the smallest size at which the phase-1 error is a truncation error
rather than roundoff, which keeps the estimate affordable.

Sizes are scaled down from the paper's configurations so that one run
holds several rounds within its seconds on a two-core machine with one
BLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str          # "slp-sphere", "dlp-cube" or "log-1d"
    n: int                # main instance
    n_small: int          # companion: dof_growth, error estimate
    order: int
    eps: float
    dense_check: bool = False  # companion product against the dense one


WORKLOADS = {w.name: w for w in [
    Workload(
        "sphere-1k",
        "core slp-sphere config: product-tree build and assembly are half a "
        "product; its estimate and dense-oracle check cover the matvec path",
        "slp-sphere", 1152, 512, 3, 1e-4, dense_check=True),
    Workload(
        "cube-dlp",
        "non-symmetric dlp-cube product: distinct row and column bases, so "
        "the column side does its own work; the highest ranks and the "
        "largest dense calls",
        "dlp-cube", 768, 588, 3, 1e-4),
    Workload(
        "line-2k",
        "deep log-1d tree with tiny ranks: many small dense calls, so "
        "per-call overhead leads, not flops",
        "log-1d", 2048, 512, 4, 1e-6),
]}

# Tiny instances of each workload for the smoke mode: the same code path
# in a few seconds.
SMOKE_SIZES = {
    "sphere-1k": (288, 128),
    "cube-dlp": (432, 192),
    "line-2k": (512, 256),
}
