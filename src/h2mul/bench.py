"""Benchmark harness: build, multiply, coarsen, estimate errors, emit CSV.

Reproduces the experiment protocol at desk scale: inputs are kernel
matrices compressed to adaptive ranks, the two multiplication phases are
timed separately (row basis, column basis, matrix assembly), and the
relative spectral errors of both phases are estimated by a fixed number
of power-iteration steps on the residual operator.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .coarsening import coarsen, recompress
from .errors import InvalidInputError
from .h2 import H2Matrix, h2_matvec, h2_matvec_adjoint, storage_bytes, to_dense
from .induced import multiply
from .problems import KernelProblem, build_problem
from .stages import record_stages

__all__ = [
    "RunConfig",
    "RunReport",
    "CSV_COLUMNS",
    "estimate_spectral_norm",
    "estimate_relative_spectral_error",
    "run_experiment",
    "run_scaling_sweep",
    "write_csv",
    "main",
]

PROBLEMS = {
    "slp-sphere": KernelProblem.slp_sphere,
    "dlp-cube": KernelProblem.dlp_cube,
    "log-1d": KernelProblem.log_1d,
}


@dataclass
class RunConfig:
    problem: str = "slp-sphere"
    n: int = 2048
    eps: float = 1e-4
    eta: float = 2.0
    order: int = 4
    leaf_size: int | None = None
    steps: int = 20
    coarsen: str = "input-tree"
    seed: int = 0
    max_rank: int | None = None
    dense_check: bool = False

    def validate(self):
        if self.problem not in PROBLEMS:
            raise InvalidInputError(f"unknown problem {self.problem!r}")
        if not 0 <= self.eps < math.inf:
            raise InvalidInputError(
                f"eps must be finite and >= 0, got {self.eps}")
        if self.coarsen not in ("input-tree", "product-tree"):
            raise InvalidInputError(f"unknown coarsen mode {self.coarsen!r}")
        if self.steps < 0:
            raise InvalidInputError(f"steps must be >= 0, got {self.steps}")
        if self.max_rank is not None and self.max_rank < 0:
            raise InvalidInputError(
                f"max_rank must be >= 0, got {self.max_rank}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunReport:
    problem: str
    n: int
    eps: float
    eta: float
    order: int
    leaf_size: int
    seed: int
    t_setup: float
    t1_row: float
    t1_col: float
    t1_mat: float
    eps2_induced: float
    t2_row: float
    t2_col: float
    t2_mat: float
    eps2_final: float
    t_total: float
    max_rank_induced: int
    avg_rank_induced: float
    max_rank_final: int
    avg_rank_final: float
    mem_induced: int
    mem_final: int
    dense_err_induced: float = math.nan
    dense_err_final: float = math.nan


CSV_COLUMNS = [f.name for f in fields(RunReport)]


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def write_csv(path: str, reports: list[RunReport]):
    """Append rows (with a header row for new files)."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow([_csv_cell(getattr(rep, c)) for c in CSV_COLUMNS])


def estimate_spectral_norm(apply, apply_transposed, dim: int, steps: int,
                           rng) -> float:
    """Power iteration on A^T A; returns the sigma_1 estimate |A v|."""
    v = rng.standard_normal(dim)
    nv = np.linalg.norm(v)
    if nv == 0 or dim == 0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(steps):
        w = apply(v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        v = apply_transposed(w)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return sigma
        v /= nv
    return sigma


def estimate_relative_spectral_error(x: H2Matrix, y: H2Matrix, g: H2Matrix,
                                     steps: int = 20, seed: int = 0) -> float:
    """|X Y - G|_2 / |X Y|_2, both estimated by the same power iteration."""
    if steps < 1:
        raise InvalidInputError(f"steps must be >= 1, got {steps}")
    n_k = y.shape[1]
    if x.shape[1] != y.shape[0] or g.shape != (x.shape[0], n_k):
        raise InvalidInputError("dimension mismatch between x, y and g")
    rng = np.random.default_rng(seed)

    def xy(v):
        return h2_matvec(x, h2_matvec(y, v))

    def xy_t(v):
        return h2_matvec_adjoint(y, h2_matvec_adjoint(x, v))

    def residual(v):
        return xy(v) - h2_matvec(g, v)

    def residual_t(v):
        return xy_t(v) - h2_matvec_adjoint(g, v)

    denom = estimate_spectral_norm(xy, xy_t, n_k, steps, rng)
    numer = estimate_spectral_norm(residual, residual_t, n_k, steps, rng)
    if denom == 0.0:
        return 0.0 if numer == 0.0 else math.inf
    return numer / denom


def _rank_stats(g: H2Matrix) -> tuple[int, float]:
    ranks = list(g.row_basis.rank) + list(g.col_basis.rank)
    return max(ranks), sum(ranks) / len(ranks)


def run_experiment(config: RunConfig) -> RunReport:
    """One full multiplication experiment: X = Y = the model matrix.

    Inputs are recompressed to adaptive ranks at the multiplication
    accuracy before the product is formed (skipped in exact mode), in
    line with the compressed-input pipeline of the reference protocol.
    The product is the public ``multiply`` and ``coarsen``, timed by
    their stage marks.  t_setup is the problem build, the recompression
    and the product's weights; t_total is the sum of the six phases.
    """
    config.validate()
    problem = PROBLEMS[config.problem](config.n, order=config.order)

    t0 = time.perf_counter()
    inst = build_problem(problem, eta=config.eta, leaf_size=config.leaf_size)
    x = inst.h2
    if config.eps > 0:
        x = recompress(x, config.eps, max_rank=config.max_rank)
    t_build = time.perf_counter() - t0

    with record_stages() as phases:
        induced = multiply(x, x, config.eps, max_rank=config.max_rank)
        coarse = x.block_tree if config.coarsen == "input-tree" \
            else induced.block_tree
        final = coarsen(induced, coarse, config.eps, max_rank=config.max_rank)
    t_setup = t_build + phases.pop("t_setup")  # leaves t1_* and t2_*

    eps2_induced = eps2_final = math.nan
    if config.steps > 0:
        eps2_induced = estimate_relative_spectral_error(
            x, x, induced, steps=config.steps, seed=config.seed)
        eps2_final = estimate_relative_spectral_error(
            x, x, final, steps=config.steps, seed=config.seed)

    dense_err_induced = dense_err_final = math.nan
    if config.dense_check:
        dx = to_dense(x)
        ref = dx @ dx
        nref = np.linalg.norm(ref, 2)
        dense_err_induced = np.linalg.norm(to_dense(induced) - ref, 2) / nref
        dense_err_final = np.linalg.norm(to_dense(final) - ref, 2) / nref

    max_ind, avg_ind = _rank_stats(induced)
    max_fin, avg_fin = _rank_stats(final)
    leaf_size = config.leaf_size if config.leaf_size is not None \
        else max(inst.tree.size(t) for t in inst.tree.leaves())
    return RunReport(
        problem=config.problem, n=config.n, eps=config.eps, eta=config.eta,
        order=config.order, leaf_size=leaf_size,
        seed=config.seed, t_setup=t_setup, **phases,
        eps2_induced=eps2_induced, eps2_final=eps2_final,
        t_total=sum(phases.values()),
        max_rank_induced=max_ind, avg_rank_induced=avg_ind,
        max_rank_final=max_fin, avg_rank_final=avg_fin,
        mem_induced=storage_bytes(induced), mem_final=storage_bytes(final),
        dense_err_induced=dense_err_induced, dense_err_final=dense_err_final)


def run_scaling_sweep(config: RunConfig, ns: list[int]) -> list[RunReport]:
    """One run per size; the time-per-DoF series is the scaling evidence."""
    reports = []
    for n in ns:
        cfg = RunConfig(**{**config.__dict__, "n": n})
        reports.append(run_experiment(cfg))
    return reports


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"--n expects integers, got {text!r}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="h2-bench",
        description="Adaptive H^2-matrix multiplication benchmark")
    parser.add_argument("--problem", default="slp-sphere",
                        choices=sorted(PROBLEMS))
    parser.add_argument("--n", default="2048",
                        help="matrix size, or comma-separated list for a sweep")
    parser.add_argument("--eps", type=float, default=1e-4,
                        help="block-relative accuracy of both phases")
    parser.add_argument("--eta", type=float, default=2.0,
                        help="admissibility parameter")
    parser.add_argument("--order", type=int, default=4,
                        help="interpolation order per axis")
    parser.add_argument("--leaf-size", type=int, default=None,
                        help="cluster tree leaf size (default: twice the rank)")
    parser.add_argument("--steps", type=int, default=20,
                        help="power iteration steps (0 disables estimation)")
    parser.add_argument("--coarsen", default="input-tree",
                        choices=["input-tree", "product-tree"])
    parser.add_argument("--csv", default=None, help="append results to a CSV")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rank", type=int, default=None)
    parser.add_argument("--exact", action="store_true",
                        help="run with eps = 0 (exact representation mode)")
    parser.add_argument("--dense-check", action="store_true",
                        help="compare against the dense product (small n only)")
    args = parser.parse_args(argv)

    try:
        sizes = _parse_sizes(args.n)
    except InvalidInputError as exc:
        parser.error(str(exc))
    if not sizes:
        parser.error("--n produced no sizes")
    config = RunConfig(problem=args.problem, n=sizes[0],
                       eps=0.0 if args.exact else args.eps, eta=args.eta,
                       order=args.order, leaf_size=args.leaf_size,
                       steps=args.steps, coarsen=args.coarsen, seed=args.seed,
                       max_rank=args.max_rank, dense_check=args.dense_check)
    try:
        config.validate()
        reports = run_scaling_sweep(config, sizes)
    except InvalidInputError as exc:
        parser.error(str(exc))

    for rep in reports:
        print(f"n={rep.n:>8d}  induced: row {rep.t1_row:7.2f}s col "
              f"{rep.t1_col:7.2f}s mat {rep.t1_mat:7.2f}s eps2 "
              f"{rep.eps2_induced:9.2e} | final: row {rep.t2_row:7.2f}s col "
              f"{rep.t2_col:7.2f}s mat {rep.t2_mat:7.2f}s eps2 "
              f"{rep.eps2_final:9.2e} | per-DoF {rep.t_total / rep.n * 1e6:7.1f}us")
        if config.dense_check:
            print(f"           dense check: induced {rep.dense_err_induced:9.2e} "
                  f"final {rep.dense_err_final:9.2e}")
    if args.csv:
        write_csv(args.csv, reports)
    return 0
