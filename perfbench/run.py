#!/usr/bin/env python3
"""h2mul benchmark: one workload per process, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds the workload's inputs, then runs rounds on the finished
inputs for ``--seconds``: the public functions ``h2mul.multiply`` and
``h2mul.coarsen`` on the main instance and on a smaller companion, then
``h2mul.bench.estimate_relative_spectral_error`` (20 steps, both phases)
on the companion's products, with a fresh set-up every other round.  A
fixed reference kernel is timed after every operation; end-to-end times
are reported against it (see ``Reference``).  After the rounds it checks
the results.  It prints a record line with the machine, the samples and
the diagnostics, then, as its last line, the result object.  With
``--trace 0`` the result holds the end-to-end metrics, measured with
nothing wrapped; with ``--trace 1`` it holds the per-layer metrics from
spans around the calls into each layer, with traced and untraced
operations alternating.

``--smoke`` runs every workload at tiny sizes in both modes and checks
that each names every metric of BENCHMARK.json, that its checks pass and
that both modes give the same ranks, storage and errors.

Exit codes: 0 on a result, 1 on a failed smoke test, 2 when the
package sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

OPS = ["setup", "product", "product-small", "estimate"]
SETUP_EVERY = 2    # rounds per set-up
# Peak memory is read after this many rounds: it grows over the first
# rounds while the allocator's pools fill, so a fixed point keeps it
# independent of how many rounds the machine's speed allows.
RSS_ROUNDS = 3
# Nominal time of the reference kernel.  An end-to-end time is the median
# over a run of each operation's seconds over the mean of the reference
# times just before and after it, times this.
REFERENCE_S = 0.040
ETA = 2.0          # admissibility parameter, as the paper
STEPS = 20         # power-iteration steps per error estimate, as the paper
PROBES = 4         # Gaussian probes of the residual check
SMOKE_SECONDS = 1.0

# Per-product self seconds reported by the traced run, by span key.
PRODUCT_SPANS = [
    "weights.basis_weights", "weights.total_weights",
    "h2.cluster_basis_product",
    "induced.compress_induced_row_basis", "induced.compress_induced_col_basis",
    "trees.build_product_block_tree", "induced.assemble_product",
    "coarsening.build_coarse_row_basis", "coarsening.build_coarse_col_basis",
    "coarsening.project_final",
]
DENSE_KERNELS = ["truncated_svd", "qr_r", "full_householder_qr",
                 "spectral_norm", "spectral_norms"]


def median(values):
    return float(statistics.median(values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Ops:
    """Operations attempted and failed; a failure is an exception or a
    failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failures.append(f"{what}: exception")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def import_h2mul():
    """The package from this checkout's sources, never an installed one."""
    if not (SRC / "h2mul" / "__init__.py").is_file():
        raise ImportError(f"no h2mul sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import h2mul
    import h2mul.bench
    if Path(h2mul.__file__).resolve().parent != SRC / "h2mul":
        raise ImportError(f"h2mul imported from {h2mul.__file__}, not {SRC}")
    return h2mul


def blas_threads():
    """Threads of the loaded OpenBLAS, asked from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def gemm_rate(np):
    """GFLOP/s of a fixed 384^3 matmul, median of 5 samples of 8 products.
    Tells drift in machine speed from a code change; not gated."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    b = rng.standard_normal((384, 384))
    rates = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(8):
            a @ b
        rates.append(8 * 2 * 384 ** 3 / (perf_counter() - t0) / 1e9)
    return median(rates)


class Reference:
    """A fixed numpy kernel, timed after every operation of a run.

    Small QR, SVD and products, as h2mul's dense layer does them,
    plus two 256^3 matmuls: about 40 ms.  On a shared two-vCPU Xeon VM
    the same product took 0.35 s and 0.63 s within a few seconds, with
    no steal time, so raw medians of ten 38-s runs spread by 17-34%
    (third minus first quartile over the median).  The kernel slows
    down with the machine, so an operation's time over the reference
    times around it stays put when the machine changes speed and moves
    when h2mul does: the same runs spread by 5-12% in those units.  The
    raw seconds are in the record line."""

    SHAPES = [(24, 12), (48, 24), (96, 40), (200, 60)]
    LOOPS = 20

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.mats = [rng.standard_normal(s) for s in self.SHAPES]
        self.big = rng.standard_normal((256, 256))

    def __call__(self):
        qr, svd = self.np.linalg.qr, self.np.linalg.svd
        t0 = perf_counter()
        for _ in range(self.LOOPS):
            for m in self.mats:
                q, r = qr(m)
                u = svd(r)[0]
                q @ u
        for _ in range(2):
            self.big @ self.big
        return perf_counter() - t0


def machine_record(np):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_threads": blas_threads(),
        "gemm_gflops": round(gemm_rate(np), 3),
    }


class Bench:
    """One workload run: inputs, timed loops, checks and metrics."""

    def __init__(self, h2mul, wl, n, n_small, seed, seconds, trace):
        import numpy as np
        self.np = np
        self.h2 = h2mul
        self.wl = wl
        self.n, self.n_small = n, n_small
        self.seed = seed
        self.seconds = seconds
        self.ops = Ops()
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer(h2mul)

    # -- operations -------------------------------------------------------

    def problem(self, n):
        make = {"slp-sphere": self.h2.KernelProblem.slp_sphere,
                "dlp-cube": self.h2.KernelProblem.dlp_cube,
                "log-1d": self.h2.KernelProblem.log_1d}[self.wl.problem]
        return make(n, order=self.wl.order)

    def setup(self, problem):
        inst = self.h2.build_problem(problem, eta=ETA)
        return self.h2.recompress(inst.h2, self.wl.eps)

    def product(self, x):
        g = self.h2.multiply(x, x, self.wl.eps)
        return g, self.h2.coarsen(g, x.block_tree, self.wl.eps)

    def estimate(self, x, g, f):
        est = self.h2.bench.estimate_relative_spectral_error
        return (est(x, x, g, steps=STEPS, seed=self.seed) / self.wl.eps,
                est(x, x, f, steps=STEPS, seed=self.seed) / self.wl.eps)

    # -- the run ----------------------------------------------------------

    def run(self):
        trace = self.tracer is not None
        self.machine = machine_record(self.np)

        # Every operation alternates untraced and traced in a traced run;
        # only untraced ones give timings, only traced ones give spans.
        self.times = {op: [] for op in OPS}
        self.traced_times = {op: [] for op in OPS}
        self.signatures = {"input": set(), "main": set(), "small": set()}
        self.errors = set()
        self.reference = Reference(self.np)
        self.refs = [self.reference()]
        self.ref_times = {op: [] for op in OPS}
        self.x = self.setup_op()
        self.x_small = self.ops.call("setup-small", self.setup,
                                     self.problem(self.n_small))
        if self.x is None or self.x_small is None:
            raise RuntimeError(f"set-up failed: {self.ops.failures}")

        # A round is a main product, a companion product and the error
        # estimate of the companion's products, plus a set-up every
        # SETUP_EVERY rounds.  The schedule is fixed, so slow spells of
        # the machine reach every operation alike and every run allocates
        # in the same order.
        start = perf_counter()
        deadline = start + self.seconds
        need = 2 if trace else 1
        rounds = []
        while True:
            t0 = perf_counter()
            self.products()
            self.estimate_op()
            if len(rounds) % SETUP_EVERY == SETUP_EVERY - 1:
                self.setup_op()
            rounds.append(perf_counter() - t0)
            if len(rounds) == RSS_ROUNDS:
                self.peak_rss_mb = peak_rss_mb()
            if (len(rounds) >= RSS_ROUNDS
                    and all(len(self.times[op]) + len(self.traced_times[op])
                            >= need for op in OPS)
                    and perf_counter() + median(rounds) > deadline):
                break
        self.measured_s = perf_counter() - start

        self.check()
        if trace:
            metrics = self.layer_metrics()
        else:
            metrics = self.end_to_end_metrics()
        return self.result(metrics)

    def record(self, op, fn, *args):
        """Run one operation, alternating untraced and traced ones in a
        traced run; its seconds go to the matching list."""
        traced = (self.tracer is not None
                  and len(self.times[op]) > len(self.traced_times[op]))
        with self.tracer.root(op) if traced else nullcontext():
            t0 = perf_counter()
            out = self.ops.call(op, fn, *args)
            dt = perf_counter() - t0
        before = self.refs[-1]
        self.refs.append(self.reference())
        if out is not None:
            (self.traced_times if traced else self.times)[op].append(dt)
            if not traced:
                self.ref_times[op].append(
                    dt * 2 * REFERENCE_S / (before + self.refs[-1]))
        return out

    def products(self):
        pm = self.record("product", self.product, self.x)
        ps = self.record("product-small", self.product, self.x_small)
        if pm is not None:
            self.g, self.f = pm
            self.signatures["main"].add(self.signature(*pm))
        if ps is not None:
            self.g_small, self.f_small = ps
            self.signatures["small"].add(self.signature(*ps))

    def setup_op(self):
        x = self.record("setup", self.setup, self.problem(self.n))
        if x is not None:
            self.signatures["input"].add(self.signature(x, x))
        return x

    def estimate_op(self):
        errs = self.record("estimate", self.estimate, self.x_small,
                           self.g_small, self.f_small)
        if errs is not None:
            self.errors.add(errs)

    def signature(self, g, f):
        s = self.h2.storage_bytes
        return (tuple(f.row_basis.rank), tuple(f.col_basis.rank),
                s(f), tuple(g.row_basis.rank), tuple(g.col_basis.rank), s(g))

    # -- checks -----------------------------------------------------------

    def check(self):
        np, h2, wl, ops = self.np, self.h2, self.wl, self.ops
        rng = np.random.default_rng(self.seed)
        self.probe = 0.0
        for label, x, f in (("main", self.x, self.f),
                            ("small", self.x_small, self.f_small)):
            ops.check(f"{label}: validate", self.validates(f))
            ops.check(f"{label}: block tree is the input's",
                      same_block_tree(h2, f.block_tree, x.block_tree))
            worst = self.probe_residual(x, f, rng)
            self.probe = max(self.probe, worst)
            ops.check(f"{label}: probe residual {worst:.3e} <= eps",
                      worst <= wl.eps)
            ops.check(f"{label}: same ranks and storage in every rep",
                      len(self.signatures[label]) == 1)
        ops.check("set-up: same input in every set-up",
                  len(self.signatures["input"]) == 1)
        ops.check("estimate: same errors in every rep", len(self.errors) == 1)
        err_induced, err_final = next(iter(self.errors))
        ops.check(f"estimate: err_induced {err_induced:.3e} and err_final "
                  f"{err_final:.3e} <= 1 (times eps)",
                  err_induced <= 1.0 and err_final <= 1.0)
        self.dense_err = None
        if wl.dense_check:
            x, g, f = self.x_small, self.g_small, self.f_small
            dx = h2.to_dense(x)
            ref = dx @ dx
            nref = np.linalg.norm(ref, 2)
            self.dense_err = [
                float(np.linalg.norm(h2.to_dense(m) - ref, 2) / nref / wl.eps)
                for m in (g, f)]
            ops.check(f"dense oracle: errors {self.dense_err} <= 1 (times "
                      f"eps)", max(self.dense_err) <= 1.0)

    def validates(self, f):
        try:
            f.validate()
        except self.h2.InvalidInputError:
            return False
        return True

    def probe_residual(self, x, f, rng):
        """max_i |(XY - G) w_i| / |w_i| over Gaussian probes w_i, relative
        to the power-iteration estimate of |XY|_2.  The estimate is a lower
        bound, so the ratio can only overstate the error."""
        np, mv, mva = self.np, self.h2.h2_matvec, self.h2.h2_matvec_adjoint
        norm_xy = self.h2.bench.estimate_spectral_norm(
            lambda v: mv(x, mv(x, v)), lambda v: mva(x, mva(x, v)),
            x.shape[1], STEPS // 2, rng)
        worst = 0.0
        for _ in range(PROBES):
            w = rng.standard_normal(x.shape[1])
            res = mv(x, mv(x, w)) - mv(f, w)
            worst = max(worst, float(np.linalg.norm(res) / np.linalg.norm(w)))
        return worst / norm_xy

    # -- metrics ----------------------------------------------------------

    def end_to_end_metrics(self):
        f = self.f
        ranks = list(f.row_basis.rank) + list(f.col_basis.rank)
        growth = [(tm / self.n) / (ts / self.n_small)
                  for tm, ts in zip(self.times["product"],
                                    self.times["product-small"])]
        err_induced, err_final = next(iter(self.errors))
        def ref_s(op):
            return median(self.ref_times[op])

        return {
            "setup_s": (ref_s("setup"), "s"),
            "multiply_s": (ref_s("product"), "s"),
            "dof_growth": (median(growth), "ratio"),
            "estimate_s": (ref_s("estimate"), "s"),
            "err_induced": (err_induced, "eps"),
            "err_final": (err_final, "eps"),
            "rank_max_final": (max(ranks), "count"),
            "rank_avg_final": (sum(ranks) / len(ranks), "count"),
            "mem_final_mb": (self.h2.storage_bytes(f) / 1e6, "MB"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def layer_metrics(self):
        h2 = self.h2
        roots = self.tracer.summary()

        def med(name, value):
            return median([value(r) for r in roots if r.name == name])

        def self_s(key):
            return lambda r: r.layers.get(key, [0, 0.0])[1]

        m = {
            "problems.build_problem.s": (med("setup", self_s(
                "problems.build_problem")), "s"),
            "coarsening.recompress.s": (med("setup", self_s(
                "coarsening.recompress")), "s"),
        }
        for key in PRODUCT_SPANS:
            m[f"{key}.s"] = (med("product", self_s(key)), "s")

        def dense(key, i, scale=1.0):
            return lambda r: r.layers.get(key, [0, 0.0, 0, 0, 0])[i] * scale

        for kernel in DENSE_KERNELS:
            key = f"dense.{kernel}"
            m[f"{key}.calls"] = (med("product", dense(key, 0)), "count")
            m[f"{key}.s"] = (med("product", dense(key, 1)), "s")
            m[f"{key}.melems"] = (med("product", dense(key, 2, 1e-6)),
                                  "Melem")

        def kept(r):
            acc = r.layers.get("dense.truncated_svd", [0, 0.0, 0, 0, 0])
            return acc[3] / acc[4] if acc[4] else 0.0

        m["dense.truncated_svd.kept_ratio"] = (med("product", kept), "ratio")

        g, f, x = self.g, self.f, self.x
        ranks = list(g.row_basis.rank) + list(g.col_basis.rank)
        m["induced.rank_max"] = (max(ranks), "count")
        m["induced.rank_avg"] = (sum(ranks) / len(ranks), "count")
        m["induced.mem_mb"] = (h2.storage_bytes(g) / 1e6, "MB")
        m["trees.blocks_input"] = (x.block_tree.nblocks, "count")
        m["trees.blocks_product"] = (g.block_tree.nblocks, "count")
        m["trees.sparsity_constant"] = (
            h2.sparsity_constant(g.block_tree), "count")
        m["trees.refinement_max"] = (
            max(h2.refinement_counts(g.block_tree, x.block_tree)), "count")
        m["coarsening.match_column.calls"] = (med(
            "product", lambda r: r.counts.get("coarsening.match_column", 0)),
            "count")

        m["h2.h2_matvec.calls"] = (med("estimate", lambda r: r.layers.get(
            "h2.h2_matvec", [0])[0]), "count")
        for key in ("h2.h2_matvec", "h2.h2_matvec_adjoint"):
            m[f"{key}.ms"] = (med("estimate", lambda r: 1e3 * r.layers[key][1]
                                  / r.layers[key][0]), "ms")
        costs = {}

        def flops(mat):
            if id(mat) not in costs:
                costs[id(mat)] = 2 * h2.matvec_cost(mat)
            return costs[id(mat)]

        def rate(r):
            work = sum(flops(mat) for _, mat, _ in r.matrices)
            return work / sum(dt for _, _, dt in r.matrices) / 1e6

        m["h2.matvec_flops"] = (2 * h2.matvec_cost(f), "flop")
        m["h2.matvec_mflops"] = (med("estimate", rate), "Mflop/s")

        spans = PRODUCT_SPANS + [f"dense.{k}" for k in DENSE_KERNELS]
        m["trace.unattributed_share"] = (med("product", lambda r: 1.0 - sum(
            r.layers.get(k, [0, 0.0])[1] for k in spans) / r.seconds),
            "ratio")
        m["trace.overhead"] = (median(self.traced_times["product"])
                               / median(self.times["product"]) - 1.0, "ratio")
        return m

    def result(self, metrics):
        failed = len(self.ops.failures)
        errs = next(iter(self.errors))
        record = {
            "workload": self.wl.name, "n": self.n, "n_small": self.n_small,
            "seed": self.seed, "seconds": self.seconds,
            "trace": self.tracer is not None,
            "measured_s": round(self.measured_s, 3),
            "machine": self.machine,
            "samples": {op: len(t) for op, t in self.times.items()},
            "samples_traced": {op: len(t)
                               for op, t in self.traced_times.items()},
            "times": self.times,
            "seconds_median": {op: median(t) for op, t in self.times.items()
                               if t},
            "reference_s": self.refs,
            "times_traced": self.traced_times,
            "final": {"rank_max": max(list(self.f.row_basis.rank)
                                      + list(self.f.col_basis.rank)),
                      "mem_mb": self.h2.storage_bytes(self.f) / 1e6,
                      "err_induced": errs[0], "err_final": errs[1]},
            "probe_residual": self.probe,
            "dense_err": self.dense_err,
            "failures": self.ops.failures,
        }
        print(json.dumps(record))
        return {
            "correct": failed == 0,
            "attempted": self.ops.attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()},
        }


def same_block_tree(h2, a, b):
    return (a is b or (
        h2.same_cluster_tree(a.rows, b.rows)
        and h2.same_cluster_tree(a.cols, b.cols)
        and list(a.row) == list(b.row) and list(a.col) == list(b.col)
        and list(a.admissible) == list(b.admissible)))


def smoke(h2mul, seed):
    """Every workload at tiny size in both modes: names, checks, and the
    same ranks, storage and errors traced as untraced."""
    from workloads import SMOKE_SIZES, WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name, wl in WORKLOADS.items():
        n, n_small = SMOKE_SIZES[name]
        outputs = []
        for trace in (0, 1):
            bench = Bench(h2mul, wl, n, n_small, seed, SMOKE_SECONDS, trace)
            out = bench.run()
            outputs.append((bench.signatures, bench.errors))
            names = set(out["metrics"])
            good = out["correct"] and names == want[trace]
            ok &= good
            print(json.dumps({"smoke": name, "trace": trace, "ok": good,
                              "failed": out["failed"],
                              "missing": sorted(want[trace] - names),
                              "extra": sorted(names - want[trace])}))
        same = outputs[0] == outputs[1]
        ok &= same
        print(json.dumps({"smoke": name, "traced_equals_untraced": same}))
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload in both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread, pinned before numpy loads, as h2mul.cli does.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        h2mul = import_h2mul()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(h2mul, args.seed)
    wl = WORKLOADS[args.workload]
    out = Bench(h2mul, wl, wl.n, wl.n_small, args.seed, args.seconds,
                args.trace).run()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
