import csv
import math
import os
import sys

import numpy as np
import pytest

from h2mul import (H2Matrix, InvalidInputError, coarsen, multiply, stages,
                   to_dense)
from h2mul.bench import (CSV_COLUMNS, RunConfig, estimate_spectral_norm,
                         estimate_relative_spectral_error, main,
                         run_experiment, run_scaling_sweep, write_csv)
from util import random_h2_pair, rel_spectral


def dense_as_h2(g):
    """Embed a dense matrix as a single-nearfield-block H^2-matrix."""
    bt = g.block_tree
    dense = to_dense(g)
    # reuse the structure of g but replace all content by the dense block?
    # simpler: build a one-block tree over the same clusters
    from h2mul import BlockTree, ClusterBasis
    rows, cols = bt.rows, bt.cols
    one = BlockTree(rows, cols, [rows.root], [cols.root], [()], [False])
    empty_row = ClusterBasis(rows, [0] * rows.nnodes,
                             {t: np.zeros((rows.size(t), 0))
                              for t in rows.leaves()},
                             {t: np.zeros((0, 0)) for t in range(1, rows.nnodes)})
    empty_col = ClusterBasis(cols, [0] * cols.nnodes,
                             {t: np.zeros((cols.size(t), 0))
                              for t in cols.leaves()},
                             {t: np.zeros((0, 0)) for t in range(1, cols.nnodes)})
    return H2Matrix(one, empty_row, empty_col, {}, {0: dense})


class TestErrorEstimate:
    def test_exact_product_gives_zero(self):
        rng = np.random.default_rng(0)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        exact = multiply(x, y, 0.0)
        dense_prod = to_dense(x) @ to_dense(y)
        embedded = dense_as_h2(exact)
        assert np.allclose(to_dense(embedded), dense_prod, atol=1e-12)
        est = estimate_relative_spectral_error(x, y, embedded, steps=20)
        assert est <= 1e-12

    def test_zero_g_estimates_one(self):
        rng = np.random.default_rng(1)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        zero = dense_as_h2(multiply(x, y, 0.0))
        zero.nearfield[0][...] = 0.0
        est = estimate_relative_spectral_error(x, y, zero, steps=20)
        assert abs(est - 1.0) <= 0.05

    def test_estimate_close_to_truth(self):
        rng = np.random.default_rng(2)
        x, y = random_h2_pair(rng, n=256, leaf_size=8)
        approx = multiply(x, y, 1e-2)
        dense_prod = to_dense(x) @ to_dense(y)
        truth = rel_spectral(to_dense(approx), dense_prod)
        est = estimate_relative_spectral_error(x, y, approx, steps=20)
        assert est <= 2.0 * truth + 1e-14
        assert est >= truth / 2.0

    def test_calls_matvec_and_adjoint(self, monkeypatch):
        # the traced benchmark reports per-call times of both functions
        import h2mul
        from h2mul import h2
        calls = {"h2_matvec": 0, "h2_matvec_adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        originals = {name: getattr(h2, name) for name in calls}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("h2mul"):
                continue
            for attr, value in list(vars(mod).items()):
                for name, fn in originals.items():
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted(name, fn))
        rng = np.random.default_rng(4)
        x, y = random_h2_pair(rng, n=24, leaf_size=4)
        h2mul.bench.estimate_relative_spectral_error(
            x, y, multiply(x, y, 1e-2), steps=3)
        assert calls["h2_matvec"] > 0 and calls["h2_matvec_adjoint"] > 0

    def test_zero_product_and_zero_g(self):
        rng = np.random.default_rng(3)
        x, y = random_h2_pair(rng, n=16, leaf_size=4)
        for store in (x.coupling, x.nearfield):
            for b in store:
                store[b][...] = 0.0
        g = multiply(x, y, 0.0)
        assert estimate_relative_spectral_error(x, y, g, steps=5) == 0.0

    def test_step_count_required(self):
        rng = np.random.default_rng(4)
        x, y = random_h2_pair(rng, n=16, leaf_size=4)
        g = multiply(x, y, 0.0)
        with pytest.raises(InvalidInputError):
            estimate_relative_spectral_error(x, y, g, steps=0)

    def test_norm_estimator_lower_bound(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        est = estimate_spectral_norm(lambda v: a @ v, lambda v: a.T @ v,
                                     30, 20, np.random.default_rng(0))
        truth = np.linalg.norm(a, 2)
        assert est <= truth * (1 + 1e-12)
        assert est >= 0.5 * truth


class TestRunExperiment:
    def test_log1d_exact_mode(self):
        cfg = RunConfig(problem="log-1d", n=256, eps=0.0, eta=2.0, order=4,
                        steps=10, dense_check=True)
        rep = run_experiment(cfg)
        assert rep.eps2_induced <= 1e-10
        assert rep.eps2_final <= 1e-10
        assert rep.dense_err_induced <= 1e-10
        assert rep.dense_err_final <= 1e-10

    def test_log1d_exact_mode_n1024(self):
        cfg = RunConfig(problem="log-1d", n=1024, eps=0.0, order=4, steps=10)
        rep = run_experiment(cfg)
        assert rep.eps2_induced <= 1e-10
        assert rep.eps2_final <= 1e-10

    def test_log1d_with_tolerance(self):
        cfg = RunConfig(problem="log-1d", n=512, eps=1e-4, order=4, steps=10,
                        dense_check=True)
        rep = run_experiment(cfg)
        assert rep.eps2_final <= 1e-4
        assert rep.t_total >= 0.0
        assert rep.max_rank_final <= rep.max_rank_induced
        assert rep.mem_final < rep.mem_induced

    def test_product_tree_coarsen_mode(self):
        cfg = RunConfig(problem="log-1d", n=256, eps=1e-4, steps=5,
                        coarsen="product-tree")
        rep = run_experiment(cfg)
        assert rep.eps2_final <= 1e-4

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            RunConfig(problem="nope").validate()
        with pytest.raises(InvalidInputError):
            RunConfig(eps=-1.0).validate()

    def test_negative_max_rank_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig(max_rank=-1).validate()
        RunConfig(max_rank=0).validate()

    def test_nan_eps_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig(eps=math.nan).validate()

    def test_dlp_cube_small(self):
        cfg = RunConfig(problem="dlp-cube", n=768, eps=1e-4, eta=2.0,
                        order=3, steps=10)
        rep = run_experiment(cfg)
        assert rep.eps2_final <= 1e-4

    def test_slp_sphere_small(self):
        cfg = RunConfig(problem="slp-sphere", n=512, eps=1e-4, eta=2.0,
                        order=3, steps=10, dense_check=True)
        rep = run_experiment(cfg)
        assert rep.eps2_final <= 1e-4
        assert rep.dense_err_final <= 1e-4

    def test_max_rank_cap(self):
        cfg = RunConfig(problem="log-1d", n=256, eps=1e-6, order=5, steps=0,
                        max_rank=4)
        rep = run_experiment(cfg)
        assert rep.max_rank_final <= 4

    def test_steps_zero_skips_estimation(self):
        cfg = RunConfig(problem="log-1d", n=128, eps=1e-4, steps=0)
        rep = run_experiment(cfg)
        assert math.isnan(rep.eps2_induced) and math.isnan(rep.eps2_final)


class TestStageMarks:
    PHASES = ["t1_row", "t1_col", "t1_mat", "t2_row", "t2_col", "t2_mat"]

    def test_run_experiment_reads_the_stage_marks(self):
        rep = run_experiment(RunConfig(problem="log-1d", n=256, eps=1e-4,
                                       steps=0))
        phases = [getattr(rep, name) for name in self.PHASES]
        assert all(t > 0.0 for t in phases)
        assert rep.t_total == sum(phases)
        assert rep.t_setup > 0.0

    def test_coarsen_marks_its_three_stages(self):
        rng = np.random.default_rng(6)
        x, y = random_h2_pair(rng, n=48, leaf_size=4)
        g = multiply(x, y, 1e-4)
        with stages.record_stages() as times:
            coarsen(g, g.block_tree, 1e-4)
        assert sorted(times) == ["t2_col", "t2_mat", "t2_row"]
        assert all(t > 0.0 for t in times.values())

    def test_multiply_marks_its_stages(self):
        rng = np.random.default_rng(7)
        x, y = random_h2_pair(rng, n=48, leaf_size=4)
        with stages.record_stages() as times:
            multiply(x, y, 1e-4)
        assert sorted(times) == ["t1_col", "t1_mat", "t1_row", "t_setup"]

    def test_nothing_recorded_outside_a_recording(self):
        rng = np.random.default_rng(8)
        x, y = random_h2_pair(rng, n=48, leaf_size=4)
        with stages.record_stages() as times:
            pass
        multiply(x, y, 1e-4)
        assert times == {}
        assert stages._times.get() is None

    def test_exception_resets_the_recording(self):
        with pytest.raises(RuntimeError):
            with stages.record_stages():
                raise RuntimeError("inside a recording")
        assert stages._times.get() is None
        with stages.stage("t1_row"):
            pass
        assert stages._times.get() is None


class TestSweepAndCSV:
    def test_single_size_degenerate_sweep(self, tmp_path):
        cfg = RunConfig(problem="log-1d", n=128, eps=1e-4, steps=0)
        reports = run_scaling_sweep(cfg, [128])
        assert len(reports) == 1
        path = str(tmp_path / "out.csv")
        write_csv(path, reports)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2
        # floats in scientific notation
        assert "e" in rows[1][CSV_COLUMNS.index("t_total")]

    def test_zero_tolerance_tiny_sweep(self):
        cfg = RunConfig(problem="log-1d", n=64, eps=0.0, steps=8)
        reports = run_scaling_sweep(cfg, [64, 128])
        for rep in reports:
            assert rep.eps2_final <= 1e-10

    def test_append_keeps_single_header(self, tmp_path):
        cfg = RunConfig(problem="log-1d", n=64, eps=1e-4, steps=0)
        reports = run_scaling_sweep(cfg, [64])
        path = str(tmp_path / "out.csv")
        write_csv(path, reports)
        write_csv(path, reports)
        with open(path) as fh:
            rows = list(fh)
        assert len(rows) == 3
        assert rows[0].startswith("problem,")


class TestCLI:
    def test_smoke(self, tmp_path, capsys):
        path = str(tmp_path / "cli.csv")
        rc = main(["--problem", "log-1d", "--n", "128", "--eps", "1e-4",
                   "--steps", "4", "--csv", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=     128" in out
        assert os.path.exists(path)

    def test_exact_flag(self, capsys):
        rc = main(["--problem", "log-1d", "--n", "64", "--exact",
                   "--steps", "4", "--dense-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dense check" in out

    def test_bad_flag_diagnostics(self, capsys):
        with pytest.raises(SystemExit):
            main(["--problem", "bogus"])
        err = capsys.readouterr().err
        assert "--problem" in err

    def test_negative_max_rank_diagnostics(self, capsys):
        with pytest.raises(SystemExit):
            main(["--problem", "log-1d", "--n", "64", "--max-rank", "-1"])
        err = capsys.readouterr().err
        assert "max_rank" in err

    def test_nan_eps_diagnostics(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "log-1d", "--n", "64", "--eps", "nan"])
        assert exc.value.code == 2
        assert "eps" in capsys.readouterr().err

    def test_bad_n_diagnostics(self, capsys):
        with pytest.raises(SystemExit):
            main(["--n", "12,ab"])
        err = capsys.readouterr().err
        assert "--n" in err
