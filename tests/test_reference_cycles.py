"""The drivers leave no reference cycles: their temporaries go with their
result instead of waiting for a gc collection (peak memory would depend on
when one runs)."""

import gc

import pytest

from h2mul import (KernelProblem, build_problem, coarsen, multiply,
                   orthogonalize_basis, recompress)


@pytest.fixture(scope="module")
def operations():
    problem = KernelProblem.log_1d(256, order=4)
    x = build_problem(problem, eta=2.0).h2
    g = multiply(x, x, 1e-6)
    return {
        "build_problem": lambda: build_problem(problem, eta=2.0),
        "multiply": lambda: multiply(x, x, 1e-6),
        "coarsen": lambda: coarsen(g, x.block_tree, 1e-6),
        "recompress": lambda: recompress(x, 1e-6),
        "orthogonalize_basis": lambda: orthogonalize_basis(x.row_basis),
    }


@pytest.mark.parametrize("name", ["build_problem", "multiply", "coarsen",
                                  "recompress", "orthogonalize_basis"])
def test_result_dropped_leaves_no_garbage(operations, name):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = operations[name]()
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
