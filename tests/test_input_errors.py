"""Input errors raise ValueError with their full message, module by module."""

import re

import numpy as np
import pytest

import submodopt as so
from submodopt import core, prox, sfm, transforms, zoo

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
F3 = so.random_submodular(0, 3, "cut")


def wrong_size_quadratic():
    return so.Quadratic(np.ones(3), np.zeros(3))


@pytest.mark.parametrize("call, message", [
    # core
    (lambda: core.validate_ground_size(0), "ground set size must be in [1, 63], got 0"),
    (lambda: core.validate_ground_size(64), "ground set size must be in [1, 63], got 64"),
    (lambda: core.ExplicitFunction([0.0, 1.0, 2.0]),
     "table length 3 is not a power of two >= 2"),
    # transforms
    (lambda: transforms.restrict(F_OR, 0), "cannot restrict to the empty set"),
    (lambda: transforms.contract(F_OR, 0b11),
     "contraction by the full ground set leaves nothing"),
    (lambda: transforms.partial_min(F_OR, 0b11), "no coordinates left after removing W"),
    (lambda: transforms.add(F_OR, F3), "ground sets differ"),
    # zoo
    (lambda: zoo.Digraph(2, ((0, 1, -1.0),)), "negative arc weight on (0, 1)"),
    (lambda: zoo.CoverSystem(2, ((0b01, -1.0),)), "cover weights must be nonnegative"),
    (lambda: zoo.CoverSystem(2, ((0b100, 1.0),)), "group mask 4 out of range"),
    (lambda: zoo.FlowNetwork(3, (0,), (0, 1), ((0, 2, 1.0),)),
     "sources and sinks must be disjoint"),
    (lambda: zoo.weighted_concave([1.0, 2.0], "cube"),
     "unknown profile 'cube'; pick sqrt, log1p, or cap"),
    (lambda: zoo.weighted_concave([1.0, -2.0], "sqrt"), "weights must be nonnegative"),
    (lambda: zoo.logdet_function(np.ones((2, 3))), "Q must be square"),
    (lambda: zoo.linear_matroid_rank([1.0, 2.0]), "matrix must be 2-d"),
    (lambda: zoo.random_submodular(0, 3, "star"), "unknown family 'star'"),
    (lambda: zoo.random_submodular(0, 3, "cut+shift"), "unknown family suffix 'shift'"),
    # prox
    (lambda: prox.prox_minnorm(F_OR, wrong_size_quadratic()),
     "penalty dimension does not match the ground set"),
    (lambda: prox.prox_decomposition(F_OR, wrong_size_quadratic()),
     "penalty dimension does not match the ground set"),
    (lambda: prox.prox_homotopy(F_OR, wrong_size_quadratic()),
     "penalty dimension does not match the ground set"),
    (lambda: prox.line_search_P(F_OR, [0.0, 0.0, 0.0], [1.0, 1.0]),
     "start and direction must have length p"),
    # polyhedra
    (lambda: so.separable_witness(F_OR, 0), "separability is defined for nonempty sets"),
    (lambda: so.face_check(F_OR, [0b01, 0b11]),
     "partition blocks must be nonempty and disjoint"),
    (lambda: so.face_check(F3, [0b001, 0b010]), "partition does not cover the ground set"),
    # sfm
    (lambda: sfm.minimize(F_OR, backend="simplex"), "unknown backend 'simplex'"),
    # lovasz
    (lambda: so.greedy_base(F_OR, [np.nan, 0.0]), "weight vector must be finite"),
])
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
