"""Input errors raise ValueError with their full message, module by module."""

import re

import numpy as np
import pytest

import submodopt as so
from submodopt import core, polyhedra, prox, transforms, zoo

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
    (lambda: prox.line_search_P(F_OR, [np.nan, 0.0], [1.0, 1.0]), "start must be finite"),
    (lambda: prox.line_search_P(F_OR, [0.0, 0.0], [np.nan, 1.0]),
     "direction must be finite"),
    (lambda: prox.line_search_P(F_OR, [0.0, 0.0], [np.inf, 1.0]),
     "direction must be finite"),
    # polyhedra
    (lambda: so.separable_witness(F_OR, 0), "separability is defined for nonempty sets"),
    (lambda: so.face_check(F_OR, [0b01, 0b11]),
     "partition blocks must be nonempty and disjoint"),
    (lambda: so.face_check(F3, [0b001, 0b010]), "partition does not cover the ground set"),
    # lovasz
    (lambda: so.greedy_base(F_OR, [np.nan, 0.0]), "weight vector must be finite"),
    (lambda: so.conjugate(F_OR, [np.nan, 1.0]), "s must be finite"),
    (lambda: so.conjugate(F_OR, [np.inf, 1.0]), "s must be finite"),
    # in_P reads s through conjugate; in_B and in_P_plus check it before
    # their sum and sign tests, which answered False on an infinity
    (lambda: so.in_P(F_OR, [np.nan, 0.0]), "s must be finite"),
    (lambda: so.in_B(F_OR, [np.nan, 1.0]), "s must be finite"),
    (lambda: so.in_P_plus(F_OR, [np.nan, 0.0]), "s must be finite"),
    (lambda: so.in_P(F_OR, [np.inf, 1.0]), "s must be finite"),
    (lambda: so.in_P(F_OR, [-np.inf, 1.0]), "s must be finite"),
    (lambda: so.in_B(F_OR, [np.inf, 1.0]), "s must be finite"),
    (lambda: so.in_B(F_OR, [-np.inf, 1.0]), "s must be finite"),
    (lambda: so.in_P_plus(F_OR, [np.inf, 1.0]), "s must be finite"),
    (lambda: so.in_P_plus(F_OR, [-np.inf, 1.0]), "s must be finite"),
])
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    # int() would read "2" as 2 and True as 1
    (lambda: core.validate_ground_size("2"), "ground set size must be numeric"),
    (lambda: zoo.Digraph(True), "ground set size must be numeric"),
    (lambda: core.check_integer(None, "seed"), "seed must be numeric"),
])
def test_non_numeric_integers(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


F_PAIR = so.explicit_function([0.0, 1.0, 1.0, 1.5])
Q_PAIR = so.Quadratic(np.ones(2), np.zeros(2))


@pytest.mark.parametrize("call, message", [
    # the certificates refuse a point or a weight vector that is not finite,
    # as in_P, in_B and conjugate do, where they answered True, a tight set
    # list, a tie or a NaN gap
    (lambda: so.tight_sets(F_PAIR, [np.nan, 1.0]), "s must be finite"),
    (lambda: so.dep(F_PAIR, [np.inf, 1.0], 0), "s must be finite"),
    (lambda: so.exchangeable_pairs(F_PAIR, [np.nan, 1.0]), "s must be finite"),
    (lambda: polyhedra.base_maximizer_exchange_check(F_PAIR, [0.5, 1.0], [np.nan, 1.0]),
     "w must be finite"),
    (lambda: polyhedra.base_maximizer_exchange_check(F_PAIR, [np.nan, 1.0], [0.0, 1.0]),
     "s must be finite"),
    (lambda: so.is_base_maximizer(F_PAIR, [np.nan, 1.0], [0.0, 1.0]), "s must be finite"),
    (lambda: so.is_base_maximizer(F_PAIR, [0.5, 1.0], [0.0, -np.inf]), "w must be finite"),
    (lambda: so.is_P_plus_maximizer(F_PAIR, [np.nan, 1.0], [1.0, 1.0]), "s must be finite"),
    (lambda: so.is_P_plus_maximizer(F_PAIR, [0.5, 1.0], [np.nan, 1.0]), "w must be finite"),
    (lambda: so.check_separable_optimality(F_PAIR, [np.nan, 1.0], Q_PAIR),
     "s must be finite"),
    (lambda: so.lex_compare([np.nan], [1.0]), "s1 must be finite"),
    (lambda: so.lex_compare([1.0], [np.inf]), "s2 must be finite"),
    (lambda: so.recover_level_values(F_PAIR, [np.nan, 1.0]), "x must be finite"),
    # a vector of the wrong length is an input error, not a failed computation
    (lambda: so.recover_level_values(F_PAIR, [0.5]), "vector has shape (1,), expected (2,)"),
    (lambda: so.certificate_gap(F_PAIR, 1, [np.nan, 1.0]), "s must be finite"),
    (lambda: so.prox_threshold_sets([np.nan, 1.0], 0.5), "u must be finite"),
])
def test_certificates_refuse_vectors_that_are_not_finite(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def identity(w):
    return np.asarray(w, dtype=np.float64)


@pytest.mark.parametrize("p, error, message", [
    # int() truncated 2.5 to 2 and took 0
    (2.5, ValueError, "ground set size 2.5 is not an integer"),
    (0, ValueError, "ground set size must be in [1, 63], got 0"),
    (True, TypeError, "ground set size must be numeric"),
])
def test_separable_convex_reads_its_size_as_a_ground_set_size(p, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        so.SeparableConvex(p, identity)
