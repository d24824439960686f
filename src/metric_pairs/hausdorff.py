"""Hausdorff distance between subsets, and its pair and tuple extensions.

The pair/tuple variants are always evaluated relative to an explicit gluing;
there is no implicit identification of points across two spaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChainLengthMismatch, DifferentAmbient, GlueMismatch, InvalidSubset
from .metric_core import FiniteMetricSpace, SubsetRef, check_subset, same_space


@dataclass(frozen=True)
class MetricPair:
    """A space with one distinguished nonempty subset."""

    space: FiniteMetricSpace
    a: SubsetRef

    def __post_init__(self):
        check_subset(self.space, self.a)


@dataclass(frozen=True)
class MetricTuple:
    """A space with a nested chain of subsets, innermost first."""

    space: FiniteMetricSpace
    chain: tuple  # of SubsetRef, chain[0] ⊆ chain[1] ⊆ ... ⊆ chain[-1]

    def __post_init__(self):
        if not self.chain:
            raise InvalidSubset("chain must be nonempty")
        for ref in self.chain:
            check_subset(self.space, ref)
        for inner, outer in zip(self.chain, self.chain[1:]):
            if not inner.issubset(outer):
                raise InvalidSubset("chain subsets must be nested, innermost first")

    @property
    def depth(self):
        return len(self.chain)


def hausdorff_of_matrix(dist, a_idx, b_idx):
    """max-min Hausdorff distance between two index sets of one matrix.

    For finite sets this is the attained infimum of the neighborhood form.
    """
    block = dist[np.ix_(tuple(a_idx), tuple(b_idx))]
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def hausdorff(space, a, b):
    """Hausdorff distance between two subsets of the same space."""
    check_subset(space, a)
    check_subset(space, b)
    return hausdorff_of_matrix(space.dist, a.indices, b.indices)


def hausdorff_between(pair_a, pair_b):
    """Hausdorff distance between the subsets of two pairs over one ambient."""
    if not same_space(pair_a.space, pair_b.space):
        raise DifferentAmbient("the two pairs do not share an ambient space")
    return hausdorff(pair_a.space, pair_a.a, pair_b.a)


def pair_hausdorff(glue, pair_a, pair_b):
    """d_H(X, Y) + d_H(A, B), both terms evaluated in the glued ambient."""
    return tuple_hausdorff(glue, MetricTuple(pair_a.space, (pair_a.a,)), MetricTuple(pair_b.space, (pair_b.a,)))


def tuple_hausdorff(glue, tuple_a, tuple_b):
    """d_H(X, Y) plus one Hausdorff term per chain level."""
    if tuple_a.depth != tuple_b.depth:
        raise ChainLengthMismatch(
            f"chain depths differ: {tuple_a.depth} vs {tuple_b.depth}"
        )
    if not same_space(glue.left, tuple_a.space) or not same_space(glue.right, tuple_b.space):
        raise GlueMismatch("gluing does not join these tuple spaces")
    c = glue.cross
    total = hausdorff_of_matrix(c, range(len(c)), range(c.shape[1]))
    for ca, cb in zip(tuple_a.chain, tuple_b.chain):
        total += hausdorff_of_matrix(c, ca.indices, cb.indices)
    return total
