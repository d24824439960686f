"""Validated finite metric spaces, subsets, balls, and shortest-path closures.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedGraph,
    InvalidSubset,
    MetricValidationError,
    MetricViolation,
    NegativeRadius,
    PreconditionViolated,
)

DEFAULT_TOL_FACTOR = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A labelled point set with a validated distance matrix.

    ``tol`` is the tolerance used by every comparison involving this space's
    distances. ``pseudo`` permits zero off-diagonal entries (needed for glued
    ambients where distinct points may sit at distance zero).
    """

    labels: tuple
    dist: np.ndarray
    tol: float
    pseudo: bool = False

    def __post_init__(self):
        self.dist.flags.writeable = False

    def __len__(self):
        return len(self.labels)

    @cached_property
    def diameter(self):
        return float(self.dist.max()) if len(self) else 0.0

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidSubset(f"unknown label {label!r}") from None

    def subset(self, indices):
        ref = SubsetRef(tuple(sorted(set(int(i) for i in indices))))
        check_subset(self, ref)
        return ref

    def full_subset(self):
        return SubsetRef(tuple(range(len(self))))


@dataclass(frozen=True)
class SubsetRef:
    """Strictly increasing, nonempty point indices into a parent space."""

    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if not idx:
            raise InvalidSubset("subset must be nonempty")
        if any(int(i) != i or i < 0 for i in idx):
            raise InvalidSubset("indices must be nonnegative integers")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InvalidSubset("indices must be strictly increasing")

    def __len__(self):
        return len(self.indices)

    def __contains__(self, i):
        return i in set(self.indices)

    def issubset(self, other):
        return set(self.indices) <= set(other.indices)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive edge weights; substrate for closures."""

    n: int
    edges: tuple  # of (i, j, weight)

    def __post_init__(self):
        for i, j, w in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise InvalidSubset(f"bad edge endpoints ({i}, {j})")
            if not w > 0:
                raise InvalidSubset(f"edge ({i}, {j}) has non-positive weight {w}")


def check_subset(space, ref):
    if ref.indices[-1] >= len(space):
        raise InvalidSubset(
            f"index {ref.indices[-1]} out of range for a {len(space)}-point space"
        )
    return ref


def _cells(mask):
    """The indices of the true cells of ``mask``, as ``np.argwhere`` lists
    them. Most inputs are clean, and ``any`` costs far less than ``argwhere``."""
    return np.argwhere(mask) if mask.any() else ()


def find_violations(matrix, tol, pseudo=False):
    """Every metric-axiom failure of a square matrix, as structured records."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MetricValidationError([MetricViolation("not_square", m.shape)])
    if not np.isfinite(m).all():
        i, j = map(int, np.argwhere(~np.isfinite(m))[0])
        raise MetricValidationError([MetricViolation("non_finite", (i, j))])
    n = len(m)
    out = []
    asym = np.abs(m - m.T) > tol
    for i, j in _cells(np.triu(asym, k=1)):
        out.append(MetricViolation("asymmetric", (int(i), int(j))))
    for (i,) in _cells(np.abs(np.diag(m)) > tol):
        out.append(MetricViolation("nonzero_diagonal", (int(i),)))
    off = ~np.eye(n, dtype=bool)
    for i, j in _cells((m < -tol) & off):
        out.append(MetricViolation("negative_entry", (int(i), int(j))))
    if not pseudo:
        for i, j in _cells((m <= tol) & off):
            out.append(MetricViolation("zero_off_diagonal", (int(i), int(j))))
    if not out:
        # only meaningful once the matrix is symmetric and nonnegative:
        # d[i, k] <= d[i, j] + d[j, k] + tol for all triples
        bad = m[:, None, :] > m[:, :, None] + m[None, :, :] + tol
        for i, j, k in _cells(bad):
            out.append(MetricViolation("triangle", (int(i), int(j), int(k))))
    return out


def validate_metric(matrix, tol=None, labels=None, pseudo=False):
    """Validate a square matrix and wrap it as a FiniteMetricSpace.

    Raises MetricValidationError carrying the full violation list otherwise.
    The default tolerance is 1e-9 times the largest entry; a given one must
    be finite and nonnegative, so that a closed ball holds its centre.
    """
    m = np.asarray(matrix, dtype=float)
    if tol is None:
        tol = DEFAULT_TOL_FACTOR * float(m.max(initial=0.0))
    if tol < 0:
        raise MetricValidationError([MetricViolation("negative_tolerance", (tol,))])
    if not np.isfinite(tol):
        raise MetricValidationError([MetricViolation("non_finite_tolerance", (tol,))])
    violations = find_violations(m, tol, pseudo=pseudo)
    if violations:
        raise MetricValidationError(violations)
    canonical = (m + m.T) / 2.0
    np.fill_diagonal(canonical, 0.0)
    if labels is None:
        labels = tuple(f"p{i}" for i in range(len(m)))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(m) or len(set(labels)) != len(labels):
            raise MetricValidationError([MetricViolation("bad_labels", (len(labels),))])
    return FiniteMetricSpace(labels=labels, dist=canonical, tol=float(tol), pseudo=pseudo)


def subset_distances(space, ref):
    """Distance from every point to the subset (min over members)."""
    return space.dist[:, ref.indices].min(axis=1)


def ball(space, center, r, kind):
    """Indices within r of the center set: open uses d < r, closed d <= r + tol.

    Returns a SubsetRef, or None for the one empty case (open ball, r = 0).
    """
    if r < 0:
        raise NegativeRadius(f"radius {r} < 0")
    if kind not in ("open", "closed"):
        raise PreconditionViolated("kind must be 'open' or 'closed'", kind)
    check_subset(space, center)
    d = subset_distances(space, center)
    if kind == "open":
        mask = d < r
    else:
        mask = d <= r + space.tol
    idx = tuple(int(i) for i in np.flatnonzero(mask))
    if not idx:
        return None
    return SubsetRef(idx)


def diam(space, ref):
    """Largest pairwise distance within the subset; 0 for singletons."""
    check_subset(space, ref)
    sub = space.dist[np.ix_(ref.indices, ref.indices)]
    return float(sub.max())


# Elements per block of two-step path sums in ``_fw_fixpoint``'s fixpoint
# test: 64 KiB of float64, or one row's sums when those are more
_TWO_STEP_BLOCK = 1 << 13


def _fw_fixpoint(mat):
    """Shortest-path closure of a weighted adjacency matrix (inf: no edge).

    Floyd-Warshall passes repeat until one would change nothing. At that
    fixpoint no entry exceeds a two-step path in floating point, which is the
    triangle check validate_metric runs, so the result passes it with
    tolerance zero.
    Each pivot builds its two-step paths in full, then lowers the matrix in
    place: a pass holds three N x N arrays, never an N^3 one.
    A pass changes nothing iff no two-step path d[i, k] + d[k, j] is below
    d[i, j]: until the first pivot k with such a path, every pivot leaves the
    matrix as it is, and pivot k lowers (i, j). So after each pass that test,
    on the same sums in blocks of whole rows of about 64 KiB, replaces a
    second pass.
    """
    d = mat.copy()
    n = len(d)
    while True:
        for k in range(n):
            np.minimum(d, d[:, k, None] + d[k], out=d)
        if not _has_shortcut(d):
            return d


def _has_shortcut(d):
    """Whether some two-step path d[i, k] + d[k, j] is below d[i, j]."""
    rows = max(1, _TWO_STEP_BLOCK // d.size) if d.size else 1
    for i in range(0, len(d), rows):
        block = d[i : i + rows]
        if (block[:, :, None] + d < block[:, None, :]).any():  # [i, k, j]: d[i, k] + d[k, j] < d[i, j]
            return True
    return False


def shortest_path_closure(graph):
    """All-pairs shortest-path metric of a connected weighted graph."""
    n = graph.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in graph.edges:
        d[i, j] = min(d[i, j], float(w))
        d[j, i] = d[i, j]
    d = _fw_fixpoint(d)
    if not np.isfinite(d).all():
        i, j = map(int, np.argwhere(~np.isfinite(d))[0])
        raise DisconnectedGraph(f"no path between vertices {i} and {j}")
    return FiniteMetricSpace(
        labels=tuple(f"v{i}" for i in range(n)), dist=d, tol=0.0, pseudo=False
    )


def restrict(space, ref):
    """The induced subspace on a subset; inherits tolerance and validity."""
    check_subset(space, ref)
    idx = list(ref.indices)
    sub = space.dist[np.ix_(idx, idx)].copy()
    return FiniteMetricSpace(
        labels=tuple(space.labels[i] for i in idx),
        dist=sub,
        tol=space.tol,
        pseudo=space.pseudo,
    )


def same_space(s1, s2, tol=None):
    """Same labels and the same matrix (within the larger of the tolerances)."""
    if s1 is s2:
        return True
    if s1.labels != s2.labels or len(s1) != len(s2):
        return False
    if tol is None:
        tol = max(s1.tol, s2.tol)
    return bool(np.abs(s1.dist - s2.dist).max(initial=0.0) <= tol)
