"""Admissible metrics on disjoint unions of two finite spaces.

A gluing is stored as the cross-distance block only: within-space distances
are always read from the two member spaces, never duplicated, so restriction
exactness is structural. Every constructor returns a fully validated
CrossMetric; validation checks all four mixed triangle-inequality families
exhaustively (vectorized) within the working tolerance.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainTooSmall,
    EmptyConstraintSet,
    GluingInfeasible,
    MetricValidationError,
    MetricViolation,
    NetLengthMismatch,
    NonPositiveEpsilon,
    PreconditionViolated,
)
from .hausdorff import hausdorff_of_matrix
from .metric_core import SubsetRef, _cells, _fw_fixpoint, ball, check_subset, subset_distances


@dataclass(frozen=True, eq=False)
class CrossMetric:
    """An admissible gluing of two spaces, stored as its cross-distance block.

    ``pseudo`` permits zero cross entries (pseudometric gluings); the distance
    infima computed by the solvers are taken over these.
    """

    left: object
    right: object
    cross: np.ndarray
    pseudo: bool = False

    def __post_init__(self):
        c = np.asarray(self.cross, dtype=float)
        if c.shape != (len(self.left), len(self.right)):
            raise MetricValidationError([MetricViolation("cross_shape", c.shape)])
        object.__setattr__(self, "cross", c)
        c.flags.writeable = False
        violations = self._violations()
        if violations:
            raise MetricValidationError(violations)

    @cached_property
    def tol(self):
        return max(self.left.tol, self.right.tol)

    def _violations(self):
        c, tol = self.cross, self.tol
        dl, dr = self.left.dist, self.right.dist
        out = []
        if not np.isfinite(c).all():
            i, j = map(int, np.argwhere(~np.isfinite(c))[0])
            return [MetricViolation("non_finite", (i, j))]
        if (c < -tol).any():
            i, j = map(int, np.argwhere(c < -tol)[0])
            return [MetricViolation("negative_entry", (i, j))]
        if not self.pseudo and (c <= tol).any():
            i, j = map(int, np.argwhere(c <= tol)[0])
            out.append(MetricViolation("zero_cross_entry", (i, j)))
        # cross[i, j] <= d_L(i, i') + cross[i', j]
        m = (dl[:, :, None] + c[None, :, :]).min(axis=1)
        for i, j in _cells(c > m + tol):
            out.append(MetricViolation("cross_vs_left_path", (int(i), int(j))))
        # cross[i, j] <= cross[i, j'] + d_R(j', j)
        m = (c[:, :, None] + dr[None, :, :]).min(axis=1)
        for i, j in _cells(c > m + tol):
            out.append(MetricViolation("cross_vs_right_path", (int(i), int(j))))
        # d_L(i, i') <= cross[i, j] + cross[i', j]
        s = (c[:, None, :] + c[None, :, :]).min(axis=2)
        for i, i2 in _cells(dl > s + tol):
            out.append(MetricViolation("left_vs_cross_pair", (int(i), int(i2))))
        # d_R(j, j') <= cross[i, j] + cross[i, j']
        s = (c[:, :, None] + c[:, None, :]).min(axis=0)
        for j, j2 in _cells(dr > s + tol):
            out.append(MetricViolation("right_vs_cross_pair", (int(j), int(j2))))
        return out

    def transposed(self):
        """The same gluing viewed from the other side."""
        return CrossMetric(self.right, self.left, self.cross.T.copy(), self.pseudo)


@dataclass(frozen=True)
class EpsAdmissibilityReport:
    """Outcome of the (eps; A, B) admissibility conditions for one gluing."""

    eps: float
    hausdorff_ab: float
    covering_left: bool
    covering_right: bool
    verdict: bool


def glue_from_constraints(left, right, edges, pseudo=False):
    """Minimal gluing whose cross distances respect the given caps.

    Builds the union graph of both spaces plus one cross edge per (i, j, cap),
    closes it by shortest paths, and returns the induced cross block, provided
    the closure does not shortcut any within-space distance (checked within
    tolerance). Any other admissible gluing respecting the same caps dominates
    the result entrywise.
    """
    edges = list(edges)
    if not edges:
        raise EmptyConstraintSet("at least one cross edge is required for a finite gluing")
    tol = max(left.tol, right.tol)
    for i, j, cap in edges:
        if not (0 <= i < len(left) and 0 <= j < len(right)):
            raise PreconditionViolated("edge endpoints out of range", (i, j))
        if cap < 0 or (cap == 0 and not pseudo):
            raise PreconditionViolated("caps must be positive (nonnegative if pseudo)", (i, j, cap))
    nl, nr = len(left), len(right)
    big = np.full((nl + nr, nl + nr), np.inf)
    big[:nl, :nl] = left.dist
    big[nl:, nl:] = right.dist
    for i, j, cap in edges:
        big[i, nl + j] = min(big[i, nl + j], float(cap))
        big[nl + j, i] = big[i, nl + j]
    closed = _fw_fixpoint(big)
    shortcut_l = closed[:nl, :nl] < left.dist - tol
    if shortcut_l.any():
        i, j = map(int, np.argwhere(shortcut_l)[0])
        raise GluingInfeasible(("left", i, j))
    shortcut_r = closed[nl:, nl:] < right.dist - tol
    if shortcut_r.any():
        i, j = map(int, np.argwhere(shortcut_r)[0])
        raise GluingInfeasible(("right", i, j))
    return CrossMetric(left, right, closed[:nl, nl:].copy(), pseudo)


def glue_from_approximation(left, right, f, eps):
    """Gluing induced by a map with distortion below eps.

    cross[x, y] = eps/2 + min over x' of (d_L(x, x') + d_R(f(x'), y)); in
    particular cross[x, f(x)] = eps/2 exactly.
    """
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    f = np.asarray(list(f), dtype=int)
    if f.shape != (len(left),):
        raise PreconditionViolated("f must assign a right index to every left point")
    if f.min(initial=0) < 0 or f.max(initial=0) >= len(right):
        raise PreconditionViolated("f has out-of-range values")
    m = right.dist[f, :]  # row x' holds d_R(f(x'), y)
    cross = eps / 2.0 + (left.dist[:, :, None] + m[None, :, :]).min(axis=1)
    return CrossMetric(left, right, cross, pseudo=False)


def glue_from_rough_isometry(left, right, f, a, eps, radius):
    """Gluing induced by a rough isometry defined on a closed ball around A.

    cross[x, y] = 3 eps/2 + inf over u in the closed R-ball of A and v within
    eps of f(u) of (d_L(x, u) + d_R(y, v)).
    """
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    if not eps < radius:
        raise PreconditionViolated("requires eps < R", (eps, radius))
    check_subset(left, a)
    domain = ball(left, a, radius, "closed")
    missing = [u for u in domain.indices if u not in f]
    if missing:
        raise DomainTooSmall(f"map undefined on ball indices {missing}")
    tol = max(left.tol, right.tol)
    dom = list(domain.indices)
    best = np.empty((len(dom), len(right)))
    for row, u in enumerate(dom):
        fu = int(f[u])
        if not 0 <= fu < len(right):
            raise PreconditionViolated("f has out-of-range values", (u, fu))
        allowed = right.dist[:, fu] <= eps + tol  # v = f(u) always qualifies
        best[row] = right.dist[:, allowed].min(axis=1)
    cross = 1.5 * eps + (left.dist[:, dom][:, :, None] + best[None, :, :]).min(axis=1)
    return CrossMetric(left, right, cross, pseudo=False)


def glue_from_nets(left, right, net_l, net_r, eps):
    """Gluing induced by paired nets: min over i of (d to net_l[i]) + (d to net_r[i]) + eps."""
    net_l, net_r = list(net_l), list(net_r)
    if len(net_l) != len(net_r):
        raise NetLengthMismatch(f"net lengths differ: {len(net_l)} vs {len(net_r)}")
    if not net_l:
        raise NetLengthMismatch("nets must be nonempty")
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    a = left.dist[:, net_l]
    b = right.dist[:, net_r]
    cross = (a[:, None, :] + b[None, :, :]).min(axis=2) + eps
    return CrossMetric(left, right, cross, pseudo=False)


def check_eps_admissible(glue, a, b, eps):
    """Evaluate the (eps; A, B) admissibility conditions for one gluing.

    verdict is true when d_H(A, B) stays below eps and the closed (1/eps)-ball
    around each subset is covered by the eps-neighborhood of the other space.
    Strict inequalities are tested non-strictly with the gluing tolerance.
    """
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    check_subset(glue.left, a)
    check_subset(glue.right, b)
    tol = glue.tol
    c = glue.cross
    d_ab = hausdorff_of_matrix(c, a.indices, b.indices)
    radius = 1.0 / eps
    in_ball_l = subset_distances(glue.left, a) <= radius + tol
    covering_left = bool((c[in_ball_l, :].min(axis=1) <= eps + tol).all())
    in_ball_r = subset_distances(glue.right, b) <= radius + tol
    covering_right = bool((c[:, in_ball_r].min(axis=0) <= eps + tol).all())
    verdict = bool(d_ab <= eps + tol) and covering_left and covering_right
    return EpsAdmissibilityReport(
        eps=float(eps),
        hausdorff_ab=d_ab,
        covering_left=covering_left,
        covering_right=covering_right,
        verdict=verdict,
    )


def transfer_subset(glue, a, n):
    """Nearest right-side counterpart of each subset point, ties to lowest index."""
    if int(n) != n or n < 1:
        raise PreconditionViolated("n must be a positive integer", n)
    check_subset(glue.left, a)
    picks = sorted({int(glue.cross[i, :].argmin()) for i in a.indices})
    return SubsetRef(tuple(picks))
