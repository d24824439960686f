"""Covering, packing, and separation counts, with family certificates.

Counts are exact: set covers by branch and bound, packings and separations by
maximum clique over bitset adjacency. Greedy shortcuts are deliberately absent
because these numbers feed inequality checks where an approximation would
manufacture false failures.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadius, PreconditionViolated
from .gluing import check_eps_admissible
from .metric_core import ball, check_subset


@dataclass(frozen=True)
class CountingProfile:
    """Tabulated eps -> count samples for one counting function."""

    kind: str
    samples: tuple  # of (eps, value)


def _require_positive_radius(r):
    if not r > 0:
        raise NegativeRadius(f"radius must be positive, got {r}")


def _min_cover(member_masks, universe_mask):
    """Exact minimum set cover via branch and bound on the rarest element."""
    masks = sorted(set(member_masks), key=lambda m: -bin(m).count("1"))
    masks = [m & universe_mask for m in masks if m & universe_mask]
    # greedy for the initial upper bound
    unc, greedy = universe_mask, 0
    while unc:
        best = max(masks, key=lambda m: bin(m & unc).count("1"))
        unc &= ~best
        greedy += 1
    best_count = greedy

    def covers_of(element_bit):
        return [m for m in masks if m & element_bit]

    def bnb(uncovered, count):
        nonlocal best_count
        if not uncovered:
            best_count = min(best_count, count)
            return
        if count + 1 >= best_count:
            return
        rarest, rarest_covers = None, None
        u = uncovered
        while u:
            bit = u & -u
            u ^= bit
            c = covers_of(bit)
            if rarest is None or len(c) < len(rarest_covers):
                rarest, rarest_covers = bit, c
        for m in sorted(rarest_covers, key=lambda m: -bin(m & uncovered).count("1")):
            bnb(uncovered & ~m, count + 1)

    bnb(universe_mask, 0)
    return best_count


def _max_clique(adj_masks):
    """Maximum clique size over bitset adjacency (Bron-Kerbosch with pivot)."""
    n = len(adj_masks)
    best = 0

    def bk(size, p, x):
        nonlocal best
        if p == 0 and x == 0:
            best = max(best, size)
            return
        if size + bin(p).count("1") <= best:
            return
        pivot, pivot_deg = -1, -1
        px = p | x
        u = px
        while u:
            bit = u & -u
            u ^= bit
            v = bit.bit_length() - 1
            deg = bin(adj_masks[v] & p).count("1")
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        cand = p & ~adj_masks[pivot]
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            bk(size + 1, p & adj_masks[v], x & adj_masks[v])
            p &= ~bit
            x |= bit
        return

    bk(0, (1 << n) - 1, 0)
    return best


def _center_masks(space, target, centers, r):
    """Per center, the bitmask of the ``target`` points inside its open r-ball."""
    inside = space.dist[np.ix_(target, centers)] < r
    return [sum(1 << int(k) for k in np.flatnonzero(col)) for col in inside.T]


def covering_outer(space, a, r):
    """Minimal number of open r-balls with centers anywhere in the space covering A."""
    _require_positive_radius(r)
    check_subset(space, a)
    return _min_cover(_center_masks(space, a.indices, range(len(space)), r), (1 << len(a)) - 1)


def covering_inner(space, a, r):
    """Minimal number of open r-balls with centers inside A covering A."""
    _require_positive_radius(r)
    check_subset(space, a)
    return _min_cover(_center_masks(space, a.indices, a.indices, r), (1 << len(a)) - 1)


def packing(space, a, r):
    """Largest number of A-points whose open r-balls are disjoint in the ambient space."""
    _require_positive_radius(r)
    check_subset(space, a)
    idx = list(a.indices)
    inside = space.dist[:, idx] < r  # inside[z, k]: z lies in the ball around idx[k]
    meets = inside.T @ inside  # balls k and l share a point
    k = len(idx)
    adj = []
    for i in range(k):
        m = 0
        for j in range(k):
            if i != j and not meets[i, j]:
                m |= 1 << j
        adj.append(m)
    return max(_max_clique(adj), 1)


def separation(space, a, r):
    """Largest cardinality >= 2 of an r-separated subset of A, or None.

    The cardinality clause makes the count undefined below two; that case is
    reported as None rather than a number.
    """
    _require_positive_radius(r)
    check_subset(space, a)
    idx = list(a.indices)
    k = len(idx)
    tol = space.tol
    adj = []
    for i in range(k):
        m = 0
        for j in range(k):
            if i != j and space.dist[idx[i], idx[j]] >= r - tol:
                m |= 1 << j
        adj.append(m)
    best = _max_clique(adj)
    return best if best >= 2 else None


def family_certificate(family, eps_grid):
    """Precompactness certificate profiles over a family of pairs.

    For each eps, the packing profile takes the family-wide maximum of
    packing(eps) over the closed (1/eps)-ball around the distinguished subset,
    and the covering profile does the same with inner coverings.
    """
    if not family:
        raise PreconditionViolated("family must be nonempty")
    pi_samples, nu_samples = [], []
    for eps in eps_grid:
        if not eps > 0:
            raise PreconditionViolated("eps grid entries must be positive", eps)
        p_best, n_best = 0, 0
        for pair in family:
            around = ball(pair.space, pair.a, 1.0 / eps, "closed")
            p_best = max(p_best, packing(pair.space, around, eps))
            n_best = max(n_best, covering_inner(pair.space, around, eps))
        pi_samples.append((float(eps), p_best))
        nu_samples.append((float(eps), n_best))
    return (
        CountingProfile("family-packing", tuple(pi_samples)),
        CountingProfile("family-inner-covering", tuple(nu_samples)),
    )


def check_count_transfer(pair_p, pair_q, glue, eps, r, radius):
    """Count-transfer inequalities across an (eps; A, B)-admissible gluing.

    Covering clause (needs radius <= 1/eps): the outer (r + 2 eps)-covering of
    the closed radius-ball of B is at most the inner r-covering of the closed
    radius-ball of A. Packing clause (needs radius + r <= 1/eps): the
    (r + 2 eps)-packing of the closed (radius - 2 eps)-ball of B is at most
    the r-packing of the closed radius-ball of A. Counts are intrinsic to each
    space; the gluing only gates the hypothesis.
    """
    _require_positive_radius(r)
    _require_positive_radius(radius)
    if not eps < 0.5:
        raise PreconditionViolated("requires eps < 1/2", eps)
    report = check_eps_admissible(glue, pair_p.a, pair_q.a, eps)
    if not report.verdict:
        raise PreconditionViolated("gluing is not (eps; A, B)-admissible", report)
    left, right = pair_p.space, pair_q.space
    tol = glue.tol
    out = {"eps": float(eps), "r": float(r), "radius": float(radius), "clauses": {}}

    cov_applicable = radius <= 1.0 / eps + tol
    clause = {"applicable": bool(cov_applicable)}
    if cov_applicable:
        ball_b = ball(right, pair_q.a, radius, "closed")
        ball_a = ball(left, pair_p.a, radius, "closed")
        m_val = covering_outer(right, ball_b, r + 2 * eps)
        n_val = covering_inner(left, ball_a, r)
        clause.update({"outer_of_right": m_val, "inner_of_left": n_val, "holds": m_val <= n_val})
    out["clauses"]["covering"] = clause

    pack_applicable = radius + r <= 1.0 / eps + tol
    clause = {"applicable": bool(pack_applicable)}
    if pack_applicable:
        shrunk = radius - 2 * eps
        if shrunk < 0:
            p_right = 0
        else:
            ball_b = ball(right, pair_q.a, shrunk, "closed")
            p_right = packing(right, ball_b, r + 2 * eps)
        ball_a = ball(left, pair_p.a, radius, "closed")
        p_left = packing(left, ball_a, r)
        clause.update({"right_packing": p_right, "left_packing": p_left, "holds": p_right <= p_left})
    out["clauses"]["packing"] = clause

    out["all_hold"] = all(
        c.get("holds", True) for c in out["clauses"].values() if c["applicable"]
    )
    return out
