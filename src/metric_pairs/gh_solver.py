"""Gromov-Hausdorff solvers: compact and truncated distances, approximation
and rough-isometry search, isometry detection, convergence verification.

Distances are reported as brackets [lo, hi]: hi is carried by an explicit
gluing certificate, lo by exhausted bisection, and no operation claims an
exact real. Witness selection is lexicographic-first everywhere (variables in
a fixed order, values ascending), which makes every result reproducible.

Feasibility of a cap assignment (does some admissible gluing place each point
within its cap of its assigned partner?) is decided by a pairwise condition:
caps s, s' on point pairs (u, v), (u', v') are jointly realizable iff

    |d_X(u, u') - d_Y(v, v')| <= s + s'   for every pair of capped edges.

Replacing the last Y-segment of any alternating path by the within-X distance
shows longer crossings never beat this two-edge condition, so it is exactly
the no-shortcut test of the shortest-path closure; certificates are still
materialized (and re-validated) through glue_from_constraints.

At fixed caps the condition becomes one tensor of allowed-value bitmasks per
query, one row per ordered variable pair. A bit-parallel arc-consistency
fixpoint over that tensor refutes most infeasible caps before any search, and
one backtracking search over all variables decides the rest.

One forward-checking kernel, ``_backtrack``, serves every map search: cap
assignments, approximations, rough isometries, isometries and convergence
checks are each bitmask domains and a table of pairwise-compatible values,
and each is a single search. Image clauses ("f(A) comes eps-close to every
point of B") are not pairwise; approximations, rough isometries and
convergence checks forward-check them with one per-node hook,
``_image_hook``, which drops a value once some target lies beyond eps of
every value the clause's image variables can still take. The compact pair
and tuple distances add a hook of their own: it carries the running per-class
mismatch maxima down the search and prunes once their LP-minimal cap total
exceeds the bisected total. That LP optimum is half a maximum-weight
assignment of the maxima, which the Hungarian method finds exactly, so the
solvers need numpy alone. An approximation pair (f, g) is one search over
the variables of f, then those of g, with the composition clauses as binary
constraints between them and two image clauses: f(A) near B and g(B) near A.
A truncated pair is the depth-1 tuple layout with both caps at eps.

One driver, ``_bisect``, runs every bisection: a step at the midpoint
returns (hit, bound), where a hit proves the upper end bound <= mid and a
refutation the lower end bound >= mid, clamped to the upper end. It stops
at width resolution / 2 for the compact and truncated distances and at
resolution for approximations and convergence checks.

The convergence check bisects from 0 and searches every step. The other
bisections use a floor no map can beat: no assignment's largest mismatch
lies below the largest of its variable pairs' smallest mismatches (the
distortion bound, Burago, Burago & Ivanov 2001, section 7.3). The compact
distances start their total at the LP value of the per-class floor. The
truncated distance searches the whole system once at its floor, and that
assignment, restricted to the balls of each step, settles every step whose
threshold reaches it. The approximation bisection refutes every step below
its floor and searches first at the smallest halving point above it. Steps
are decided by exact monotone inference from the floors and from the
witnesses found, and searched only where that cannot decide them, so every
bracket and witness is that of searching every step.
"""

import copy
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ChainLengthMismatch,
    InvalidBracket,
    LengthMismatch,
    NonPositiveEpsilon,
    PreconditionViolated,
    ResolutionTooCoarse,
    SizeLimitExceeded,
)
from .gluing import check_eps_admissible, glue_from_constraints
from .hausdorff import MetricTuple, hausdorff_of_matrix, tuple_hausdorff
from .metric_core import ball, subset_distances

DEFAULT_ASSIGNMENT_BUDGET = 10_000_000
_MAX_POINTS = 62  # bitmask domains live in a single int
_TRUNCATION_CAP = 0.5  # the truncated distance is min(1/2, ...)


def _budget_limit(budget):
    """The assignment budget: ``budget``, else METRIC_PAIRS_BUDGET, else the
    default. Either source must give an integer of at least 1."""
    if budget is None:
        budget = os.environ.get("METRIC_PAIRS_BUDGET") or DEFAULT_ASSIGNMENT_BUDGET
    try:
        limit = int(budget)
    except (TypeError, ValueError):
        raise PreconditionViolated("budget must be an integer", budget) from None
    if limit < 1:
        raise PreconditionViolated("budget must be at least 1", limit)
    return limit


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.limit = limit
        self.left = limit

    def tick(self, n=1):
        self.left -= n
        if self.left < 0:
            raise SizeLimitExceeded(self.limit)


def _bisect(step, lo, hi, width, tol):
    """Narrow [lo, hi] until it is at most ``width`` wide or hi is within
    ``tol`` of zero, and return it. ``step(mid)`` returns (hit, bound): a hit
    proves hi = bound <= mid, and a refutation proves lo = bound >= mid,
    clamped to at most hi, as is ``lo`` on entry."""
    lo = min(lo, hi)
    while hi - lo > width and hi > tol:
        hit, bound = step((hi + lo) / 2)
        if hit:
            hi = bound
        else:
            lo = min(bound, hi)
    return lo, hi


@dataclass(frozen=True)
class ApproximationPair:
    """Maps f: X -> Y and g: Y -> X witnessing an eps-approximation."""

    f: tuple
    g: tuple
    eps: float


@dataclass(frozen=True)
class DistanceBracket:
    """lo <= true infimum <= hi, with hi - lo at most the requested resolution.

    ``tol`` is the spaces' tolerance. A certified hi carries up to 2 * tol of
    slack, which the width invariant allows for.
    """

    lo: float
    hi: float
    resolution: float
    certificate: object = None  # CrossMetric carrying the hi side, when available
    lo_reason: str = ""
    witness: object = None
    tol: float = 0.0

    def __post_init__(self):
        if not (self.lo <= self.hi + self.tol):
            raise InvalidBracket(f"bracket inverted: [{self.lo}, {self.hi}]")
        if not (self.hi - self.lo <= self.resolution + 2 * self.tol):  # NaN fails too
            raise InvalidBracket(
                f"bracket wider than resolution: [{self.lo}, {self.hi}] vs {self.resolution}"
            )

    def contains_zero(self):
        return self.lo <= 0.0 <= self.hi


@dataclass(frozen=True)
class RoughIsometryWitness:
    """A partial map on the closed R-ball of A with distortion below eps."""

    f: dict
    eps: float
    radius: float


@dataclass(frozen=True)
class ConvergenceSchedule:
    eps_seq: tuple
    radius_seq: tuple

    def __post_init__(self):
        e, r = self.eps_seq, self.radius_seq
        if len(e) != len(r) or not e:
            raise LengthMismatch("schedules must be nonempty and of equal length")
        if not all(x > 0 for x in (*e, *r)):  # NaN is not positive either
            raise PreconditionViolated("schedule entries must be positive")
        if any(a <= b for a, b in zip(e, e[1:])):
            raise PreconditionViolated("eps_seq must be strictly decreasing")
        if any(a >= b for a, b in zip(r, r[1:])):
            raise PreconditionViolated("radius_seq must be strictly increasing")


def _mask_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_size(*spaces):
    """Bitmask domains live in a single int64, so value spaces stop at 62 points."""
    if any(len(s) > _MAX_POINTS for s in spaces):
        raise SizeLimitExceeded(_MAX_POINTS, f"a searched space may hold at most {_MAX_POINTS} points (bitmask cap)")


def _bit_weights(n):
    return np.left_shift(1, np.arange(n), dtype=np.int64)


def _mismatches(dx, dy):
    """[i, j, p, q] = |dx[i, j] - dy[p, q]|, in one allocation."""
    m = dx[:, :, None, None] - dy[None, None, :, :]
    return np.abs(m, out=m)


def _compat_table(mismatch, bound):
    """Pairwise compatibility of maps, from their ``_mismatches``: entry
    [i, j, p] is the bitmask of values q of point j with mismatch[i, j, p, q]
    <= bound, given value p of point i."""
    return (mismatch <= bound).astype(np.int64) @ _bit_weights(mismatch.shape[3])


def _backtrack(todo, doms, rows, tick, lexicographic=True, hook=None, state=None):
    """Forward-checking backtracking over bitmask domains: an assignment of
    the variables ``todo`` as {variable: value}, or None.

    ``doms[i]`` is the bitmask of values of variable i, and ``rows`` the
    (V, V, n) int64 tensor whose entry [i, j, p] is the bitmask of values of
    j compatible with value p of i. Its column ``rows[i, :, p]`` becomes a
    list the first time the search visits value p of i, so a search pays for
    the values it visits, not for the whole tensor. Assigning a value prunes
    every unassigned domain, and a wipeout drops the value, so only subtrees
    holding no compatible assignment are skipped. ``tick`` is called once
    per value tried.

    ``hook(state, i, p, out, doms)`` may carry a state down the search:
    given the state of the partial assignment ``out``, it returns the state
    once variable i takes value p, or None to drop that value; ``doms`` holds
    the pruned domains of the variables still unassigned. ``state`` belongs
    to the empty assignment. A solution is a complete assignment of
    compatible values that the hook accepted at every step.

    Lexicographic mode assigns the variables in the order of ``todo`` with
    values ascending, so the assignment returned is the lexicographically
    first solution; otherwise the most constrained variable is assigned
    first, which refutes far faster and cannot change a verdict.
    """
    if any(doms[i] == 0 for i in todo):
        return None
    out = {}
    width = rows.shape[2]
    visited = [None] * (rows.shape[0] * width)  # [i * width + p]: rows[i, :, p] as a list

    def rec(doms, todo, state):
        if not todo:
            return True
        if lexicographic:
            level = todo[0]
        else:
            level = min(todo, key=lambda i: doms[i].bit_count())  # ties: earliest in todo
        rest = [j for j in todo if j != level]
        for p in _mask_bits(doms[level]):
            tick()
            row = visited[level * width + p]
            if row is None:
                row = visited[level * width + p] = rows[level, :, p].tolist()
            nxt = {}
            for j in rest:
                nd = doms[j] & row[j]
                if nd == 0:
                    break
                nxt[j] = nd
            else:  # no domain wiped out
                child = state
                if hook is not None:
                    child = hook(state, level, p, out, nxt)
                    if child is None:
                        continue
                out[level] = p
                if rec(nxt, rest, child):
                    return True
                del out[level]  # ``out`` holds exactly the current path
        return False

    if rec({i: doms[i] for i in todo}, todo, state):
        return out
    return None


class _MaskSearch:
    """Cap-assignment searches over two spaces, with bitmask forward checking.

    Each variable assigns a partner across the gluing: side 0 variables map a
    left point to a right point, side 1 the reverse. ``cls`` indexes the cap
    budget the variable's edge consumes. The mismatch of an ordered variable
    pair at values (p, q) is |d_L - d_R| of the induced point pairs; one
    family tensor, ``d_ll``, holds those mismatches for every combination.

    ``finalize`` builds every table a search needs once, in bulk. Each
    variable's domain is padded to one width by repeating its first value,
    which a minimum ignores. The mismatch of variables i and j at their p-th
    and q-th values then sits at ``head[i, p] + tail[j, q]`` of the flattened
    family tensor, where ``head`` holds the flat offsets of the induced point
    pair's first entries and ``tail`` those of its second ones. One gather at
    that index map, in row chunks over the upper columns so that no temporary
    approaches the size of the family tensor, gives ``pair_min[i, j]`` (i < j;
    zero on and below the diagonal), the smallest mismatch over both domains.

    ``_build_masks`` turns a per-class-pair threshold matrix into one
    (V, V, n) row tensor of allowed-value bitmasks, gathered through a slot
    index from one packed tensor per distinct threshold, over the union of
    both spaces' points.

    Every query first prunes all domains to the greatest arc-consistent ones
    with a bit-parallel fixpoint over the row tensor, then runs one
    ``_backtrack`` over all variables. A query at fixed caps uses the
    thresholds caps_i + caps_j + tol: ``feasible`` assigns the most
    constrained variable first (much faster at refuting, and the verdict
    cannot depend on order), and ``first_witness`` explores variables in
    their fixed order with values ascending, so the assignment it returns is
    the lexicographically first one. ``decide`` bounds the total of the caps
    instead of each cap.
    """

    _CHUNK = 1 << 16  # elements per gathered block

    def __init__(self, dl, dr, tol, budget):
        nl, nr = len(dl), len(dr)
        _check_size(dl, dr)
        self.dl, self.dr, self.tol = dl, dr, tol
        self._dl_rows, self._dr_rows = dl.tolist(), dr.tolist()
        self.nl, self.nr = nl, nr
        self.budget = budget
        self.d_ll = _mismatches(dl, dr)  # [x1, x2, y1, y2] = |d_L(x1, x2) - d_R(y1, y2)|
        self._bits = _bit_weights(max(nl, nr))
        self.vars = []  # (side, src, cls, domain_mask)
        self.meta = []  # (kind, key) labels for witness extraction

    def add_var(self, side, src, cls, domain, kind, key):
        mask = 0
        for v in domain:
            mask |= 1 << int(v)
        self.vars.append((side, int(src), int(cls), mask))
        self.meta.append((kind, key))

    def finalize(self):
        side, src, self._cls, self._full = (np.array(col, dtype=np.int64) for col in zip(*self.vars))
        self.domlists = [_mask_bits(m) for (_, _, _, m) in self.vars]
        self._point = src + side * self.nl  # source point in the union of both spaces
        side, src = side[:, None], src[:, None]
        # the left and the right point of each variable's edge, per value
        values = np.arange(len(self._bits))
        self._left_at = np.where(side == 0, src, values).tolist()
        self._right_at = np.where(side == 0, values, src).tolist()
        # the same per domain position, padded with the first value, which a minimum ignores
        width = max(map(len, self.domlists))
        dom = np.array([d + d[:1] * (width - len(d)) for d in self.domlists])
        left, right = np.where(side == 0, src, dom), np.where(side == 0, dom, src)
        head, tail = (left * self.nl * self.nr + right) * self.nr, left * self.nr * self.nr + right
        v, flat = len(self.vars), self.d_ll.reshape(-1)
        pair_min = np.zeros((v, v))
        step = max(1, self._CHUNK // (v * width * width))
        for start in range(0, v - 1, step):
            rows, cols = slice(start, min(start + step, v - 1)), slice(start + 1, None)
            pair_min[rows, cols] = flat[head[rows, None, :, None] + tail[None, cols, None, :]].min(axis=(2, 3))
        self._tables(np.triu(pair_min, 1))

    def _tables(self, pair_min):
        """The pair table, and the upper-triangle views the mask builder tests."""
        self.nvars = v = len(self.vars)
        self.pair_min = pair_min
        upper = np.triu_indices(v, 1)
        self._pair_min_upper = pair_min[upper]
        self._cls_upper = (self._cls[upper[0]], self._cls[upper[1]])

    def subsystem(self, keep):
        """The system restricted to the variables ``keep`` (ascending), in their
        order. Its tables are sub-matrices of this system's, and it shares the
        family tensor and the budget."""
        sub = copy.copy(self)
        sub.vars, sub.meta = [self.vars[k] for k in keep], [self.meta[k] for k in keep]
        sub.domlists = [self.domlists[k] for k in keep]
        sub._cls, sub._point, sub._full = self._cls[keep], self._point[keep], self._full[keep]
        sub._left_at, sub._right_at = [self._left_at[k] for k in keep], [self._right_at[k] for k in keep]
        sub._tables(self.pair_min[np.ix_(keep, keep)])
        return sub

    def class_floor(self, n_classes):
        """Entrywise lower bound on any assignment's per-class-pair mismatch maxima."""
        floor = np.zeros((n_classes, n_classes))
        ci, cj = self._cls_upper
        np.maximum.at(floor, (np.minimum(ci, cj), np.maximum(ci, cj)), self._pair_min_upper)
        return np.maximum(floor, floor.T)

    def _packed(self, theta):
        """Allowed-value bitmasks at one threshold, indexed by source points in
        the union of both spaces (left points first): [u, w, p] is the mask of
        values of a variable with source w compatible with value p of a
        variable with source u."""
        nl, nr = self.nl, self.nr
        packed = np.zeros((nl + nr, nl + nr, len(self._bits)), dtype=np.int64)
        ok = (self.d_ll <= theta).astype(np.int64)  # the one int64 copy
        # x_rows[x1, x2, y1] masks the y2, y_rows[y1, y2, x1] the x2 within theta
        x_rows = ok @ self._bits[:nr]
        y_rows = ok.transpose(2, 3, 0, 1) @ self._bits[:nl]
        packed[:nl, :nl, :nr], packed[nl:, :nl, :nl] = x_rows, x_rows.transpose(2, 1, 0)
        packed[nl:, nl:, :nl], packed[:nl, nl:, :nr] = y_rows, y_rows.transpose(2, 1, 0)
        return packed

    def _build_masks(self, theta):
        """Row tensor at a per-class-pair threshold matrix; None when some
        pair's smallest mismatch already exceeds its threshold.

        Row tensor entry [i, j, p] is the bitmask of values of variable j
        compatible with value p of variable i.
        """
        if (self._pair_min_upper > theta[self._cls_upper]).any():
            return None  # some pair is already impossible at these thresholds
        flat = theta.ravel().tolist()
        levels = list(dict.fromkeys(flat))  # one packed tensor per distinct threshold
        stack = np.stack([self._packed(t) for t in levels])
        slot = np.array([levels.index(t) for t in flat]).reshape(theta.shape)
        return stack[slot[self._cls[:, None], self._cls[None, :]], self._point[:, None], self._point[None, :]]

    def _arc_consistent(self, rows):
        """Greatest arc-consistent domains, or None on a wipeout.

        Every round keeps the values that find a compatible value in every
        other domain, for all variables at once. The greatest fixpoint is
        unique, so it equals what per-arc revision in any order reaches. The
        diagonal needs no mask: at nonnegative caps a value is compatible with
        itself (mismatch 0).
        """
        doms = self._full
        while True:
            supported = ((rows & doms[None, :, None]) != 0).all(axis=1)
            new = doms & (supported @ self._bits)
            if not new.all():
                return None
            if (new == doms).all():
                return new.tolist()
            doms = new

    def _pruned(self, theta):
        """Masks and arc-consistent domains at a per-class-pair threshold
        matrix, as (rows, domains); None when refuted before any search."""
        rows = self._build_masks(theta)
        if rows is None:
            return None
        doms = self._arc_consistent(rows)
        return None if doms is None else (rows, doms)

    def search(self, theta, lexicographic=False):
        """An assignment whose mismatches stay within the per-class-pair
        threshold matrix ``theta``, or None."""
        pruned = self._pruned(theta)
        if pruned is None:
            return None
        rows, doms = pruned
        got = _backtrack(list(range(self.nvars)), doms, rows, self.budget.tick, lexicographic)
        return None if got is None else [got[i] for i in range(self.nvars)]

    def _cap_thresholds(self, budgets):
        caps = np.asarray(budgets, dtype=float)
        return caps[:, None] + caps[None, :] + self.tol

    def largest_mismatch(self, values):
        """The largest mismatch between two variables at these values, the
        same float that ``d_ll`` holds for that pair."""
        left = [at[p] for at, p in zip(self._left_at, values)]
        right = [at[p] for at, p in zip(self._right_at, values)]
        return float(np.abs(self.dl[np.ix_(left, left)] - self.dr[np.ix_(right, right)]).max())

    def feasible(self, budgets):
        """Some satisfying assignment at these caps, or None (fast refutation)."""
        return self.search(self._cap_thresholds(budgets))

    def first_witness(self, budgets):
        """The lexicographically first satisfying assignment, or None."""
        return self.search(self._cap_thresholds(budgets), lexicographic=True)

    def decide(self, total, floor):
        """Search for an assignment whose caps can total at most ``total`` +
        tol; returns (hit, retry). ``floor`` is ``class_floor`` as nested lists.

        An assignment's cost is at least each of its mismatches across classes
        and half of each within a class, so masks at 2 * (total + tol) within
        a class and total + tol across classes, and their arc-consistent
        domains, lose no assignment costing at most total + tol, the bound the
        hook applies: a refutation proves that every assignment costs more
        than total + tol. All variables form one most-constrained-first
        search, whose hook carries the running maxima down and drops a value
        once they grow past the total.

        A hit is (values, maxima) with retry None: ``maxima`` are the
        assignment's per-class-pair mismatch maxima, and their
        ``_lp_min_total`` is its exact cost. A refutation gives hit None and
        retry, the smallest total above ``total`` at which this search could
        decide differently: the next mask level (``_next_mask_level``) or the
        cheapest LP value the hook dropped, less tol. Below retry the masks,
        the arc-consistent domains, the search order and every hook verdict
        are the ones here, so every total in [total, retry) is refuted too.
        """
        bound = total + self.tol
        pruned = self._pruned(np.where(np.eye(len(floor), dtype=bool), 2 * bound, bound))
        if pruned is None:
            return None, self._next_mask_level(total)
        rows, doms = pruned
        cls, left, right, dl, dr = self._cls.tolist(), self._left_at, self._right_at, self._dl_rows, self._dr_rows
        last = self.nvars - 1
        final = []
        dropped = float("inf")  # the cheapest LP value the hook dropped

        def hook(m, i, p, out, doms):
            nonlocal dropped
            ci, grown = cls[i], None
            dl_i, dr_i = dl[left[i][p]], dr[right[i][p]]
            for j, q in out.items():
                d = dl_i[left[j][q]] - dr_i[right[j][q]]
                if d < 0.0:
                    d = -d
                cj = cls[j]
                if d > (grown or m)[ci][cj]:
                    if grown is None:
                        grown = [r[:] for r in m]
                    grown[ci][cj] = grown[cj][ci] = d
            if grown is not None:
                cost = _lp_min_total(grown)[0]
                if cost > bound:
                    if cost < dropped:
                        dropped = cost
                    return None
                m = grown
            if len(out) == last:
                final.append(m)  # the search stops at its first complete assignment
            return m

        # every assignment's maxima reach the class floor, so the search starts there
        got = _backtrack(list(range(self.nvars)), doms, rows, self.budget.tick, False, hook=hook, state=floor)
        if got is None:
            return None, min(self._next_mask_level(total), dropped - self.tol)
        return ([got[i] for i in range(self.nvars)], final[-1]), None

    def _next_mask_level(self, total):
        """The smallest total above ``total`` at which ``decide`` builds other
        masks: d1 / 2 - tol for the first mismatch d1 above 2 * (total + tol),
        or d2 - tol for the first mismatch d2 above total + tol. Each scan
        allocates one boolean copy of ``d_ll``, an eighth of its bytes."""
        d_ll, bound = self.d_ll, total + self.tol
        within = np.min(d_ll, where=d_ll > 2 * bound, initial=np.inf)
        across = np.min(d_ll, where=d_ll > bound, initial=np.inf)
        return float(min(within / 2, across) - self.tol)


def _lp_min_total(m):
    """Minimize sum(t) subject to t_i + t_j >= m[i][j] (i <= j) and t >= 0,
    for a symmetric nonnegative nested list ``m``; returns (value, point).

    The optimum is half the largest weight of an assignment s of the classes
    to themselves (Egervary 1931). Lower bound: every feasible t has
    sum_i m[i][s(i)] <= sum_i (t_i + t_s(i)) = 2 sum(t). Attained: the
    Hungarian method (Kuhn 1955) ends with potentials U_i + V_j >= m[i][j]
    summing to that weight, so t_i = (U_i + V_i) / 2 is feasible, nonnegative
    (2 t_i >= m[i][i] >= 0) and totals half of it. Two classes, the frequent
    case of pairs, keep a closed form.
    """
    c = len(m)
    if c == 2:
        b0, b1 = m[0][0] / 2.0, m[1][1] / 2.0
        val = m[0][1] if m[0][1] > b0 + b1 else b0 + b1
        return val, [b0, val - b0]
    inf = float("inf")
    # potentials U and V, and row[j], the row (from 1) on column j; column 0 is a free slot
    u, v, row = [0.0] * (c + 1), [0.0] * (c + 1), [0] * (c + 1)
    for i in range(1, c + 1):  # add rows one at a time, each along a shortest augmenting path
        row[0], j0 = i, 0
        slack, way, used = [inf] * (c + 1), [0] * (c + 1), [False] * (c + 1)
        while row[j0]:
            used[j0] = True
            i0, delta, j1 = row[j0], inf, 0
            for j in range(1, c + 1):
                if not used[j]:
                    cur = u[i0] + v[j] - m[i0 - 1][j - 1]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(c + 1):
                if used[j]:
                    u[row[j]] -= delta
                    v[j] += delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            row[j0] = row[way[j0]]
            j0 = way[j0]
    weight = sum(m[row[j] - 1][j - 1] for j in range(1, c + 1))
    return weight / 2.0, [(u[i] + v[i]) / 2.0 for i in range(1, c + 1)]


def _tuple_vars(system, tuple_t, tuple_u):
    """Tuple layout: f and g in class 0, then the subset maps of chain level k
    both ways in class k + 1. Fixed order keeps witnesses lexicographic."""
    for x in range(system.nl):
        system.add_var(0, x, 0, range(system.nr), "f", x)
    for y in range(system.nr):
        system.add_var(1, y, 0, range(system.nl), "g", y)
    for k in range(tuple_t.depth):
        for a in tuple_t.chain[k].indices:
            system.add_var(0, a, k + 1, tuple_u.chain[k].indices, "alpha", (k, a))
        for b in tuple_u.chain[k].indices:
            system.add_var(1, b, k + 1, tuple_t.chain[k].indices, "beta", (k, b))


class _BallSystems:
    """The sub-systems of a truncated-pair system ``full``, one per pair of
    closed (1/eps)-balls of the distinguished subsets: the sub-system at eps
    keeps the variables whose source lies in its side's ball, with their
    values unchanged. Balls that hold every point give ``full`` itself.

    Every assignment found is kept as its number of variables and its largest
    mismatch L, and one rule settles steps with it: an assignment found on
    some balls restricts to every sub-system whose balls lie inside them, and
    there it passes every mask at a threshold eps + eps + tol that reaches L,
    since the masks compare the same floats. The balls shrink as eps grows
    and both sides shrink together, so a sub-system lies inside another iff
    it keeps at most as many variables. Such a step is feasible without
    building or searching its sub-system.

    No assignment beats the system's floor, the largest of its pairs'
    smallest mismatches (``pair_min``). When the floor is within the cap's
    threshold, ``full`` is searched once at the floor: an assignment there
    has L equal to the floor, the least any assignment can have, and it
    settles every step whose threshold reaches the floor.
    """

    def __init__(self, full, pair_p, pair_q):
        self.full = full
        self._near = [(subset_distances(x.space, x.a), x.space.tol) for x in (pair_p, pair_q)]
        self._systems = {}  # kept variables -> sub-system
        self._found = []  # (variables kept, largest mismatch) of each assignment found
        floor = float(full.pair_min.max())
        if floor <= _TRUNCATION_CAP + _TRUNCATION_CAP + full.tol:
            self._record(full, full.search(np.full((2, 2), floor)))

    def _record(self, system, values):
        if values is not None:
            self._found.append((system.nvars, system.largest_mismatch(values)))
        return values is not None

    def _keep(self, eps):
        radius = 1.0 / eps
        inside = np.concatenate([d <= radius + tol for d, tol in self._near])  # as ``ball`` tests closed balls
        return np.flatnonzero(inside[self.full._point])

    def system(self, eps):
        return self._system(self._keep(eps))

    def _system(self, keep):
        if len(keep) == self.full.nvars:
            return self.full
        key = keep.tobytes()
        if key not in self._systems:
            self._systems[key] = self.full.subsystem(keep)
        return self._systems[key]

    def feasible(self, eps):
        """Whether some assignment of the sub-system at eps keeps every cap at eps."""
        keep, bound = self._keep(eps), eps + eps + self.full.tol
        if any(len(keep) <= n and largest <= bound for n, largest in self._found):
            return True
        system = self._system(keep)
        return self._record(system, system.feasible((eps, eps)))


def _witness_dict(system, values, caps):
    w = {"f": {}, "g": {}, "alpha": {}, "beta": {}}
    for (kind, key), val in zip(system.meta, values):
        w[kind][key] = int(val)  # keys are point indices, or (level, index) for tuples
    w["caps"] = [float(c) for c in caps]
    return w


def _pair_witness(witness):
    """A depth-1 tuple witness as a pair reports it: subset maps keyed by point index."""
    witness = dict(witness)
    for kind in ("alpha", "beta"):
        witness[kind] = {a: v for (_, a), v in witness[kind].items()}
    return witness


def _certificate(left, right, system, values, caps):
    edges = []
    for (side, src, cls, _), val in zip(system.vars, values):
        i, j = (src, val) if side == 0 else (val, src)
        edges.append((i, j, caps[cls]))
    return glue_from_constraints(left, right, edges, pseudo=True)


def _check_resolution(resolution, *spaces):
    if not resolution > 0:  # NaN is not positive either
        raise PreconditionViolated("resolution must be positive", resolution)
    scale = max(s.diameter for s in spaces)
    if scale > 0 and resolution > scale:
        raise ResolutionTooCoarse(f"resolution {resolution} exceeds the diameter scale {scale}")


def _check_certificate_slack(resolution, *spaces):
    """A certified hi carries 2 * tol of slack, so no bracket can be narrower."""
    slack = 2 * max(s.tol for s in spaces)
    if resolution < slack:
        raise PreconditionViolated("resolution is below the certificate slack 2 * tol", (resolution, slack))


def _with_tol_floor(p, q):
    """``p`` and ``q`` (pairs or tuples), their shared tolerance raised to
    1e-12 times the larger diameter if below it: at tolerance zero, a cap or
    bisection midpoint an ulp short refutes the assignment it came from."""
    floor = 1e-12 * max(p.space.diameter, q.space.diameter)
    if max(p.space.tol, q.space.tol) >= floor:
        return p, q
    return tuple(replace(x, space=replace(x.space, tol=floor)) for x in (p, q))


def _space_key(space):
    return (len(space), space.labels, space.dist.tobytes())


def _swap_for_canonical_order(space_p, chain_p, space_q, chain_q):
    """Definitionally symmetric solvers compute in one canonical argument
    order and mirror the result, so swapped calls return identical numbers.
    A pair passes its subset as a one-level chain."""
    key_p = (_space_key(space_p), tuple(ref.indices for ref in chain_p))
    key_q = (_space_key(space_q), tuple(ref.indices for ref in chain_q))
    return key_p > key_q


def _mirror_bracket(bracket):
    witness = bracket.witness
    if witness is not None and "f" in witness:
        witness = dict(witness)
        witness["f"], witness["g"] = witness["g"], witness["f"]
        witness["alpha"], witness["beta"] = witness["beta"], witness["alpha"]
    return DistanceBracket(
        lo=bracket.lo,
        hi=bracket.hi,
        resolution=bracket.resolution,
        certificate=bracket.certificate.transposed() if bracket.certificate else None,
        lo_reason=bracket.lo_reason,
        witness=witness,
        tol=bracket.tol,
    )


def gh_compact_pair(pair_p, pair_q, resolution, budget=None):
    """Bracket the compact pair distance: inf over gluings of d_H(X,Y) + d_H(A,B).

    A pair is the depth-1 tuple of its subset, so this is ``gh_compact_tuple``
    with two cap classes; the witness keys the subset maps by point index.
    """
    bracket = gh_compact_tuple(
        MetricTuple(pair_p.space, (pair_p.a,)), MetricTuple(pair_q.space, (pair_q.a,)), resolution, budget
    )
    reason = bracket.lo_reason.replace("cap vector", "cap split")  # pair reports keep their wording
    return replace(bracket, lo_reason=reason, witness=_pair_witness(bracket.witness))


def gh_compact_tuple(tuple_t, tuple_u, resolution, budget=None):
    """Bracket the compact tuple distance: one cap class per chain level.

    The total T of the caps is bisected, and each step is one decision
    search: does some assignment of partners have per-class mismatch maxima
    whose LP-minimal cap total is at most T? Each assignment found costs
    exactly that LP value, which may tighten the upper end below T. A
    refuted step moves the lower end past every total that the same search
    would refute again (IDA*'s bound update), not just to T. The cheapest
    assignment found fixes the caps, and the certificate glues the
    lexicographically first assignment at those caps.
    """
    if tuple_t.depth != tuple_u.depth:
        raise ChainLengthMismatch(f"{tuple_t.depth} vs {tuple_u.depth}")
    tuple_t, tuple_u = _with_tol_floor(tuple_t, tuple_u)
    _check_resolution(resolution, tuple_t.space, tuple_u.space)
    _check_certificate_slack(resolution, tuple_t.space, tuple_u.space)
    if _swap_for_canonical_order(tuple_t.space, tuple_t.chain, tuple_u.space, tuple_u.chain):
        return _mirror_bracket(gh_compact_tuple(tuple_u, tuple_t, resolution, budget))
    bud = _Budget(_budget_limit(budget))
    left, right = tuple_t.space, tuple_u.space
    tol = max(left.tol, right.tol)
    n_cls = tuple_t.depth + 1
    system = _MaskSearch(left.dist, right.dist, tol, bud)
    _tuple_vars(system, tuple_t, tuple_u)
    system.finalize()
    floor = system.class_floor(n_cls).tolist()
    best = None  # (LP cost, caps) of the cheapest assignment found

    def step(total):
        """A hit bounds hi by its assignment's cost, a refutation lo by ``retry``."""
        nonlocal best
        hit, retry = system.decide(total, floor)
        if hit is None:
            return False, max(total, retry)
        found = _lp_min_total(hit[1])
        if best is None or found[0] < best[0]:
            best = found
        return True, min(total, found[0])

    lo0, _ = _lp_min_total(floor)
    t_lo = lo0
    hit, bound = step(lo0)
    if not hit:
        scale = max(left.diameter, right.diameter)
        total = max(n_cls * scale / 2, lo0 + resolution)
        while not hit:  # pseudo caps at half the diameter always glue
            t_lo = bound
            hit, bound = step(total)
            total = 2 * total + resolution
        t_lo, _ = _bisect(step, t_lo, bound, resolution / 2, tol)
    caps = best[1]
    values = system.first_witness(caps)
    cert = _certificate(left, right, system, values, caps)
    achieved = tuple_hausdorff(cert, tuple_t, tuple_u)
    hi = achieved + 2 * tol
    lo = min(t_lo, hi)
    return DistanceBracket(
        lo=float(lo),
        hi=float(hi),
        resolution=float(resolution),
        certificate=cert,
        lo_reason=f"no cap vector glued below a total of {t_lo:.9g}",
        witness=_witness_dict(system, values, caps),
        tol=tol,
    )


def gh_truncated_pair(pair_p, pair_q, resolution, budget=None):
    """Bracket min(1/2, inf eps admitting an (eps; A, B)-admissible gluing).

    Feasibility at eps caps every assigned edge at eps, with map domains
    restricted to the closed (1/eps)-balls of the distinguished subsets;
    monotone bisection on eps, capped at 1/2. One system over all points, in
    the layout of the depth-1 tuples with both caps at eps, is built per
    call; a step is decided on its sub-system of the variables whose source
    lies in the two balls. Ball indices ascend, so the variables keep the
    order a system built on the balls alone would give them.

    The whole system is searched first at its floor, the smallest largest
    mismatch any assignment can have. Each step is then settled, without a
    search, by any assignment found so far on balls that hold its own and
    whose largest mismatch its threshold eps + eps + tol reaches
    (``_BallSystems``); only a step nothing settles builds its sub-system,
    once per pair of balls, and searches it. Every verdict is the one a
    search would give, so the bracket is that of searching every step, and
    the witness is the lexicographically first assignment at the final upper
    end, searched on its own sub-system.
    """
    pair_p, pair_q = _with_tol_floor(pair_p, pair_q)
    _check_resolution(resolution, pair_p.space, pair_q.space)
    if _swap_for_canonical_order(pair_p.space, (pair_p.a,), pair_q.space, (pair_q.a,)):
        return _mirror_bracket(gh_truncated_pair(pair_q, pair_p, resolution, budget))
    bud = _Budget(_budget_limit(budget))
    left, right = pair_p.space, pair_q.space
    tol = max(left.tol, right.tol)
    full = _MaskSearch(left.dist, right.dist, tol, bud)
    _tuple_vars(full, MetricTuple(left, (pair_p.a,)), MetricTuple(right, (pair_q.a,)))
    full.finalize()
    cap = _TRUNCATION_CAP
    systems = _BallSystems(full, pair_p, pair_q)
    if not systems.feasible(cap):
        return DistanceBracket(
            lo=cap,
            hi=cap,
            resolution=float(resolution),
            certificate=None,
            lo_reason="no admissible gluing found at the 1/2 truncation cap",
            witness=None,
            tol=tol,
        )
    e_lo, e_hi = _bisect(lambda eps: (systems.feasible(eps), eps), 0.0, cap, resolution / 2, tol)
    system = systems.system(e_hi)
    values = system.first_witness((e_hi, e_hi))
    cert = _certificate(left, right, system, values, (e_hi, e_hi))
    report = check_eps_admissible(cert, pair_p.a, pair_q.a, e_hi)
    witness = _pair_witness(_witness_dict(system, values, [e_hi]))
    witness["admissible"] = report.verdict
    return DistanceBracket(
        lo=float(e_lo),
        hi=float(e_hi),
        resolution=float(resolution),
        certificate=cert,
        lo_reason=f"no (eps; A, B)-admissible gluing found at eps = {e_lo:.9g}",
        witness=witness,
        tol=tol,
    )


def _le(value, bound, tol):
    # strict definitional inequalities are tested non-strictly with tolerance
    return value <= bound + tol


def _near_masks(dist, targets, bound):
    """For each target t, the bitmask of points y with dist[t, y] <= bound."""
    return ((dist[list(targets)] <= bound) @ _bit_weights(len(dist))).tolist()


def _image_hook(clauses):
    """A ``_backtrack`` hook forward-checking image clauses in a lexicographic search.

    A clause (image_vars, near) holds its image variables, ascending, and per
    target the bitmask of values within eps + tol of it. The hook drops a
    value once some target misses every value the image variables can still
    take. A clause whose last image variable is already assigned was settled
    when it was assigned, and is skipped.
    """

    def hook(state, v, p, out, doms):
        for image_vars, near in clauses:
            if image_vars[-1] < v:
                continue
            reach = 0
            for j in image_vars:
                reach |= doms[j] if j > v else 1 << (p if j == v else out[j])
            for mask in near:
                if not mask & reach:
                    return None
        return state

    return hook


def approx_search(pair_p, pair_q, eps, budget=None):
    """First eps-approximation pair (f, g) in lexicographic order, or None.

    One search assigns f_0, ..., f_{nl-1}, then g_0, ..., g_{nr-1}. Its table
    holds the distortion clauses of f and of g and, between an f and a g
    variable, the two composition clauses; "f(A) near B" and "g(B) near A"
    are domains. A hook forward-checks the two image clauses: it drops a
    value once some point of B lies farther than eps from every value f(A)
    can still take, or some point of A from every value g(B) can still take.
    The pair returned is the first f that admits some g, with that f's first
    g.
    """
    if not eps > 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    bud = _Budget(_budget_limit(budget))
    _check_size(pair_p.space, pair_q.space)
    return _approx_search(pair_p, pair_q, eps, bud, _mismatches(pair_p.space.dist, pair_q.space.dist))


def _approx_search(pair_p, pair_q, eps, bud, mismatch):
    """``approx_search`` ticking ``bud``, given ``_mismatches(d_L, d_R)``."""
    left, right = pair_p.space, pair_q.space
    dl, dr = left.dist, right.dist
    nl, nr = len(left), len(right)
    tol = max(left.tol, right.tol)
    bound = eps + tol
    a_idx, b_idx = pair_p.a.indices, pair_q.a.indices
    near_l, near_r = dl <= bound, dr <= bound
    wl, wr = _bit_weights(nl), _bit_weights(nr)
    full_l, full_r = (1 << nl) - 1, (1 << nr) - 1
    near_b = int(near_r[:, b_idx].any(axis=1) @ wr)
    near_a = int(near_l[:, a_idx].any(axis=1) @ wl)
    doms = [near_b if x in a_idx else full_r for x in range(nl)]
    doms += [near_a if y in b_idx else full_l for y in range(nr)]

    rows = np.zeros((nl + nr, nl + nr, max(nl, nr)), dtype=np.int64)
    rows[:nl, :nl, :nr] = _compat_table(mismatch, bound)
    rows[nl:, nl:, :nl] = _compat_table(mismatch.transpose(2, 3, 0, 1), bound)  # |a - b| = |b - a| exactly
    # f_x = p and g_y = q need d_L(q, x) <= eps when p == y, and d_R(p, y) <= eps
    # when q == x; f is complete before any g is assigned, so no g-to-f block is read
    g_after_f = np.where(np.eye(nr, dtype=bool), (near_l.T @ wl)[:, None, None], full_l)
    rows[:nl, nl:, :nr] = g_after_f & np.where(near_r.T, full_l, full_l ^ wl[:, None, None])

    # f(A) near every point of B, and g(B) near every point of A
    f_image = (a_idx, _near_masks(dr, b_idx, bound))
    g_image = ([nl + b for b in b_idx], _near_masks(dl, a_idx, bound))
    fg = _backtrack(list(range(nl + nr)), doms, rows, bud.tick, hook=_image_hook([f_image, g_image]), state=True)
    if fg is None:
        return None
    return ApproximationPair(f=tuple(fg[x] for x in range(nl)), g=tuple(fg[nl + y] for y in range(nr)), eps=float(eps))


def _approximation_clauses(pair_p, pair_q, f, g):
    """The value of each approximation clause for maps f and g, by name, in
    the order ``validate_approximation`` reports them: (f, g) is an
    eps-approximation iff every value is at most eps + tol."""
    dl, dr = pair_p.space.dist, pair_q.space.dist
    f = np.asarray(f, dtype=int)
    g = np.asarray(g, dtype=int)
    a_idx, b_idx = pair_p.a.indices, pair_q.a.indices
    return {
        "distortion_f": float(np.abs(dl - dr[np.ix_(f, f)]).max()),
        "distortion_g": float(np.abs(dr - dl[np.ix_(g, g)]).max()),
        "g_after_f": float(dl[np.arange(len(dl)), g[f]].max()),
        "f_after_g": float(dr[np.arange(len(dr)), f[g]].max()),
        "subset_image_f": hausdorff_of_matrix(dr, tuple(f[list(a_idx)]), b_idx),
        "subset_image_g": hausdorff_of_matrix(dl, tuple(g[list(b_idx)]), a_idx),
    }


def validate_approximation(pair_p, pair_q, ap):
    """Names of the approximation clauses the witness fails (empty = valid)."""
    tol = max(pair_p.space.tol, pair_q.space.tol)
    clauses = _approximation_clauses(pair_p, pair_q, ap.f, ap.g)
    return [name for name, value in clauses.items() if not _le(value, ap.eps, tol)]


def min_approx_eps(pair_p, pair_q, resolution, budget=None):
    """Bisect the smallest eps at which approx_search succeeds.

    Every step is decided by exact inference where it can be, and searched
    only where it cannot; all searches threshold one mismatch tensor and
    share one budget.

    - At the diameter scale every pair of maps is valid, so the zero maps are
      the first pair there, and the bisection starts from them.
    - No pair beats the floor, the largest over point pairs of one space of
      their smallest mismatch with a point pair of the other. A step whose
      eps + tol lies below it is refuted, as the search would refute it: the
      point pair has no compatible value pair.
    - The valid pairs only shrink as eps falls. While the pair found last
      stays valid at the midpoint (its largest clause value is within
      mid + tol), the step succeeds; a step at or below a refuted eps fails.
    - While every step succeeds the bisection halves its upper end, so the
      first search runs at the smallest such halving point that the floor
      does not refute. On near pairs it usually succeeds, which settles every
      larger step; a refutation settles every smaller one.

    The pair found last is the lexicographically first at the eps it was
    searched at, which is at least the final upper end, and it is valid
    there. The valid pairs at the upper end are a subset of those at its
    eps, so it is also the first pair at the upper end, as approx_search
    would return it.
    """
    _check_resolution(resolution, pair_p.space, pair_q.space)
    bud = _Budget(_budget_limit(budget))
    _check_size(pair_p.space, pair_q.space)
    mismatch = _mismatches(pair_p.space.dist, pair_q.space.dist)
    floor = max(mismatch.min(axis=(2, 3)).max(), mismatch.min(axis=(0, 1)).max())
    scale = max(pair_p.space.diameter, pair_q.space.diameter)
    tol = max(pair_p.space.tol, pair_q.space.tol)
    e_hi = max(scale + tol, resolution)
    best = ApproximationPair(f=(0,) * len(pair_p.space), g=(0,) * len(pair_q.space), eps=float(e_hi))
    need = max(_approximation_clauses(pair_p, pair_q, best.f, best.g).values())
    refuted = 0.0  # the largest eps searched and refuted

    def step(eps):
        """Searches only a step that ``need``, ``refuted`` and the floor leave open."""
        nonlocal best, need, refuted
        if not _le(need, eps, tol) and eps > refuted and _le(floor, eps, tol):
            hit = _approx_search(pair_p, pair_q, eps, bud, mismatch)
            if hit is None:
                refuted = eps
            else:
                best, need = hit, max(_approximation_clauses(pair_p, pair_q, hit.f, hit.g).values())
        return _le(need, eps, tol), eps

    first = e_hi
    while first > resolution and first > tol and _le(floor, first / 2, tol):
        first /= 2
    step(first)  # the zero maps settle e_hi itself without a search
    e_lo, e_hi = _bisect(step, 0.0, e_hi, resolution, tol)
    return DistanceBracket(
        lo=float(e_lo),
        hi=float(e_hi),
        resolution=float(resolution),
        certificate=None,
        lo_reason=f"approximation search failed at eps = {e_lo:.9g}",
        witness={"f": list(best.f), "g": list(best.g), "eps": float(e_hi)},
        tol=tol,
    )


def complete_distortion_map(pair_p, pair_q, f, eps):
    """Extend a small-distortion map to a 3-eps approximation pair.

    Preimages are chosen lowest-index-first; points outside the image map
    through their nearest image point.
    """
    if not eps > 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    left, right = pair_p.space, pair_q.space
    dl, dr = left.dist, right.dist
    tol = max(left.tol, right.tol)
    f = tuple(int(v) for v in f)
    if len(f) != len(left) or any(not 0 <= v < len(right) for v in f):
        raise PreconditionViolated("f must map every left index into the right space")
    fa = np.asarray(f, dtype=int)
    distortion = float(np.abs(dl - dr[np.ix_(fa, fa)]).max())
    if not _le(distortion, eps, tol):
        raise PreconditionViolated("distortion of f must stay below eps", distortion)
    image = sorted(set(f))
    gaps = dr[:, image].min(axis=1)
    if not _le(float(gaps.max()), eps, tol):
        y = int(gaps.argmax())
        raise PreconditionViolated("right space must be the eps-neighborhood of f's image", y)
    a_idx, b_idx = pair_p.a.indices, pair_q.a.indices
    d_fab = hausdorff_of_matrix(dr, tuple(fa[list(a_idx)]), b_idx)
    if not _le(d_fab, eps, tol):
        raise PreconditionViolated("d_H(f(A), B) must stay below eps", d_fab)

    preimage = {}
    for x, y in enumerate(f):  # ascending x, so ties keep the lowest preimage
        preimage.setdefault(y, x)
    h = []
    for y in range(len(right)):
        if y in preimage:
            h.append(preimage[y])
        else:
            nearest = image[int(dr[y, image].argmin())]
            h.append(preimage[nearest])
    result = ApproximationPair(f=f, g=tuple(h), eps=3.0 * eps)
    failures = validate_approximation(pair_p, pair_q, result)
    if failures:
        raise PreconditionViolated("completion failed validation", failures)
    return result


def rough_isometry_search(pair_p, pair_q, radius, eps, budget=None):
    """First map on the closed R-ball of A that is an eps-rough isometry
    toward the closed (R - eps)-ball of B, or None."""
    if not radius > eps > 0:
        raise PreconditionViolated("requires R > eps > 0", (radius, eps))
    bud = _Budget(_budget_limit(budget))
    left, right = pair_p.space, pair_q.space
    _check_size(right)
    dl, dr = left.dist, right.dist
    tol = max(left.tol, right.tol)
    dom = ball(left, pair_p.a, radius, "closed").indices
    tgt = ball(right, pair_q.a, radius - eps, "closed").indices
    d_to_b = dr[:, pair_q.a.indices].min(axis=1)
    a_set = set(pair_p.a.indices)
    in_tgt = sum(1 << y for y in tgt)
    near_b = sum(1 << y for y in tgt if _le(d_to_b[y], eps, tol))
    doms = [near_b if u in a_set else in_tgt for u in dom]
    rows = _compat_table(_mismatches(dl[np.ix_(dom, dom)], dr), eps + tol)
    # the image comes eps-close to every point of the target ball, which holds B
    covers = _image_hook([(range(len(dom)), _near_masks(dr, tgt, eps + tol))])
    f = _backtrack(list(range(len(dom))), doms, rows, bud.tick, hook=covers, state=True)
    if f is None:
        return None
    return RoughIsometryWitness(
        f={int(u): f[k] for k, u in enumerate(dom)}, eps=float(eps), radius=float(radius)
    )


def pair_isometry_search(pair_p, pair_q):
    """First distance-preserving bijection carrying A onto B, or None."""
    left, right = pair_p.space, pair_q.space
    if len(left) != len(right) or len(pair_p.a) != len(pair_q.a):
        return None
    _check_size(right)
    tol = max(left.tol, right.tol)
    n = len(left)
    a_set = set(pair_p.a.indices)
    in_b = sum(1 << y for y in pair_q.a.indices)
    doms = [in_b if x in a_set else ((1 << n) - 1) ^ in_b for x in range(n)]
    # clearing bit p from every row at value p makes the map injective
    rows = _compat_table(_mismatches(left.dist, right.dist), tol) & ~_bit_weights(n)
    perm = _backtrack(list(range(n)), doms, rows, tick=lambda: None)
    if perm is None:
        return None
    return tuple(perm[x] for x in range(n))


def verify_convergence(seq, target, sched, resolution=1e-3, budget=None):
    """Check each pair of the sequence against the target at its scheduled
    (eps, radius), and bisect the smallest workable eps per index.

    A pair passes when some map on the closed radius-ball of its subset has
    distortion within eps, keeps the subset image eps-close in Hausdorff
    distance, and eps-covers the target's radius-ball.
    """
    if len(seq) != len(sched.eps_seq):
        raise LengthMismatch(f"{len(seq)} pairs vs {len(sched.eps_seq)} schedule entries")
    if not resolution > 0:
        raise PreconditionViolated("resolution must be positive", resolution)
    _check_size(target.space)
    bud = _Budget(_budget_limit(budget))
    reports = []
    for pair_i, eps_i, r_i in zip(seq, sched.eps_seq, sched.radius_seq):
        left, right = pair_i.space, target.space
        dl, dr = left.dist, right.dist
        tol = max(left.tol, right.tol)
        dom = ball(left, pair_i.a, r_i, "closed").indices
        tgt = ball(right, target.a, r_i, "closed").indices
        all_vars, a_loc = list(range(len(dom))), [dom.index(a) for a in pair_i.a.indices]
        b_idx = target.a.indices
        d_to_b = dr[:, b_idx].min(axis=1)
        mismatch = _mismatches(dl[np.ix_(dom, dom)], dr)

        def feasible(eps):
            bound = eps + tol
            near_b = int((d_to_b <= bound) @ _bit_weights(len(right)))
            doms = [near_b if k in a_loc else (1 << len(right)) - 1 for k in all_vars]  # f(a) near B
            rows = _compat_table(mismatch, bound)
            # B near f(A), and the target ball near the whole image
            covers = _image_hook([(a_loc, _near_masks(dr, b_idx, bound)), (all_vars, _near_masks(dr, tgt, bound))])
            return _backtrack(all_vars, doms, rows, bud.tick, hook=covers, state=True) is not None

        passed = feasible(eps_i)
        e_hi = eps_i if passed else max(left.diameter, right.diameter, eps_i)
        while not passed and not feasible(e_hi):  # a passing eps_i was searched already
            e_hi = 2 * e_hi + resolution
        e_lo, e_hi = _bisect(lambda eps: (feasible(eps), eps), 0.0, e_hi, resolution, tol)
        reports.append(
            {
                "eps": float(eps_i),
                "radius": float(r_i),
                "passed": bool(passed),
                "min_eps_lo": float(e_lo),
                "min_eps_hi": float(e_hi),
            }
        )
    return {"indices": reports, "all_passed": all(r["passed"] for r in reports)}
