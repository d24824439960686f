import hashlib
import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_pairs import (
    ApproximationPair,
    ConvergenceSchedule,
    DistanceBracket,
    InvalidBracket,
    MetricPair,
    MetricTuple,
    NonPositiveEpsilon,
    PreconditionViolated,
    ResolutionTooCoarse,
    SizeLimitExceeded,
    approx_search,
    complete_distortion_map,
    gh_compact_pair,
    gh_compact_tuple,
    gh_truncated_pair,
    glue_from_rough_isometry,
    min_approx_eps,
    pair_isometry_search,
    rough_isometry_search,
    validate_approximation,
    validate_metric,
    verify_convergence,
)
from metric_pairs import formats, gh_solver
from metric_pairs.gh_solver import (
    _BallSystems,
    _Budget,
    _lp_min_total,
    _MaskSearch,
)

import oracles
from conftest import closure_of, jittered_copy, line_space, random_pair, random_space, random_subset


def _pair(space, idx):
    return MetricPair(space, space.subset(idx))


def test_two_point_example_matches_grid_oracle(derived):
    fx = derived["two_point_gh"]
    left = validate_metric(np.array([[0.0]]))
    right = validate_metric(np.array([[0.0, 2.0], [2.0, 0.0]]))
    bracket = gh_compact_pair(_pair(left, [0]), _pair(right, [0]), 1e-3)
    assert bracket.lo <= fx["value"] <= bracket.hi + fx["tol"]
    assert bracket.hi == pytest.approx(2.0, abs=fx["tol"])
    assert bracket.certificate is not None


def test_grid_oracle_2x2(derived):
    fx = derived["gh_pair_grid_2x2"]
    left = validate_metric(np.array(fx["dl"]))
    right = validate_metric(np.array(fx["dr"]))
    bracket = gh_compact_pair(_pair(left, fx["a"]), _pair(right, fx["b"]), 1e-3)
    # the oracle only visits grid points, so it may overshoot by a step
    assert bracket.lo <= fx["value"] + 1e-9
    assert fx["value"] <= bracket.hi + fx["grid_step"]


def test_isometric_pairs_bracket_zero():
    rng = np.random.default_rng(0)
    space = random_space(rng, 4)
    perm = [2, 0, 3, 1]
    relabeled = validate_metric(space.dist[np.ix_(perm, perm)])
    a = [0, 2]
    b = sorted(perm.index(i) for i in a)
    bracket = gh_compact_pair(_pair(space, a), _pair(relabeled, b), 1e-3)
    assert bracket.contains_zero()
    assert bracket.hi <= 1e-3


def test_gh_symmetry_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p, q = random_pair(rng), random_pair(rng)
        b1 = gh_compact_pair(p, q, 1e-3)
        b2 = gh_compact_pair(q, p, 1e-3)
        assert (b1.lo, b1.hi) == (b2.lo, b2.hi)


def test_resolution_and_budget_guards():
    rng = np.random.default_rng(2)
    p, q = random_pair(rng), random_pair(rng)
    with pytest.raises(ResolutionTooCoarse):
        gh_compact_pair(p, q, 1e6)
    with pytest.raises(SizeLimitExceeded):
        gh_compact_pair(p, q, 1e-3, budget=5)


@pytest.mark.parametrize("budget", [float("inf"), float("nan"), 1.5, 2.0, True, "7"])
def test_budget_must_be_an_integral_number(budget):
    rng = np.random.default_rng(2)
    p, q = random_pair(rng), random_pair(rng)
    with pytest.raises(PreconditionViolated, match="budget"):
        gh_compact_pair(p, q, 1e-3, budget=budget)


def test_budget_accepts_numpy_integers():
    p = _pair(line_space([0.0, 1.0]), [0])
    assert approx_search(p, p, 0.5, budget=np.int64(7)) is not None
    with pytest.raises(SizeLimitExceeded):  # taken as the limit, and spent
        gh_compact_pair(p, _pair(line_space([0.0, 2.0, 3.0]), [1]), 1e-3, budget=np.int64(7))


def test_resolution_below_certificate_slack_is_typed():
    # distances near 1e6 give a tolerance near 1e-3, so the 2 * tol slack on
    # the certified hi side is wider than the requested resolution
    rng = np.random.default_rng(7)
    for _ in range(3):
        left = random_space(rng, 4, lo=1e5, hi=1e6)
        right = random_space(rng, 4, lo=1e5, hi=1e6)
        p, q = _pair(left, [0, 1]), _pair(right, [2])
        with pytest.raises(PreconditionViolated):
            gh_compact_pair(p, q, 1e-3)
        tol = max(left.tol, right.tol)
        bracket = gh_compact_pair(p, q, 2 * tol)
        assert bracket.tol == tol
        assert bracket.hi - bracket.lo <= bracket.resolution + 2 * tol


def test_bracket_invariants_raise_typed_errors():
    with pytest.raises(InvalidBracket):
        DistanceBracket(lo=1.0, hi=0.5, resolution=1.0, tol=0.1)
    with pytest.raises(InvalidBracket):
        DistanceBracket(lo=0.0, hi=1.5, resolution=1.0, tol=0.2)
    assert DistanceBracket(lo=0.0, hi=1.4, resolution=1.0, tol=0.2).hi == 1.4
    with pytest.raises(InvalidBracket):
        DistanceBracket(lo=0.0, hi=1.0, resolution=float("nan"))


def test_nan_resolution_and_eps_are_typed_errors():
    # NaN fails every ``not x > 0`` guard, where ``x <= 0`` would pass it
    rng = np.random.default_rng(2)
    p, q = random_pair(rng), random_pair(rng)
    nan = float("nan")
    for solver in (gh_compact_pair, gh_truncated_pair, min_approx_eps):
        with pytest.raises(PreconditionViolated):
            solver(p, q, nan)
    with pytest.raises(NonPositiveEpsilon):
        approx_search(p, q, nan)
    with pytest.raises(NonPositiveEpsilon):
        complete_distortion_map(p, q, [0] * len(p.space), nan)
    sched = ConvergenceSchedule(eps_seq=(1.0,), radius_seq=(1.0,))
    with pytest.raises(PreconditionViolated):
        verify_convergence([p], p, sched, resolution=nan)


def test_certificate_achieves_hi():
    rng = np.random.default_rng(3)
    p, q = random_pair(rng), random_pair(rng)
    from metric_pairs import pair_hausdorff

    bracket = gh_compact_pair(p, q, 1e-3)
    achieved = pair_hausdorff(bracket.certificate, p, q)
    assert achieved <= bracket.hi


def test_truncated_basics_and_cap():
    rng = np.random.default_rng(4)
    space = random_space(rng, 4)
    pair = _pair(space, [0, 1])
    near = gh_truncated_pair(pair, pair, 1e-3)
    assert near.hi <= 1e-3
    far_left = line_space([0.0, 40.0])
    far_right = line_space([0.0, 0.3])
    far = gh_truncated_pair(_pair(far_left, [0]), _pair(far_right, [0]), 1e-3)
    assert far.hi <= 0.5


def test_truncated_outlier_instance_matches_eps_grid(derived):
    fx = derived["gh_truncated_eps_grid"]
    left = validate_metric(np.array(fx["dl"]))
    right = validate_metric(np.array(fx["dr"]))
    p, q = _pair(left, fx["a"]), _pair(right, fx["b"])
    truncated = gh_truncated_pair(p, q, 1e-3)
    step = fx["eps_grid"][1] - fx["eps_grid"][0]
    assert truncated.lo <= fx["value"] <= truncated.hi + step
    compact = gh_compact_pair(p, q, 1e-3)
    # mismatch lives outside the (1/eps)-balls: truncation wins by far
    assert truncated.hi < compact.lo


def test_truncated_feasibility_agrees_with_enumeration_oracle(derived):
    fx = derived["gh_truncated_eps_grid"]
    left = validate_metric(np.array(fx["dl"]))
    right = validate_metric(np.array(fx["dr"]))
    truncated = gh_truncated_pair(_pair(left, fx["a"]), _pair(right, fx["b"]), 1e-3)
    for eps in (0.06, 0.12, 0.3):
        oracle_ok = oracles.truncated_feasible_at_eps(
            np.array(fx["dl"]), np.array(fx["dr"]), fx["a"], fx["b"], eps
        )
        if oracle_ok:  # true infimum is at most eps
            assert truncated.lo <= eps
        else:  # true infimum is at least eps
            assert truncated.hi >= eps - 1e-9


def test_compact_solver_agrees_with_raw_enumeration_oracle():
    # tiny instances where every assignment product can be closed and checked
    rng = np.random.default_rng(19)
    for _ in range(3):
        left = random_space(rng, 3, hi=2.0)
        right = random_space(rng, 2, hi=2.0)
        a = random_subset(rng, 3, k=int(rng.integers(1, 3)))
        b = random_subset(rng, 2, k=1)
        p, q = MetricPair(left, left.subset(a)), MetricPair(right, right.subset(b))
        bracket = gh_compact_pair(p, q, 1e-3)
        step = 0.05
        oracle = oracles.compact_min_total_grid(
            left.dist, right.dist, a, b, step, hi=bracket.hi + 3 * step
        )
        assert oracle is not None
        # the grid oracle only overshoots, by at most one step per budget
        assert bracket.lo <= oracle + 1e-9
        assert oracle <= bracket.hi + 2 * step


def test_truncated_solver_agrees_with_raw_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(3):
        left = random_space(rng, 3, hi=1.5)
        right = random_space(rng, 3, hi=1.5)
        a = random_subset(rng, 3, k=1)
        b = random_subset(rng, 3, k=1)
        p, q = MetricPair(left, left.subset(a)), MetricPair(right, right.subset(b))
        bracket = gh_truncated_pair(p, q, 1e-3)
        for eps in (0.1, 0.25, 0.45):
            oracle_ok = oracles.truncated_feasible_at_eps(left.dist, right.dist, a, b, eps)
            if oracle_ok:
                assert bracket.lo <= eps + 1e-9
            else:
                assert bracket.hi >= eps - 1e-9


def _mismatch(system, i, p, j, q):
    """|d_L - d_R| of the edges of variables i and j at values p and q, read
    through the edge end points the decision search uses."""
    left, right = system._left_at, system._right_at
    return abs(system.dl[left[i][p], left[j][q]] - system.dr[right[i][p], right[j][q]])


def _mask_kernel(p, q):
    """The two-class system ``gh_compact_pair`` searches: the depth-1 tuple layout."""
    return _tuple_system(MetricTuple(p.space, (p.a,)), MetricTuple(q.space, (q.a,)))


@pytest.mark.parametrize("n_right", [2, 3])
def test_mask_kernel_verdicts_match_raw_enumeration_oracle(n_right, monkeypatch):
    searches = []
    backtrack = gh_solver._backtrack
    monkeypatch.setattr(
        gh_solver, "_backtrack", lambda todo, *rest, **kw: searches.append(todo) or backtrack(todo, *rest, **kw)
    )
    rng = np.random.default_rng(20 + n_right)
    seen = {"early_none": 0, "searched": 0, "feasible": 0, "refuted_after_masks": 0}
    for _ in range(2):
        left = random_space(rng, 3, hi=2.0)
        right = random_space(rng, n_right, hi=2.0)
        a = random_subset(rng, 3, k=1)
        b = random_subset(rng, n_right, k=1)
        p, q = MetricPair(left, left.subset(a)), MetricPair(right, right.subset(b))
        system, tol = _mask_kernel(p, q)
        # halves of mismatch values put some pair exactly at caps_i + caps_j;
        # caps at the diameter bind nothing in their class
        halves = np.unique(system.d_ll[system.d_ll > 0]) / 2
        free = max(left.diameter, right.diameter)
        grid = [0.0, *np.quantile(halves, [0.2, 0.4, 0.6, 0.8, 1.0], method="nearest"), free]
        for t1 in grid:
            for t2 in grid:
                caps = (float(t1), float(t2))
                theta = np.add.outer(caps, caps) + tol
                built = system._build_masks(theta)
                # a query refuted before any search, or left one value per
                # variable by arc consistency, runs none; any other one search
                # over all variables
                pruned = system._pruned(theta)
                decided = pruned is None or gh_solver._decided(pruned[1])
                one_search = [] if decided else [list(range(system.nvars))]
                seen["early_none"] += built is None
                seen["searched"] += bool(one_search)
                searches.clear()
                got = system.feasible(caps)
                assert searches == one_search, caps
                want = oracles.compact_feasible_at_caps(left.dist, right.dist, a, b, *caps, tol=tol)
                assert (got is not None) == want, caps
                searches.clear()
                first = system.first_witness(caps)
                assert searches == one_search, caps
                assert (first is not None) == (got is not None), caps
                if want:
                    seen["feasible"] += 1
                elif built is not None:
                    seen["refuted_after_masks"] += 1
                for values in (got, first) if want else ():
                    for i in range(system.nvars):
                        assert values[i] in _domain(system.vars[i][3])
                        for j in range(i + 1, system.nvars):
                            bound = caps[system.vars[i][2]] + caps[system.vars[j][2]] + tol
                            assert _mismatch(system, i, values[i], j, values[j]) <= bound
    assert all(seen.values()), seen


def _domain(mask):
    return [v for v in range(64) if mask >> v & 1]


def _reference_block(system, i, j):
    """Mismatch of the ordered variable pair (i, j) over their domains, from dl and dr."""
    si, srci, _, mi = system.vars[i]
    sj, srcj, _, mj = system.vars[j]
    block = np.empty((len(_domain(mi)), len(_domain(mj))))
    for a, p in enumerate(_domain(mi)):
        for b, q in enumerate(_domain(mj)):
            li, ri = (srci, p) if si == 0 else (p, srci)
            lj, rj = (srcj, q) if sj == 0 else (q, srcj)
            block[a, b] = abs(system.dl[li, lj] - system.dr[ri, rj])
    return block


def _largest_reference_mismatch(system):
    """The largest mismatch of any two distinct variables over their domains."""
    v = system.nvars
    return max(_reference_block(system, i, j).max() for i in range(v) for j in range(i + 1, v))


def _assert_tables_match_reference(system, n_classes):
    v = system.nvars
    floor = np.zeros((n_classes, n_classes))
    for i in range(v):
        assert system.pair_min[i, i] == 0.0
        for j in range(i + 1, v):
            block = _reference_block(system, i, j)
            assert system.pair_min[i, j] == block.min() and system.pair_min[j, i] == 0.0
            a, b = sorted((system.vars[i][2], system.vars[j][2]))
            floor[a, b] = floor[b, a] = max(floor[a, b], block.min())
    assert np.array_equal(system.class_floor(n_classes), floor)


def _assert_masks_match_reference(system, theta):
    """Forward-check masks at a per-class-pair threshold matrix, entry by entry."""
    cls = [c for (_, _, c, _) in system.vars]
    rows = system._build_masks(theta)
    hopeless = any(
        system.pair_min[i, j] > theta[cls[i], cls[j]]
        for i in range(system.nvars)
        for j in range(i + 1, system.nvars)
    )
    assert (rows is None) == hopeless
    if rows is None:
        return 0
    for i in range(system.nvars):
        for j in range(system.nvars):
            if i == j:
                continue
            block = _reference_block(system, i, j)
            dom_j = _domain(system.vars[j][3])
            for a, p in enumerate(_domain(system.vars[i][3])):
                want = sum(1 << q for b, q in enumerate(dom_j) if block[a, b] <= theta[cls[i], cls[j]])
                assert int(rows[i, j, p]) & system.vars[j][3] == want
    return 1


def _nested_tuple(rng, space, depth):
    order = rng.permutation(len(space))
    sizes = sorted(rng.choice(np.arange(1, len(space) + 1), size=depth, replace=False))
    return MetricTuple(space, tuple(space.subset(sorted(order[:k].tolist())) for k in sizes))


def _tuple_system(t, u):
    tol = max(t.space.tol, u.space.tol)
    return gh_solver._tuple_system(t, u, tol, _Budget(10**6)), tol


def test_mask_kernel_tables_match_per_pair_reference():
    rng = np.random.default_rng(41)
    checked = 0
    for n_left, n_right in ((3, 4), (5, 3), (4, 4)):
        p = random_pair(rng, n_lo=n_left, n_hi=n_left)
        q = random_pair(rng, n_lo=n_right, n_hi=n_right)
        system, tol = _mask_kernel(p, q)
        _assert_tables_match_reference(system, 2)
        # no pair is hopeless once both caps reach half the largest pair_min
        m, big = system.pair_min.max() / 2, _largest_reference_mismatch(system) / 2
        for caps in ([0.0, 0.0], [m, m], [m, big / 2], [big, m]):
            caps = np.array(caps)
            checked += _assert_masks_match_reference(system, np.add.outer(caps, caps) + tol)
    assert checked >= 6


def _chain(space, sizes):
    """Nested subsets of the first points of ``space``, of these sizes."""
    return MetricTuple(space, tuple(space.subset(range(k)) for k in sizes))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lp_search_tables_match_per_pair_reference(depth):
    rng = np.random.default_rng(43 + depth)
    cases = []
    for n in (3, 4):
        left, right = random_space(rng, n, hi=3.0), random_space(rng, n + depth % 2, hi=3.0)
        cases.append((_nested_tuple(rng, left, depth), _nested_tuple(rng, right, depth)))
    if depth == 3:
        # singleton levels pad their domains from width 1 up to the widest, f's or g's
        left, right = random_space(rng, 4, hi=3.0), random_space(rng, 5, hi=3.0)
        for sizes in (((1, 1, 3), (1, 2, 5)), ((1, 1, 1), (1, 3, 4)), ((2, 2, 4), (1, 1, 2))):
            cases.append((_chain(left, sizes[0]), _chain(right, sizes[1])))
    checked = 0
    for t, u in cases:
        system, tol = _tuple_system(t, u)
        _assert_tables_match_reference(system, depth + 1)
        for j in range(system.nvars):
            for i in range(j + 1, system.nvars):
                got = [[_mismatch(system, j, p, i, q) for q in _domain(system.vars[i][3])]
                       for p in _domain(system.vars[j][3])]
                assert got == _reference_block(system, j, i).tolist()
        # no pair is hopeless once the total reaches the largest pair_min
        m, big = system.pair_min.max(), _largest_reference_mismatch(system)
        for total in (0.0, m / 2, m, (m + big) / 2):
            theta = np.where(np.eye(depth + 1, dtype=bool), 2 * total, total) + tol
            checked += _assert_masks_match_reference(system, theta)
    assert checked >= 4


def test_masks_build_one_packed_tensor_per_distinct_threshold(monkeypatch):
    rng = np.random.default_rng(46)
    left, right = random_space(rng, 4), random_space(rng, 4)
    system, _ = _tuple_system(_chain(left, (1, 2, 3)), _chain(right, (1, 2, 3)))
    calls = []
    packed = _MaskSearch._packed
    monkeypatch.setattr(_MaskSearch, "_packed", lambda self, theta: calls.append(theta) or packed(self, theta))
    # at the diameter no pair is hopeless, so every step builds its masks
    total = max(left.diameter, right.diameter)
    system.decide(total, system.class_floor(4).tolist())
    assert len(calls) == 2  # within a class and across classes, not one per class pair
    calls.clear()
    caps = [total, 2 * total, 4 * total, 8 * total]  # pairwise sums all differ
    assert system.feasible(caps) is not None
    assert len(calls) == len(set(calls)) == 4 * 5 // 2


def test_decision_search_matches_brute_force_min_cost():
    # integer weights make ties, so several assignments often share the optimum
    rng = np.random.default_rng(71)
    cases = []
    for n_left, n_right in ((2, 3), (3, 2), (3, 3), (2, 2)):
        p, q = _integer_pair(rng, n_left), _integer_pair(rng, n_right)
        cases.append((MetricTuple(p.space, (p.a,)), MetricTuple(q.space, (q.a,))))
    for n_left, n_right in ((2, 3), (3, 2), (3, 3)):
        left, right = _integer_pair(rng, n_left).space, _integer_pair(rng, n_right).space
        cases.append((_nested_tuple(rng, left, 2), _nested_tuple(rng, right, 2)))
    verdicts = []
    for t, u in cases:
        system, tol = _tuple_system(t, u)
        dl, dr = t.space.dist, u.space.dist
        chain_l, chain_r = [r.indices for r in t.chain], [r.indices for r in u.chain]
        best = oracles.compact_min_cost(dl, dr, chain_l, chain_r)
        floor = system.class_floor(t.depth + 1).tolist()
        for total in (best - 0.25, best - 1e-3, best, best + 1e-3, best + 0.5):
            if total < 0:
                continue
            hit, retry = system.decide(total, floor)
            assert (hit is not None) == (best <= total + tol), (total, best)
            verdicts.append(hit is not None)
            if hit is not None:
                assert retry is None
                values, maxima, _ = hit
                m = oracles.cap_class_maxima(dl, dr, chain_l, chain_r, values)
                assert np.array_equal(m, maxima)
                assert oracles.lp_min_total_vertices(m) <= total + tol
            else:
                # every total below retry refutes too, and a refutation at T
                # proves that every assignment costs more than T + tol
                assert total < retry
                assert retry + tol <= best + 1e-12, (total, retry, best)
                assert system.decide((total + retry) / 2, floor)[0] is None
    assert True in verdicts and False in verdicts


def test_decision_hits_within_tol_below_the_optimum():
    # masks within a class at 2 * (T + tol) agree with the hook's T + tol, so
    # an optimum set by half a within-class mismatch is found from best - tol on
    rng = np.random.default_rng(73)
    hits = 0
    for k in range(60):
        n_left, n_right = ((2, 2), (2, 3), (3, 2))[k % 3]
        p, q = _integer_pair(rng, n_left), _integer_pair(rng, n_right)
        system, tol = _tuple_system(MetricTuple(p.space, (p.a,)), MetricTuple(q.space, (q.a,)))
        best = oracles.compact_min_cost(p.space.dist, q.space.dist, [p.a.indices], [q.a.indices])
        if best == 0.0:
            continue
        hit, retry = system.decide(best - 0.75 * tol, system.class_floor(2).tolist())
        assert hit is not None and retry is None, (k, best)
        assert oracles.lp_min_total_vertices(hit[1]) <= best - 0.75 * tol + tol
        hits += 1
    assert hits >= 40


def test_lp_closed_forms_match_vertex_enumeration():
    # integer halves make ties and several optima; random weights, some zero, do not
    rng = np.random.default_rng(72)
    for c in (1, 2, 3, 4, 5):
        w = np.concatenate([
            rng.integers(0, 5, size=(60, c, c)) / 2.0,
            rng.uniform(0.0, 3.0, size=(60, c, c)) * (rng.uniform(size=(60, c, c)) < 0.8),
        ])
        stack = np.maximum(w, w.transpose(0, 2, 1))
        for m, want in zip(stack.tolist(), oracles.lp_min_total_vertices(stack)):
            value, point = _lp_min_total(m)
            assert value == pytest.approx(want, abs=1e-12)
            assert sum(point) == pytest.approx(value, abs=1e-12) and min(point) >= 0.0
            for i in range(c):
                for j in range(i, c):
                    assert point[i] + point[j] >= m[i][j] - 1e-12


def test_depth_three_tuple_needs_no_scipy():
    # four cap classes are priced by the exact cap LP, which must not import scipy
    script = """
import sys
from metric_pairs import MetricTuple, gh_compact_tuple, validate_metric
import numpy as np
c = np.array([0.0, 1.0, 2.2, 3.7])
s = validate_metric(np.abs(c[:, None] - c[None, :]))
d = validate_metric(np.abs(1.1 * c[:, None] - 1.1 * c[None, :]))
chain = lambda x: (x.subset([0]), x.subset([0, 1]), x.subset([0, 1, 2]))
b = gh_compact_tuple(MetricTuple(s, chain(s)), MetricTuple(d, chain(d)), 1e-2)
assert b.lo > 0, b
print("scipy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# One decision search per bisection step solves this pair in 6,976 ticks; a
# sweep of one feasibility query per cap split needed 139,571.
TEN_POINT_SEED, TEN_POINT_BUDGET = 5, 24_000


def test_unrelated_ten_point_pair_solves_within_a_fixed_budget():
    rng = np.random.default_rng(TEN_POINT_SEED)
    left, right = random_space(rng, 10), random_space(rng, 10)
    p = MetricPair(left, left.subset(random_subset(rng, 10, k=5)))
    q = MetricPair(right, right.subset(random_subset(rng, 10, k=5)))
    bracket = gh_compact_pair(p, q, 1e-3, budget=TEN_POINT_BUDGET)
    assert bracket.hi - bracket.lo <= 1e-3 + 2 * bracket.tol


def test_refuted_steps_skip_the_totals_they_settle(monkeypatch):
    # a refutation moves lo to the next total that could decide differently;
    # moving it to the midpoint took 16 + 15 + 13 + 11 + 16 + 10 = 81 searches
    # on these six pairs, and the jump takes 54
    totals = []
    decide = _MaskSearch.decide

    def counted(self, total, floor):
        totals.append(total)
        return decide(self, total, floor)

    monkeypatch.setattr(_MaskSearch, "decide", counted)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        left = random_space(rng, 6)
        a = random_subset(rng, 6, 3)
        right = random_space(rng, 6)
        b = random_subset(rng, 6, 3)
        bracket = gh_compact_pair(_pair(left, a), _pair(right, b), 1e-3)
        assert bracket.hi - bracket.lo <= 1e-3 + 2 * bracket.tol
    assert len(totals) <= 62, len(totals)


def _threshold_step(value, jump=False):
    """A monotone bisection step with its threshold at ``value``, recording
    every midpoint it is asked about. A hit proves hi = mid; a refutation
    proves lo = mid, or lo = value with ``jump``."""
    mids = []

    def step(mid):
        mids.append(mid)
        if mid >= value:
            return True, mid
        return False, value if jump else mid

    return step, mids


def test_bisect_stops_at_width():
    step, mids = _threshold_step(0.3)
    lo, hi = gh_solver._bisect(step, 0.0, 1.0, 0.01, 0.0)
    assert lo <= 0.3 <= hi
    assert 0.01 / 2 < hi - lo <= 0.01
    assert len(mids) == 7  # 1 / 2^7 is the first halving within 0.01


def test_bisect_stops_once_hi_is_within_tol():
    step, mids = _threshold_step(0.0)
    assert gh_solver._bisect(step, 0.0, 1.0, 1e-9, 0.1) == (0.0, 0.0625)
    assert mids == [0.5, 0.25, 0.125, 0.0625]


def test_bisect_refutation_past_the_midpoint_skips_the_midpoints_it_settles():
    plain, plain_mids = _threshold_step(0.95)
    jump, jump_mids = _threshold_step(0.95, jump=True)
    for step in (plain, jump):
        lo, hi = gh_solver._bisect(step, 0.0, 1.0, 1e-3, 0.0)
        assert lo <= 0.95 <= hi and hi - lo <= 1e-3
    assert jump_mids[0] == 0.5 and not any(0.5 <= m < 0.95 for m in jump_mids[1:])
    assert (len(jump_mids), len(plain_mids)) == (7, 10)


def test_bisect_clamps_lo_to_hi():
    beyond, mids = _threshold_step(2.0, jump=True)  # refutes with a bound past hi
    assert gh_solver._bisect(beyond, 0.0, 1.0, 1e-3, 0.0) == (1.0, 1.0)
    assert mids == [0.5]
    step, mids = _threshold_step(0.3)
    assert gh_solver._bisect(step, 2.0, 1.0, 1e-3, 0.0) == (1.0, 1.0)
    assert mids == []


def _near_nine_point_pair():
    rng = np.random.default_rng(2)
    left = random_space(rng, 9)
    right = jittered_copy(left, rng, 0.05)
    a = random_subset(rng, 9, k=4)
    return _pair(left, a), _pair(right, a)


# Skipping the bisection steps that an assignment found earlier already
# satisfies solves this near pair in 96 ticks; searching every step took 278.
def test_truncated_near_pair_solves_within_a_fixed_budget():
    p, q = _near_nine_point_pair()
    bracket = gh_truncated_pair(p, q, 1e-3, budget=150)
    assert (bracket.lo, bracket.hi) == (0.015625, 0.01611328125)  # as with an ample budget
    assert bracket.witness["admissible"]


# One search of the whole system at its floor settles every step whose
# threshold reaches it: 52 ticks, where settling each pair of balls by its own
# searches took 96.
def test_truncated_floor_search_settles_the_near_pair_within_70_ticks():
    p, q = _near_nine_point_pair()
    bracket = gh_truncated_pair(p, q, 1e-3, budget=70)
    assert (bracket.lo, bracket.hi) == (0.015625, 0.01611328125)


# The first search runs at the smallest halving point the floor allows; on
# this pair it succeeds and settles every larger step. Searching from the
# diameter scale down took 10 searches.
def test_min_approx_eps_searches_the_near_pair_at_most_twice(monkeypatch):
    p, q = _near_nine_point_pair()
    calls = []
    search = gh_solver._approx_search
    monkeypatch.setattr(gh_solver, "_approx_search", lambda *args: calls.append(args[2]) or search(*args))
    bracket = min_approx_eps(p, q, 1e-3)
    assert len(calls) <= 2, calls
    assert validate_approximation(p, q, approx_search(p, q, bracket.hi)) == []


def _near_tuple(rng, n, depth):
    """A depth-``depth`` tuple on n points and its copy jittered by 0.05, same chain."""
    left = random_space(rng, n)
    right = jittered_copy(left, rng, 0.05)
    t = _nested_tuple(rng, left, depth)
    return t, MetricTuple(right, tuple(right.subset(r.indices) for r in t.chain))


def _ticks(system, query):
    """``query()`` and the ticks it took from the system's budget."""
    left = system.budget.left
    return query(), left - system.budget.left


def test_decide_refutes_totals_below_the_floor_cost():
    # every assignment costs at least the floor's LP value lo0, so a total
    # whose bound lies below it is refuted with no search and retry lo0 - tol;
    # the hook prices only maxima grown past the floor and cannot tell
    system, tol = _tuple_system(*_near_tuple(np.random.default_rng(85), 4, 2))
    floor = system.class_floor(3).tolist()
    lo0 = _lp_min_total(floor)[0]
    for total in (lo0 - 1.5 * tol, lo0 / 2, 0.0):
        (hit, retry), ticks = _ticks(system, lambda: system.decide(total, floor))
        assert hit is None and retry == lo0 - tol and ticks == 0, (total, hit)
    hit, retry = system.decide(lo0 - tol, floor)
    assert hit is not None and _lp_min_total(hit[1])[0] <= lo0


# Arc consistency leaves one value per variable at every step of these near
# inputs, so they run no search: each step builds its two packed tensors, and
# the witness at the final caps is the decided step's assignment.
def test_decided_steps_run_no_search_and_build_no_witness_masks(monkeypatch):
    rng = np.random.default_rng(81)
    cases = [(gh_compact_pair, *_near_nine_point_pair())]
    cases += [(gh_compact_tuple, *_near_tuple(rng, 5, depth)) for depth in (2, 3)]
    calls = {"backtrack": 0, "packed": 0, "decide": 0}
    budgets = []  # every budget a solver creates, to read the ticks it spent

    def counted(name, fn):
        return lambda *args, **kw: calls.__setitem__(name, calls[name] + 1) or fn(*args, **kw)

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(gh_solver, "_backtrack", counted("backtrack", gh_solver._backtrack))
    monkeypatch.setattr(_MaskSearch, "_packed", counted("packed", _MaskSearch._packed))
    monkeypatch.setattr(_MaskSearch, "decide", counted("decide", _MaskSearch.decide))
    monkeypatch.setattr(gh_solver, "_Budget", Recorded)
    for solve, x, y in cases:
        calls.update(backtrack=0, packed=0, decide=0)
        decided = formats.dumps(formats.bracket_doc(solve(x, y, 1e-3)))
        assert calls["decide"] >= 1 and calls["backtrack"] == 0, calls
        assert calls["packed"] == 2 * calls["decide"], calls
        # the same bytes and ticks as searching every query
        with monkeypatch.context() as forced:
            forced.setattr(gh_solver, "_decided", lambda doms: False)
            searched = formats.dumps(formats.bracket_doc(solve(x, y, 1e-3)))
        assert decided == searched
        assert calls["backtrack"] > 0
        spent = [b.limit - b.left for b in budgets[-2:]]
        assert spent[0] == spent[1], spent


def _near_and_unrelated_systems(seed, jitter=0.05):
    """Pair systems on 3-5 points: a jittered copy sharing its subset, and an unrelated pair."""
    rng = np.random.default_rng(seed)
    for n in (3, 4, 5):
        left = random_space(rng, n)
        a = random_subset(rng, n, k=n // 2)
        yield _mask_kernel(_pair(left, a), _pair(jittered_copy(left, rng, jitter), a))
        yield _mask_kernel(random_pair(rng, n, n), random_pair(rng, n, n))


def test_decided_queries_match_backtrack_on_the_pruned_domains():
    seen = {"decided": 0, "searched": 0}
    for system, tol in _near_and_unrelated_systems(83):
        system.budget = _Budget(10**7)
        halves = np.unique(system.d_ll[system.d_ll > 0]) / 2
        grid = np.quantile(halves, np.linspace(0.0, 1.0, 7), method="nearest")
        for t1, t2 in itertools.product(grid, grid):
            theta = np.add.outer([t1, t2], [t1, t2]) + tol
            pruned = system._pruned(theta)
            if pruned is None:
                continue
            rows, doms = pruned
            seen["decided" if gh_solver._decided(doms) else "searched"] += 1
            for lexicographic in (False, True):
                got, ticks = _ticks(system, lambda: system.search(theta, lexicographic))
                want, want_ticks = _ticks(
                    system,
                    lambda: gh_solver._backtrack(
                        list(range(system.nvars)), doms, rows, system.budget.tick, lexicographic
                    ),
                )
                assert got == (None if want is None else [want[i] for i in range(system.nvars)])
                assert ticks == want_ticks
    assert all(seen.values()), seen


def test_decided_walk_matches_the_decision_search(monkeypatch):
    # every mismatch and half of one as the total; on these draws the hook
    # refutes two decided steps, whose single values cost too much
    seen = {"hit": 0, "refuted": 0}
    for system, tol in _near_and_unrelated_systems(53, jitter=0.3):
        system.budget = _Budget(10**7)
        floor = system.class_floor(2).tolist()
        values = np.unique(system.d_ll)
        for total in np.unique(np.concatenate([values, values / 2])):
            got, ticks = _ticks(system, lambda: system.decide(total, floor))
            with monkeypatch.context() as m:
                m.setattr(gh_solver, "_decided", lambda doms: False)
                want, want_ticks = _ticks(system, lambda: system.decide(total, floor))
            assert ticks == want_ticks
            if got[0] is None:
                assert want[0] is None and got[1] == want[1]
            else:
                assert got[0][:2] == want[0][:2] and got[1] is want[1] is None
                assert want[0][2] is None
            bound = total + tol
            pruned = system._pruned(np.where(np.eye(2, dtype=bool), 2 * bound, bound))
            decided = pruned is not None and gh_solver._decided(pruned[1])
            if decided:
                seen["refuted" if got[0] is None else "hit"] += 1
            assert got[0] is None or (got[0][2] is not None) == decided
    assert all(seen.values()), seen


def test_witness_read_off_a_decided_hit_is_the_first_witness():
    # the LP caps of a decided hit lie within its step's thresholds and let
    # it pass; halved, they refuse it, and loosened past the step's
    # thresholds, another assignment may come first
    seen = {"read": 0, "beyond the step": 0, "too tight": 0}
    rng = np.random.default_rng(86)
    tuples = [_tuple_system(*_near_tuple(rng, n, depth)) for n, depth in ((4, 2), (5, 3))]
    for system, tol in [*_near_and_unrelated_systems(87), *tuples]:
        system.budget = _Budget(10**7)
        floor = system.class_floor(len(set(system._cls.tolist()))).tolist()
        loose = np.median(system.d_ll)
        for total in np.quantile(np.unique(system.d_ll), [0.0, 0.05, 0.1, 0.2], method="nearest"):
            hit, _ = system.decide(total, floor)
            if hit is None or hit[2] is None:
                continue
            lp_caps = np.array(_lp_min_total(hit[1])[1])
            for caps in (lp_caps, lp_caps / 2, lp_caps + loose):
                got, ticks = _ticks(system, lambda: system.witness(caps, hit))
                want, want_ticks = _ticks(system, lambda: system.first_witness(caps))
                assert (got, ticks) == (want, want_ticks)
                theta = system._cap_thresholds(caps)
                if not (theta <= hit[2]).all():
                    seen["beyond the step"] += got != hit[0]
                elif (np.array(hit[1]) <= theta).all():
                    seen["read"] += 1
                else:
                    seen["too tight"] += got != hit[0]
    assert all(seen.values()), seen


def _system_on_balls(p, q, eps):
    """The truncated-pair system at eps built on the two closed (1/eps)-balls
    alone, with the balls' points."""
    left, right = p.space, q.space
    a, b = list(p.a.indices), list(q.a.indices)
    ball_l = [x for x in range(len(left)) if left.dist[x, a].min() <= 1 / eps + left.tol]
    ball_r = [y for y in range(len(right)) if right.dist[y, b].min() <= 1 / eps + right.tol]
    mask_l, mask_r, mask_a, mask_b = (sum(1 << v for v in d) for d in (range(len(left)), range(len(right)), a, b))
    variables = [(0, x, 0, mask_r, "f", x) for x in ball_l] + [(1, y, 0, mask_l, "g", y) for y in ball_r]
    variables += [(0, x, 1, mask_b, "alpha", (0, x)) for x in a] + [(1, y, 1, mask_a, "beta", (0, y)) for y in b]
    d_ll = gh_solver._mismatches(left.dist, right.dist)
    ref = _MaskSearch(left.dist, right.dist, d_ll, max(left.tol, right.tol), _Budget(10**6), variables)
    return ref, (tuple(ball_l), tuple(ball_r))


def test_truncated_subsystems_equal_systems_built_on_the_balls():
    rng = np.random.default_rng(47)
    seen, shared = set(), 0
    for _ in range(4):
        left = random_space(rng, 5, hi=8.0)
        right = jittered_copy(left, rng, 0.5)
        a = random_subset(rng, 5, k=2)
        p, q = _pair(left, a), _pair(right, a)
        tol = max(left.tol, right.tol)
        full = gh_solver._tuple_system(MetricTuple(left, (p.a,)), MetricTuple(right, (q.a,)), tol, _Budget(10**6))
        systems, by_balls = _BallSystems(full, p, q), {}
        for eps in (0.5, 0.3, 0.2, 0.12, 0.08, 0.07):
            sub = systems.system(eps)
            ref, balls = _system_on_balls(p, q, eps)
            seen.add(tuple(map(len, balls)))
            # eps values with the same balls get equal sub-systems, and only they do
            shared += balls in by_balls
            kept = by_balls.setdefault(balls, sub)
            assert kept.vars == sub.vars and kept.meta == sub.meta
            assert len({tuple(s.meta) for s in by_balls.values()}) == len(by_balls)
            assert sub.vars == ref.vars and sub.meta == ref.meta
            assert np.array_equal(sub.pair_min, ref.pair_min)
            theta = np.full((2, 2), 2 * eps + tol)
            got, want = sub._build_masks(theta), ref._build_masks(theta)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
            # a verdict settled by an earlier step's assignment is the search's verdict
            assert systems.feasible(eps) == (ref.feasible((eps, eps)) is not None)
            assert sub.first_witness((eps, eps)) == ref.first_witness((eps, eps))
    assert len(seen) > 1  # some balls cut points off
    assert shared > 0


def _truncated_reference(p, q, resolution):
    """``gh_truncated_pair``'s (lo, hi, maps), with every step searched on a
    system built on its balls."""
    p, q = gh_solver._with_tol_floor(p, q)
    swap = gh_solver._swap_for_canonical_order(p.space, (p.a,), q.space, (q.a,))
    if swap:
        p, q = q, p
    tol = max(p.space.tol, q.space.tol)

    def feasible(eps):
        return _system_on_balls(p, q, eps)[0].feasible((eps, eps)) is not None

    if not feasible(0.5):
        return 0.5, 0.5, None
    e_lo, e_hi = 0.0, 0.5
    while e_hi - e_lo > resolution / 2 and e_hi > tol:
        mid = (e_hi + e_lo) / 2
        if feasible(mid):
            e_hi = mid
        else:
            e_lo = mid
    ref = _system_on_balls(p, q, e_hi)[0]
    maps = {"f": {}, "g": {}, "alpha": {}, "beta": {}}
    for (kind, key), value in zip(ref.meta, ref.first_witness((e_hi, e_hi))):
        maps[kind][key[1] if kind in ("alpha", "beta") else key] = value
    if swap:
        maps = {"f": maps["g"], "g": maps["f"], "alpha": maps["beta"], "beta": maps["alpha"]}
    return e_lo, e_hi, maps


def _assert_truncated_matches_reference(p, q):
    bracket = gh_truncated_pair(p, q, 1e-3)
    maps = None if bracket.witness is None else {k: bracket.witness[k] for k in ("f", "g", "alpha", "beta")}
    assert (bracket.lo, bracket.hi, maps) == _truncated_reference(p, q, 1e-3)


def test_truncated_settled_steps_match_a_search_on_the_balls_at_every_step():
    for p, q in _near_pairs(71, 12):
        _assert_truncated_matches_reference(p, q)


def _depth_one_24_point_tuples():
    rng = np.random.default_rng(53)
    left, right = random_space(rng, 24), random_space(rng, 24)
    t = MetricTuple(left, (left.subset(random_subset(rng, 24, k=12)),))
    u = MetricTuple(right, (right.subset(random_subset(rng, 24, k=12)),))
    return t, u


def test_system_retains_one_family_tensor():
    t, u = _depth_one_24_point_tuples()
    tracemalloc.start()
    try:
        system, _ = _tuple_system(t, u)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1.5 * system.d_ll.nbytes, (retained, system.d_ll.nbytes)


def test_finalize_allocates_no_second_family_tensor():
    # the build of every table, given the family tensor: a sub-system of all
    # variables is one constructor call on the shared tensor
    t, u = _depth_one_24_point_tuples()
    system, _ = _tuple_system(t, u)
    tracemalloc.start()
    try:
        rebuilt = system.subsystem(range(system.nvars))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebuilt.d_ll is system.d_ll
    assert peak < system.d_ll.nbytes, (peak, system.d_ll.nbytes)


def test_decision_setup_stays_below_two_family_tensors():
    t, u = _depth_one_24_point_tuples()
    system, tol = _tuple_system(t, u)
    # a total at the diameter refutes nothing early, so every mask is built
    total = max(t.space.diameter, u.space.diameter)
    theta = np.where(np.eye(2, dtype=bool), 2 * total, total) + tol
    tracemalloc.start()
    try:
        pruned = system._pruned(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pruned is not None
    assert peak < 2 * system.d_ll.nbytes, (peak, system.d_ll.nbytes)


@pytest.mark.parametrize("query", ["decide", "feasible"])
def test_searches_stay_below_two_family_tensors(query):
    # a search converts only the rows of the values it visits; converting the
    # whole row tensor to nested lists peaked at 2.8x (decide) and 2.6x
    t, u = _depth_one_24_point_tuples()
    system, _ = _tuple_system(t, u)
    total = max(t.space.diameter, u.space.diameter)
    floor = system.class_floor(2).tolist()
    tracemalloc.start()
    try:
        found = system.decide(total, floor)[0] if query == "decide" else system.feasible((total, total))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak < 2 * system.d_ll.nbytes, (peak, system.d_ll.nbytes)


@st.composite
def _small_pairs(draw, max_points=5):
    """A pair on at most ``max_points`` points with small integer weights, so ties are common."""
    n = draw(st.integers(1, max_points))
    w = np.array(draw(st.lists(st.integers(1, 6), min_size=n * n, max_size=n * n)), dtype=float)
    w = w.reshape(n, n) / 2
    space = validate_metric(closure_of(w + w.T))
    a = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return MetricPair(space, space.subset(sorted(a)))


@st.composite
def _relabelled(draw, pair):
    perm = draw(st.permutations(range(len(pair.space))))
    space = validate_metric(pair.space.dist[np.ix_(perm, perm)])
    return MetricPair(space, space.subset(sorted(perm.index(i) for i in pair.a.indices)))


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@_PROPERTY
@given(st.data())
def test_truncated_bracket_exactly_invariant_under_relabelling(data):
    p, q = data.draw(_small_pairs()), data.draw(_small_pairs())
    base = gh_truncated_pair(p, q, 1e-3)
    moved = gh_truncated_pair(data.draw(_relabelled(p)), q, 1e-3)
    assert (moved.lo, moved.hi) == (base.lo, base.hi)


@_PROPERTY
@given(st.data())
def test_truncated_settled_steps_match_a_search_on_the_balls_on_small_pairs(data):
    _assert_truncated_matches_reference(data.draw(_small_pairs()), data.draw(_small_pairs()))


@_PROPERTY
@given(st.data())
def test_compact_brackets_intersect_under_relabelling(data):
    p, q = data.draw(_small_pairs()), data.draw(_small_pairs())
    base = gh_compact_pair(p, q, 1e-3)
    moved = gh_compact_pair(data.draw(_relabelled(p)), data.draw(_relabelled(q)), 1e-3)
    assert max(base.lo, moved.lo) <= min(base.hi, moved.hi) + 2 * base.tol


@_PROPERTY
@given(st.data())
def test_depth_one_tuple_bracket_intersects_pair_bracket(data):
    p, q = data.draw(_small_pairs(max_points=4)), data.draw(_small_pairs(max_points=4))
    pair = gh_compact_pair(p, q, 1e-3)
    tup = gh_compact_tuple(MetricTuple(p.space, (p.a,)), MetricTuple(q.space, (q.a,)), 1e-3)
    assert max(pair.lo, tup.lo) <= min(pair.hi, tup.hi) + 2 * pair.tol


@st.composite
def _small_tuples(draw, max_points=4):
    """A depth-2 tuple on at most ``max_points`` points with small integer weights."""
    pair = draw(_small_pairs(max_points))
    inner = draw(st.lists(st.sampled_from(pair.a.indices), min_size=1, unique=True))
    return MetricTuple(pair.space, (pair.space.subset(sorted(inner)), pair.a))


def _scaled(pair, lam):
    space = validate_metric(pair.space.dist * lam)
    return MetricPair(space, space.subset(pair.a.indices))


@_PROPERTY
@given(st.data())
def test_compact_bracket_scales_with_both_spaces(data):
    p, q = data.draw(_small_pairs()), data.draw(_small_pairs())
    lam = data.draw(st.sampled_from([0.25, 0.5, 3.0, 10.0]))
    base = gh_compact_pair(p, q, 1e-3)
    scaled = gh_compact_pair(_scaled(p, lam), _scaled(q, lam), lam * 1e-3)
    slack = 2 * scaled.tol
    assert abs(scaled.lo - lam * base.lo) <= slack and abs(scaled.hi - lam * base.hi) <= slack


@pytest.mark.parametrize("seed", range(4))
def test_zero_tolerance_brackets_carry_admissible_certificates(seed):
    # at tolerance zero, an LP cap or a bisection midpoint an ulp short of a
    # mismatch would refute the very assignment it came from
    rng = np.random.default_rng(5 + 10 * seed)
    for _ in range(20):
        spaces = [random_space(rng, int(rng.integers(3, 6)), tol=0.0) for _ in range(2)]
        p, q = [_pair(s, random_subset(rng, len(s))) for s in spaces]
        t, u = [MetricTuple(x.space, (x.space.subset(x.a.indices[:1]), x.space.full_subset())) for x in (p, q)]
        for bracket, x, y in (
            (gh_compact_pair(p, q, 1e-3), p, q),
            (gh_compact_tuple(t, u, 1e-3), t, u),
            (gh_truncated_pair(p, q, 1e-3), p, q),
        ):
            if bracket.certificate is not None:
                assert oracles.cross_is_admissible(x.space.dist, y.space.dist, bracket.certificate.cross)


@_PROPERTY
@given(st.data())
def test_compact_certificates_pass_the_oracles(data):
    p, q = data.draw(_small_pairs()), data.draw(_small_pairs())
    t, u = data.draw(_small_tuples()), data.draw(_small_tuples())
    pair, tup = gh_compact_pair(p, q, 1e-3), gh_compact_tuple(t, u, 1e-3)
    for bracket, x, y in ((pair, p, q), (tup, t, u)):
        cross = bracket.certificate.cross
        assert oracles.cross_is_admissible(x.space.dist, y.space.dist, cross, tol=2 * bracket.tol)
    direct = oracles.pair_hausdorff_direct(
        p.space.dist, q.space.dist, pair.certificate.cross, p.a.indices, q.a.indices
    )
    assert direct <= pair.hi
    chains = [[r.indices for r in t.chain], [r.indices for r in u.chain]]
    assert oracles.tuple_hausdorff_direct(t.space.dist, u.space.dist, tup.certificate.cross, *chains) <= tup.hi


def test_approx_search_identity_and_validation():
    rng = np.random.default_rng(5)
    space = random_space(rng, 4)
    pair = _pair(space, [1, 3])
    found = approx_search(pair, pair, 0.05)
    assert found is not None
    assert found.f == (0, 1, 2, 3) and found.g == (0, 1, 2, 3)
    assert validate_approximation(pair, pair, found) == []


def test_approx_search_not_found_below_minimum():
    rng = np.random.default_rng(6)
    p, q = random_pair(rng, n_lo=3, n_hi=4), random_pair(rng, n_lo=3, n_hi=4)
    bracket = min_approx_eps(p, q, 1e-3)
    if bracket.lo > 1e-3:
        assert approx_search(p, q, bracket.lo / 2) is None
    found = approx_search(p, q, bracket.hi)
    assert found is not None
    assert validate_approximation(p, q, found) == []


def test_min_approx_eps_identical_pairs_brackets_zero():
    rng = np.random.default_rng(20)
    pair = random_pair(rng, n_lo=3, n_hi=4)
    bracket = min_approx_eps(pair, pair, 1e-3)
    assert bracket.lo == 0.0 and bracket.hi <= 1e-3


def test_min_approx_eps_narrows_with_resolution():
    rng = np.random.default_rng(7)
    p, q = random_pair(rng, n_lo=3, n_hi=4), random_pair(rng, n_lo=3, n_hi=4)
    coarse = min_approx_eps(p, q, 1e-2)
    fine = min_approx_eps(p, q, 1e-3)
    assert fine.hi - fine.lo <= coarse.hi - coarse.lo + 1e-12
    assert coarse.lo - 1e-2 <= fine.lo and fine.hi <= coarse.hi + 1e-2


def test_complete_distortion_map_bijective_isometry():
    rng = np.random.default_rng(8)
    space = random_space(rng, 5)
    perm = [3, 0, 4, 1, 2]
    relabeled = validate_metric(space.dist[np.ix_(perm, perm)])
    a = [0, 1]
    b = sorted(perm.index(i) for i in a)
    pair_p, pair_q = _pair(space, a), _pair(relabeled, b)
    f = [perm.index(x) for x in range(5)]
    for eps in (0.01, 0.5):
        result = complete_distortion_map(pair_p, pair_q, f, eps)
        assert result.eps == 3 * eps
        assert validate_approximation(pair_p, pair_q, result) == []


def test_complete_distortion_map_proof_constants():
    rng = np.random.default_rng(9)
    for _ in range(10):
        left = random_space(rng, 4, hi=3.0)
        right = jittered_copy(left, rng, 0.2)
        pair_p = _pair(left, random_subset(rng, 4))
        b = sorted({int(i) for i in pair_p.a.indices})
        pair_q = _pair(right, b)
        eps = 0.45
        result = complete_distortion_map(pair_p, pair_q, list(range(4)), eps)
        dl, dr = left.dist, right.dist
        h = np.asarray(result.g)
        f = np.asarray(result.f)
        assert float(dl[np.arange(4), h[f]].max()) < eps + 1e-9
        assert (
            oracles.hausdorff_double_loop(dl, [h[i] for i in pair_q.a.indices], pair_p.a.indices)
            < 3 * eps + 1e-9
        )


def test_complete_distortion_map_precondition_errors():
    left = line_space([0, 1])
    right = line_space([0, 5])
    p, q = _pair(left, [0]), _pair(right, [0])
    with pytest.raises(PreconditionViolated):
        complete_distortion_map(p, q, [0, 1], 0.5)  # distortion 4 >> eps


def test_rough_isometry_search_and_glue():
    rng = np.random.default_rng(10)
    left = random_space(rng, 4, hi=2.0)
    right = jittered_copy(left, rng, 0.05)
    pair_p, pair_q = _pair(left, [0]), _pair(right, [0])
    eps, radius = 0.3, 8.0
    witness = rough_isometry_search(pair_p, pair_q, radius, eps)
    assert witness is not None
    glue = glue_from_rough_isometry(left, right, witness.f, pair_p.a, eps, radius)
    assert glue.cross.shape == (4, 4)


def test_rough_isometry_not_found_when_truncated_distance_forbids():
    # a witness at (R, eps) would force the truncated distance below the
    # bound; here d_H(A, B) >= 1/2 under any gluing, so the search must fail
    left = line_space([0.0, 1.0])
    right = validate_metric(np.array([[0.0]]))
    p, q = MetricPair(left, left.full_subset()), MetricPair(right, right.subset([0]))
    bracket = gh_truncated_pair(p, q, 1e-3)
    eps, radius = 0.1, 5.0
    bound = max(3 * eps, 1.0 / (radius - eps))
    assert bracket.lo > bound
    assert rough_isometry_search(p, q, radius, eps) is None


# The ball maps of distortion 0.3 send all twelve left points near 0, so no
# image reaches 5 or 10. Forward-checking the covering clause refutes each
# search at its first variable; a check on complete maps alone would try
# thousands of them and exceed the budget.
def test_image_clauses_refute_before_complete_maps():
    left, right = line_space(np.arange(12) * 0.001), line_space([0.0, 0.1, 5.0, 10.0])
    p, q = _pair(left, [0]), _pair(right, [0])
    assert rough_isometry_search(p, q, 20.0, 0.3, budget=50) is None
    assert rough_isometry_search(p, q, 20.0, 0.3, budget=10**7) is None
    sched = ConvergenceSchedule((0.3,), (20.0,))
    report = verify_convergence([p], q, sched, resolution=1.0, budget=50)
    assert report == verify_convergence([p], q, sched, resolution=1.0, budget=10**7)
    assert not report["indices"][0]["passed"]


def test_verify_convergence_searches_a_passing_eps_once(monkeypatch):
    rng = np.random.default_rng(21)
    target = random_pair(rng, n_lo=3, n_hi=4, hi=2.0)
    seq_pair = MetricPair(jittered_copy(target.space, rng, 0.2), target.a)
    radius = target.space.diameter + seq_pair.space.diameter + 1.0
    sched = ConvergenceSchedule(eps_seq=(1.0,), radius_seq=(radius,))
    searches, search = [], gh_solver._backtrack
    monkeypatch.setattr(gh_solver, "_backtrack", lambda *args, **kw: searches.append(1) or search(*args, **kw))
    report = verify_convergence([seq_pair], target, sched, resolution=1e-3)
    assert report["indices"][0]["passed"]
    # one search at eps = 1, then one per halving of [0, 1] down to the resolution
    assert len(searches) == 1 + 10


def test_verify_convergence_min_eps_tracks_distance():
    # an approximation witness at eps induces a ball map with twice the
    # distortion, so the per-index minimal eps stays within the sandwich scale
    rng = np.random.default_rng(21)
    for _ in range(5):
        target = random_pair(rng, n_lo=3, n_hi=4, hi=2.0)
        seq_pair = MetricPair(
            jittered_copy(target.space, rng, 0.2),
            target.a,
        )
        gh = gh_compact_pair(seq_pair, target, 1e-3)
        radius = target.space.diameter + seq_pair.space.diameter + 1.0
        sched = ConvergenceSchedule(eps_seq=(1.0,), radius_seq=(radius,))
        report = verify_convergence([seq_pair], target, sched, resolution=1e-3)
        assert report["indices"][0]["min_eps_hi"] <= 4 * gh.hi + 1e-2


def test_pair_isometry_search():
    rng = np.random.default_rng(11)
    space = random_space(rng, 5)
    pair = _pair(space, [0, 2])
    assert pair_isometry_search(pair, pair) == (0, 1, 2, 3, 4)
    # same spaces, different subset sizes: no pair isometry
    assert pair_isometry_search(pair, _pair(space, [0, 1, 2])) is None
    perm = [4, 2, 0, 1, 3]
    relabeled = validate_metric(space.dist[np.ix_(perm, perm)])
    b = sorted(perm.index(i) for i in (0, 2))
    got = pair_isometry_search(pair, _pair(relabeled, b))
    assert got is not None
    assert [perm[g] for g in got] == [0, 1, 2, 3, 4]  # recovered the planted relabeling


def test_two_point_family_closed_form():
    # one-point pair vs a two-point space with B one endpoint: the infimum is
    # the two-point distance itself, for any value of that distance
    left = validate_metric(np.array([[0.0]]))
    for d in (0.5, 2.0, 7.0):
        right = validate_metric(np.array([[0.0, d], [d, 0.0]]))
        bracket = gh_compact_pair(_pair(left, [0]), _pair(right, [0]), 1e-3)
        assert bracket.hi == pytest.approx(d, abs=1e-3)
        assert bracket.lo <= d <= bracket.hi + 1e-9


def test_simplex_family_closed_form():
    # equilateral spaces at side lengths a and b with full subsets: every
    # correspondence distorts by |a - b|, so the pair distance is |a - b|
    for a, b in ((1.0, 1.6), (0.4, 2.0)):
        left = validate_metric(np.full((3, 3), a) - a * np.eye(3))
        right = validate_metric(np.full((3, 3), b) - b * np.eye(3))
        p = MetricPair(left, left.full_subset())
        q = MetricPair(right, right.full_subset())
        bracket = gh_compact_pair(p, q, 1e-3)
        assert bracket.hi == pytest.approx(abs(a - b), abs=1e-3)


def test_gh_lower_bounded_by_diameter_gap():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p, q = random_pair(rng), random_pair(rng)
        bracket = gh_compact_pair(p, q, 1e-3)
        gap = abs(p.space.diameter - q.space.diameter) / 2
        assert bracket.hi >= gap - 1e-9


def test_gh_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    p, q = random_pair(rng), random_pair(rng)
    base = gh_compact_pair(p, q, 1e-3)
    perm = list(rng.permutation(len(p.space)))
    relabeled = validate_metric(p.space.dist[np.ix_(perm, perm)])
    moved = sorted(perm.index(i) for i in p.a.indices)
    other = gh_compact_pair(MetricPair(relabeled, relabeled.subset(moved)), q, 1e-3)
    assert abs(base.hi - other.hi) <= 1e-3 + 1e-9
    assert abs(base.lo - other.lo) <= 1e-3 + 1e-9


def test_truncated_triangle_inequality_on_brackets():
    rng = np.random.default_rng(37)
    for _ in range(10):
        p, q, r = (random_pair(rng, n_lo=3, n_hi=4) for _ in range(3))
        b_pq = gh_truncated_pair(p, q, 1e-3)
        b_qr = gh_truncated_pair(q, r, 1e-3)
        b_pr = gh_truncated_pair(p, r, 1e-3)
        assert b_pr.hi <= b_pq.hi + b_qr.hi + 2e-3 + 1e-9


def test_gh_tuple_identical_and_pair_agreement(derived):
    fx = derived["gh_pair_grid_2x2"]
    left = validate_metric(np.array(fx["dl"]))
    right = validate_metric(np.array(fx["dr"]))
    t = MetricTuple(left, (left.subset(fx["a"]),))
    u = MetricTuple(right, (right.subset(fx["b"]),))
    tup = gh_compact_tuple(t, u, 1e-3)
    pair = gh_compact_pair(_pair(left, fx["a"]), _pair(right, fx["b"]), 1e-3)
    assert abs(tup.hi - pair.hi) <= 1e-3
    same = gh_compact_tuple(t, t, 1e-3)
    assert same.contains_zero() and same.hi <= 1e-3


def test_gh_tuple_random_bracket_sane():
    rng = np.random.default_rng(12)
    s1, s2 = random_space(rng, 4, hi=3.0), random_space(rng, 4, hi=3.0)
    t1 = MetricTuple(s1, (s1.subset([0]), s1.subset([0, 1, 2])))
    t2 = MetricTuple(s2, (s2.subset([1]), s2.subset([0, 1, 3])))
    b = gh_compact_tuple(t1, t2, 1e-3)
    assert 0 <= b.lo <= b.hi
    assert b.hi - b.lo <= 1e-3 + 1e-9
    from metric_pairs import tuple_hausdorff

    assert tuple_hausdorff(b.certificate, t1, t2) <= b.hi


def test_gh_tuple_deep_chain_uses_lp_fallback():
    # four cap classes take the Hungarian method instead of the two-class closed form
    space = line_space([0.0, 1.0, 2.2])
    chain = (space.subset([0]), space.subset([0, 1]), space.subset([0, 1, 2]))
    t = MetricTuple(space, chain)
    b = gh_compact_tuple(t, t, 1e-3)
    assert b.contains_zero() and b.hi <= 1e-3

    other = line_space([0.0, 1.3, 2.4])
    u = MetricTuple(other, (other.subset([0]), other.subset([0, 1]), other.subset([0, 1, 2])))
    b2 = gh_compact_tuple(t, u, 1e-2)
    assert b2.lo > 0 and b2.hi - b2.lo <= 1e-2 + 1e-9


def test_verify_convergence_constant_and_planted_failure():
    rng = np.random.default_rng(13)
    space = random_space(rng, 4, hi=2.0)
    pair = _pair(space, [0])
    sched = ConvergenceSchedule(eps_seq=(0.5, 0.25, 0.1), radius_seq=(3.0, 5.0, 9.0))
    report = verify_convergence([pair, pair, pair], pair, sched)
    assert report["all_passed"]
    assert all(r["min_eps_hi"] <= 0.1 for r in report["indices"])

    scaled = validate_metric(space.dist * 3.0)
    bad = _pair(scaled, [0])
    report = verify_convergence([pair, bad, pair], pair, sched)
    assert report["indices"][0]["passed"]
    assert not report["indices"][1]["passed"]
    assert report["indices"][1]["min_eps_hi"] > 0.25


def test_schedule_validation():
    with pytest.raises(PreconditionViolated):
        ConvergenceSchedule(eps_seq=(0.1, 0.2), radius_seq=(1.0, 2.0))
    with pytest.raises(PreconditionViolated):
        ConvergenceSchedule(eps_seq=(0.2, 0.1), radius_seq=(2.0, 1.0))
    for eps_seq, radius_seq in (((float("nan"),), (1.0,)), ((0.1,), (float("nan"),))):
        with pytest.raises(PreconditionViolated):
            ConvergenceSchedule(eps_seq=eps_seq, radius_seq=radius_seq)


# Lexicographic-first witnesses against plain enumeration. Integer weights
# make ties, and so several witnesses per instance, common.


def _integer_pair(rng, n):
    w = rng.integers(1, 4, size=(n, n)).astype(float)
    space = validate_metric(closure_of((w + w.T) / 2.0))
    return _pair(space, random_subset(rng, n))


def _maps(values, k):
    """Every map of k points into ``values``, one per row, in lexicographic order."""
    return np.array(list(itertools.product(values, repeat=k)), dtype=int).reshape(-1, k)


def _distortion_ok(d_dom, dr, maps, bound):
    return np.abs(d_dom[None] - dr[maps[:, :, None], maps[:, None, :]]).max(axis=(1, 2)) <= bound


def _gap(dr, points, images):
    """Per map: the largest distance from one of ``points`` to the map's images."""
    return dr[np.asarray(points)[None, :, None], images[:, None, :]].min(axis=2).max(axis=1)


def _ball(pair, r):
    return oracles.ball_min_over_members(pair.space.dist, pair.a.indices, r + pair.space.tol, "closed")


def _first_approximation(p, q, eps):
    for f in itertools.product(range(len(q.space)), repeat=len(p.space)):
        for g in itertools.product(range(len(p.space)), repeat=len(q.space)):
            ap = ApproximationPair(f=f, g=g, eps=float(eps))
            if not validate_approximation(p, q, ap):
                return ap
    return None


def test_approx_search_returns_lexicographically_first_valid_pair():
    rng = np.random.default_rng(61)
    found = 0
    for _ in range(6):
        p, q = _integer_pair(rng, int(rng.integers(2, 4))), _integer_pair(rng, int(rng.integers(2, 4)))
        for eps in (0.5, 1.0, 1.5, 2.5):
            want = _first_approximation(p, q, eps)
            assert approx_search(p, q, eps) == want, (p.a, q.a, eps)
            found += want is not None
    assert 0 < found < 24


def _near_pairs(seed, count):
    """Near-isometric pairs on 3-6 points sharing their subset, jitter 0.05."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        left = random_space(rng, n)
        a = random_subset(rng, n)
        yield _pair(left, a), _pair(jittered_copy(left, rng, 0.05), a)


def test_approximation_clauses_match_the_double_loop_oracle():
    rng = np.random.default_rng(67)
    pairs = list(_near_pairs(67, 6))
    for _ in range(6):
        pairs.append((_integer_pair(rng, int(rng.integers(2, 5))), _integer_pair(rng, int(rng.integers(2, 5)))))
    for p, q in pairs:
        nl, nr = len(p.space), len(q.space)
        tol = max(p.space.tol, q.space.tol)
        maps = [(rng.integers(0, nr, nl), rng.integers(0, nl, nr)) for _ in range(4)]
        hit = approx_search(p, q, max(p.space.diameter, q.space.diameter) / 4)
        maps += [] if hit is None else [(hit.f, hit.g)]
        for f, g in maps:
            f, g = tuple(int(v) for v in f), tuple(int(v) for v in g)
            want = oracles.approximation_clauses_double_loop(
                p.space.dist, q.space.dist, p.a.indices, q.a.indices, f, g
            )
            assert gh_solver._approximation_clauses(p, q, f, g) == want
            for value in want.values():
                for eps in (value, value - tol):  # a clause exactly at eps, or within tol of it
                    failing = [name for name, v in want.items() if not v <= eps + tol]
                    assert validate_approximation(p, q, ApproximationPair(f, g, eps)) == failing


def _assert_min_approx_witness_is_first_at_hi(p, q):
    bracket = min_approx_eps(p, q, 1e-3)
    found = approx_search(p, q, bracket.hi)
    assert (tuple(bracket.witness["f"]), tuple(bracket.witness["g"])) == (found.f, found.g)


def test_min_approx_eps_witness_is_the_first_pair_at_hi():
    for p, q in _near_pairs(71, 12):
        _assert_min_approx_witness_is_first_at_hi(p, q)


@_PROPERTY
@given(st.data())
def test_min_approx_eps_witness_is_the_first_pair_at_hi_on_small_pairs(data):
    p, q = data.draw(_small_pairs(max_points=4)), data.draw(_small_pairs(max_points=4))
    _assert_min_approx_witness_is_first_at_hi(p, q)


def _min_approx_reference(p, q, resolution):
    """``min_approx_eps``'s (lo, hi, f, g), bisecting down from the diameter
    scale with ``approx_search`` at every step."""
    tol = max(p.space.tol, q.space.tol)
    e_lo, e_hi = 0.0, max(max(p.space.diameter, q.space.diameter) + tol, resolution)
    best = approx_search(p, q, e_hi)
    assert best is not None  # every pair of maps is valid at the diameter scale
    while e_hi - e_lo > resolution and e_hi > tol:
        mid = (e_hi + e_lo) / 2
        hit = approx_search(p, q, mid)
        if hit is None:
            e_lo = mid
        else:
            e_hi, best = mid, hit
    return e_lo, e_hi, best.f, best.g


def _assert_min_approx_matches_reference(p, q):
    bracket = min_approx_eps(p, q, 1e-3)
    got = (bracket.lo, bracket.hi, tuple(bracket.witness["f"]), tuple(bracket.witness["g"]))
    assert got == _min_approx_reference(p, q, 1e-3)


def test_min_approx_eps_inferred_steps_match_a_search_at_every_step():
    for p, q in _near_pairs(71, 12):
        _assert_min_approx_matches_reference(p, q)


@_PROPERTY
@given(st.data())
def test_min_approx_eps_inferred_steps_match_a_search_at_every_step_on_small_pairs(data):
    _assert_min_approx_matches_reference(data.draw(_small_pairs()), data.draw(_small_pairs()))


# One joint (f, g) search that forward-checks both image clauses needs at most
# 64 ticks per search on these near pairs, and a whole call, which draws every
# search from one budget, takes 20 and 105. On the 10-point pair, a fresh g
# search per complete f needed 15,966 in one call; on the 12-point pair,
# checking whether g(B) can cover A only while g is assigned needed 2,347,341.
@pytest.mark.parametrize("seed, n", [(247, 10), (136, 12)])
def test_approx_tail_draw_solves_within_a_fixed_budget(seed, n):
    rng = np.random.default_rng(seed)
    left = random_space(rng, n)
    right = jittered_copy(left, rng, 0.05)
    a = random_subset(rng, n, k=n // 2)
    p, q = MetricPair(left, left.subset(a)), MetricPair(right, right.subset(a))
    bracket = min_approx_eps(p, q, 1e-3, budget=1_000)
    assert bracket.hi - bracket.lo <= 1e-3 + 2 * bracket.tol
    assert validate_approximation(p, q, approx_search(p, q, bracket.hi)) == []


# A budget caps the whole call, as for every other solver. On this draw the
# floor is not tight: the call runs 5 searches of at most 25 ticks each, 105
# in all, so a budget of 60 covers every search but not the call.
def test_min_approx_eps_shares_one_budget_across_its_searches():
    rng = np.random.default_rng(136)
    left = random_space(rng, 12)
    right = jittered_copy(left, rng, 0.05)
    a = random_subset(rng, 12, k=6)
    p, q = MetricPair(left, left.subset(a)), MetricPair(right, right.subset(a))
    with pytest.raises(SizeLimitExceeded):
        min_approx_eps(p, q, 1e-3, budget=60)
    assert min_approx_eps(p, q, 1e-3, budget=105).hi == min_approx_eps(p, q, 1e-3).hi


def _rough_isometries(p, q, radius, eps):
    """Every map of the R-ball of A into the (R - eps)-ball of B that is an
    eps-rough isometry, by the definition, in lexicographic order."""
    dl, dr = p.space.dist, q.space.dist
    bound = eps + max(p.space.tol, q.space.tol)
    dom, tgt = _ball(p, radius), _ball(q, radius - eps)
    maps = _maps(tgt, len(dom))
    near_b = dr[:, list(q.a.indices)].min(axis=1) <= bound
    ok = _distortion_ok(dl[np.ix_(dom, dom)], dr, maps, bound)
    ok &= near_b[maps[:, [dom.index(a) for a in p.a.indices]]].all(axis=1)  # f(A) near B
    ok &= _gap(dr, q.a.indices, maps) <= bound  # B near the image
    ok &= _gap(dr, tgt, maps) <= bound  # the image covers the target ball
    return [dict(zip(dom, (int(v) for v in row))) for row in maps[ok]]


def test_rough_isometry_search_returns_lexicographically_first_map():
    rng = np.random.default_rng(62)
    counts = []
    for _ in range(8):
        p, q = _integer_pair(rng, int(rng.integers(2, 6))), _integer_pair(rng, int(rng.integers(2, 6)))
        for radius, eps in ((1.5, 0.5), (3.0, 1.0), (4.0, 1.5)):
            want = _rough_isometries(p, q, radius, eps)
            got = rough_isometry_search(p, q, radius, eps)
            assert (got.f if got is not None else None) == (want[0] if want else None), (p.a, q.a, radius, eps)
            counts.append(len(want))
    assert 0 in counts and max(counts) > 1


def _pair_isometries(p, q):
    """Every distance-preserving bijection carrying A onto B, in lexicographic order."""
    n = len(p.space)
    if len(q.space) != n or len(p.a) != len(q.a):
        return []
    maps = _maps(range(n), n)
    tol = max(p.space.tol, q.space.tol)
    ok = (np.sort(maps, axis=1) == np.arange(n)).all(axis=1)
    ok &= _distortion_ok(p.space.dist, q.space.dist, maps, tol)
    ok &= (np.sort(maps[:, list(p.a.indices)], axis=1) == np.asarray(q.a.indices)).all(axis=1)
    return [tuple(int(v) for v in row) for row in maps[ok]]


def test_pair_isometry_search_returns_lexicographically_first_isometry():
    rng = np.random.default_rng(63)
    cycle = validate_metric(np.array([[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)], float))
    pairs = [_pair(cycle, [0]), _pair(cycle, [1, 3])]
    for _ in range(6):
        pairs.append(_integer_pair(rng, int(rng.integers(2, 6))))
    counts = []
    for p in pairs:
        order = [int(x) for x in rng.permutation(len(p.space))]
        moved = validate_metric(p.space.dist[np.ix_(order, order)])
        for q in (p, _pair(moved, sorted(order.index(a) for a in p.a.indices)), pairs[-1]):
            want = _pair_isometries(p, q)
            assert pair_isometry_search(p, q) == (want[0] if want else None), (p.a, q.a)
            counts.append(len(want))
    assert 0 in counts and max(counts) > 1


def _convergence_passes(p, target, eps, radius):
    """Some map of the radius-ball of A into the target space with distortion
    within eps, d_H(f(A), B) within eps, and the target's radius-ball covered."""
    dl, dr = p.space.dist, target.space.dist
    bound = eps + max(p.space.tol, target.space.tol)
    dom, tgt = _ball(p, radius), _ball(target, radius)
    maps = _maps(range(len(dr)), len(dom))
    img_a = maps[:, [dom.index(a) for a in p.a.indices]]
    b_idx = list(target.a.indices)
    ok = _distortion_ok(dl[np.ix_(dom, dom)], dr, maps, bound)
    ok &= _gap(dr, b_idx, img_a) <= bound
    ok &= dr[img_a][:, :, b_idx].min(axis=2).max(axis=1) <= bound
    ok &= _gap(dr, tgt, maps) <= bound
    return bool(ok.any())


def test_verify_convergence_verdicts_match_enumeration():
    rng = np.random.default_rng(64)
    sched = ConvergenceSchedule(eps_seq=(1.0, 0.6, 0.3), radius_seq=(1.0, 2.0, 4.0))
    verdicts = []
    for _ in range(4):
        target = random_pair(rng, n_lo=3, n_hi=4, hi=3.0)
        near = MetricPair(jittered_copy(target.space, rng, 0.8), target.a)
        seq = [near, random_pair(rng, n_lo=1, n_hi=5, hi=3.0), target]
        report = verify_convergence(seq, target, sched, resolution=0.05)
        for pair, eps, radius, got in zip(seq, sched.eps_seq, sched.radius_seq, report["indices"]):
            want = _convergence_passes(pair, target, eps, radius)
            assert got["passed"] == want, (pair.a, eps, radius)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_map_searches_refuse_value_spaces_beyond_the_bitmask_cap():
    small = _pair(line_space([0.0, 1.0]), [0])
    big = _pair(line_space(np.arange(63.0)), [0])
    with pytest.raises(SizeLimitExceeded):
        rough_isometry_search(small, big, 2.0, 0.5)
    with pytest.raises(SizeLimitExceeded):
        pair_isometry_search(big, big)
    with pytest.raises(SizeLimitExceeded):
        verify_convergence([small], big, ConvergenceSchedule(eps_seq=(0.5,), radius_seq=(2.0,)))
    # at the cap, the highest bit still carries a value
    top = _pair(line_space(np.arange(62.0)), [61])
    assert rough_isometry_search(small, top, 2.0, 0.5).f == {0: 61, 1: 60}


def _pinned_inputs():
    """Seeded compact-pair, compact-tuple and truncated inputs, by name."""
    rng = np.random.default_rng(97)
    near_p, near_q = _near_nine_point_pair()
    unrelated = [(random_pair(rng, n, n), random_pair(rng, n, n)) for n in (4, 5)]
    near_tuples = [_near_tuple(rng, 5, depth) for depth in (2, 3)]
    left, right = random_space(rng, 4), random_space(rng, 4)
    short = [random_pair(rng, 4, 4, hi=0.8) for _ in range(2)]  # the truncated cap does not bind
    return {
        "compact-near": (gh_compact_pair, near_p, near_q),
        "compact-unrelated-4": (gh_compact_pair, *unrelated[0]),
        "compact-unrelated-5": (gh_compact_pair, *unrelated[1]),
        "tuple-near-2": (gh_compact_tuple, *near_tuples[0]),
        "tuple-near-3": (gh_compact_tuple, *near_tuples[1]),
        "tuple-unrelated-2": (gh_compact_tuple, _nested_tuple(rng, left, 2), _nested_tuple(rng, right, 2)),
        "truncated-near": (gh_truncated_pair, near_p, near_q),
        "truncated-unrelated": (gh_truncated_pair, *short),
    }


# SHA-256 of each report, recorded before arc-consistency-decided queries
# skipped their searches; a change to any answer byte must update it here.
PINNED_REPORTS = {
    "compact-near": "a3f18b2c4d962b9ef428dba04bf1b0732d5cb8ac5f410be8b8d6b5d04b0cd92e",
    "compact-unrelated-4": "84ca05649edcd7cb919febc7e8f7b1eea862d49ed00e01b7ee9de85d52433be3",
    "compact-unrelated-5": "776784887ce877d881f4d8cad5f9c68b4d923ba75fe5001c08217eb9672e7df0",
    "truncated-near": "2dba8aa7f03a9aac8e02e40fb982bc90562d5c5055a5ee451a8b21ab782224c1",
    "truncated-unrelated": "ddded20685d207674be187b988f2f5cf064a1fb3eb1ab84d3bf76198c2c3dfe2",
    "tuple-near-2": "dd510e02880b77542d0302e035fef30c553272700c49ed24196a15f827272725",
    "tuple-near-3": "e9fe2ba2fd4ac93f97c0362ebbba4c914a775c80bc6def251a4c41b8d18a4043",
    "tuple-unrelated-2": "db4d16a4d47eb86220375859df10a0c593f19b3dcaab668252e4902f2f1a4a48",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_keep_their_pinned_bytes(name):
    solve, x, y = _pinned_inputs()[name]
    report = formats.dumps(formats.bracket_doc(solve(x, y, 1e-3))).encode()
    assert hashlib.sha256(report).hexdigest() == PINNED_REPORTS[name]


# Ticks each solve above spends: a change to the search effort, even one that
# keeps every report byte, must update it here.
PINNED_TICKS = {
    "compact-near": 52,
    "compact-unrelated-4": 43,
    "compact-unrelated-5": 54,
    "truncated-near": 52,
    "truncated-unrelated": 140,
    "tuple-near-2": 48,
    "tuple-near-3": 48,
    "tuple-unrelated-2": 1067,
}


@pytest.mark.parametrize("name", sorted(PINNED_TICKS))
def test_solves_keep_their_pinned_ticks(name, monkeypatch):
    budgets = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(gh_solver, "_Budget", Recorded)
    solve, x, y = _pinned_inputs()[name]
    solve(x, y, 1e-3)
    assert sum(b.limit - b.left for b in budgets) == PINNED_TICKS[name]
