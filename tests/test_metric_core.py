import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_pairs import (
    DisconnectedGraph,
    InvalidSubset,
    MetricValidationError,
    NegativeRadius,
    PreconditionViolated,
    SubsetRef,
    WeightedGraph,
    ball,
    diam,
    find_violations,
    restrict,
    shortest_path_closure,
    validate_metric,
)
from metric_pairs.metric_core import _fw_fixpoint

import oracles
from conftest import line_space, random_space


def test_line_metric_is_valid():
    space = line_space([0, 1, 2])
    assert space.dist[0, 2] == 2.0
    assert space.tol >= 0


def test_triangle_violation_reported_with_indices():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(MetricValidationError) as err:
        validate_metric(bad)
    kinds = {(v.kind, v.indices) for v in err.value.violations}
    assert ("triangle", (0, 1, 2)) in kinds


def test_violation_kinds():
    asym = [[0.0, 1.0], [2.0, 0.0]]
    assert {v.kind for v in find_violations(np.array(asym), 1e-9)} == {"asymmetric"}
    neg = [[0.0, -1.0], [-1.0, 0.0]]
    assert "negative_entry" in {v.kind for v in find_violations(np.array(neg), 1e-9)}
    zero = [[0.0, 0.0], [0.0, 0.0]]
    assert "zero_off_diagonal" in {v.kind for v in find_violations(np.array(zero), 1e-9)}
    assert find_violations(np.array(zero), 1e-9, pseudo=True) == []
    diag = [[0.5, 1.0], [1.0, 0.0]]
    assert "nonzero_diagonal" in {v.kind for v in find_violations(np.array(diag), 1e-9)}


@pytest.mark.parametrize("tol, pseudo", [(float("nan"), False), (float("inf"), True)])
def test_non_finite_tolerance_is_rejected(tol, pseudo):
    # a NaN tolerance made every closed ball empty, even of its own centre
    with pytest.raises(MetricValidationError) as err:
        validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=tol, pseudo=pseudo)
    assert [v.kind for v in err.value.violations] == ["non_finite_tolerance"]


def test_closure_fixture_triangle_heavy(derived):
    fx = derived["closure_triangle_heavy"]
    g = WeightedGraph(fx["n"], tuple((i, j, w) for i, j, w in fx["edges"]))
    space = shortest_path_closure(g)
    assert np.array_equal(space.dist, np.array(fx["dist"]))


def test_closure_fixture_random5(derived):
    fx = derived["closure_random5"]
    g = WeightedGraph(fx["n"], tuple((i, j, w) for i, j, w in fx["edges"]))
    space = shortest_path_closure(g)
    assert np.allclose(space.dist, np.array(fx["dist"]), atol=1e-12)
    assert find_violations(space.dist, 0.0) == []


def test_closure_of_unit_path_graph_is_line_metric():
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    space = shortest_path_closure(g)
    assert np.array_equal(space.dist, line_space([0, 1, 2, 3]).dist)


def test_closure_single_vertex_and_disconnected():
    lone = shortest_path_closure(WeightedGraph(1, ()))
    assert lone.dist.shape == (1, 1) and lone.dist[0, 0] == 0.0
    with pytest.raises(DisconnectedGraph):
        shortest_path_closure(WeightedGraph(3, ((0, 1, 1.0),)))


def test_weighted_graph_rejects_bad_edges():
    with pytest.raises(InvalidSubset):
        WeightedGraph(2, ((0, 1, 0.0),))
    with pytest.raises(InvalidSubset):
        WeightedGraph(2, ((0, 0, 1.0),))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_closures_pass_validation_exactly(data):
    n = data.draw(st.integers(2, 7))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    assert find_violations(space.dist, 0.0) == []


def test_ball_fixture(derived):
    fx = derived["ball_line4"]
    space = validate_metric(np.array(fx["dist"]))
    got = ball(space, space.subset(fx["centers"]), fx["r"], fx["kind"])
    assert list(got.indices) == fx["members"]


def test_ball_edge_cases():
    space = line_space([0, 1, 2, 3])
    a = space.subset([0])
    assert ball(space, a, 1.5, "open").indices == (0, 1)
    assert ball(space, a, 0.0, "closed").indices == (0,)
    assert ball(space, a, 0.0, "open") is None
    with pytest.raises(NegativeRadius):
        ball(space, a, -1.0, "open")
    with pytest.raises(PreconditionViolated):
        ball(space, a, 1.0, "half-open")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ball_monotone_and_composes(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    space = random_space(rng, int(rng.integers(3, 8)))
    k = int(rng.integers(1, len(space)))
    a = space.subset(sorted(rng.choice(len(space), size=k, replace=False).tolist()))
    r, s = sorted(rng.uniform(0.1, 12.0, size=2))
    for kind in ("open", "closed"):
        small = ball(space, a, r, kind)
        large = ball(space, a, s, kind)
        if small is not None:
            assert set(small.indices) <= set(large.indices)
    # one-sided composition: B_r(B_s(A)) inside B_{r+s}(A)
    inner = ball(space, a, s, "open")
    if inner is not None:
        outer = ball(space, inner, r, "open")
        direct = ball(space, a, r + s, "open")
        if outer is not None:
            assert set(outer.indices) <= set(direct.indices)


def test_diam_examples(derived):
    space = line_space([0, 1, 2, 3])
    assert diam(space, space.subset([2])) == 0.0
    assert diam(space, space.full_subset()) == 3.0
    fx = derived["diam_random6"]
    sp6 = validate_metric(np.array(fx["dist"]))
    assert diam(sp6, sp6.subset(fx["subset"])) == pytest.approx(fx["value"], abs=1e-12)


def test_restrict():
    space = line_space([0, 1, 2, 3])
    full = restrict(space, space.full_subset())
    assert np.array_equal(full.dist, space.dist)
    single = restrict(space, space.subset([2]))
    assert single.dist.shape == (1, 1)
    ends = restrict(space, space.subset([0, 3]))
    assert ends.dist[0, 1] == 3.0
    # diam of the restriction equals diam of the subset in the parent
    sub = space.subset([1, 3])
    assert diam(restrict(space, sub), restrict(space, sub).full_subset()) == diam(space, sub)


def test_subset_ref_validation():
    with pytest.raises(InvalidSubset):
        SubsetRef(())
    with pytest.raises(InvalidSubset):
        SubsetRef((2, 1))
    with pytest.raises(InvalidSubset):
        SubsetRef((1, 1))
    space = line_space([0, 1])
    with pytest.raises(InvalidSubset):
        space.subset([5])


def _gluing_graph(rng, n_left, n_right, edges):
    """The union graph ``glue_from_constraints`` closes: both spaces and
    ``edges`` cross edges, some of cap zero; inf marks the missing ones."""
    left, right = random_space(rng, n_left), random_space(rng, n_right)
    big = np.full((n_left + n_right, n_left + n_right), np.inf)
    big[:n_left, :n_left], big[n_left:, n_left:] = left.dist, right.dist
    for _ in range(edges):
        i, j = int(rng.integers(n_left)), n_left + int(rng.integers(n_right))
        cap = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.0, 12.0))
        big[i, j] = big[j, i] = min(big[i, j], cap)
    return big


def test_closure_matches_plain_loop_floyd_warshall_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n_left, n_right = (int(x) for x in rng.integers(1, 7, size=2))
        big = _gluing_graph(rng, n_left, n_right, int(rng.integers(0, 5)))
        assert _fw_fixpoint(big).tobytes() == oracles.floyd_warshall_fixpoint(big).tobytes()


def test_closure_holds_no_cubic_temporary():
    # an N^3 rewrite (min-plus products, a (N, N, N) via) would peak at about N x the matrix
    big = _gluing_graph(np.random.default_rng(62), 62, 62, 40)
    tracemalloc.start()
    try:
        closed = _fw_fixpoint(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(closed).all()
    assert peak < 8 * big.nbytes, (peak, big.nbytes)
