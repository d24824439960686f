import numpy as np
import pytest

from metric_pairs import (
    CrossMetric,
    DomainTooSmall,
    EmptyConstraintSet,
    GluingInfeasible,
    MetricPair,
    MetricValidationError,
    NetLengthMismatch,
    NonPositiveEpsilon,
    approx_search,
    check_eps_admissible,
    gh_compact_pair,
    glue_from_approximation,
    glue_from_constraints,
    glue_from_nets,
    glue_from_rough_isometry,
    pair_hausdorff,
    transfer_subset,
    validate_metric,
)

import oracles
from conftest import jittered_copy, line_space, random_space, random_subset


def test_cross_metric_rejects_planted_violation():
    space = line_space([0, 1, 2])
    bad = space.dist + 0.5
    bad[0, 2] = 0.1  # shortcut between far points through the other side
    with pytest.raises(MetricValidationError):
        CrossMetric(space, space, bad)


def test_cross_metric_requires_positive_entries_unless_pseudo():
    space = line_space([0, 1])
    with pytest.raises(MetricValidationError):
        CrossMetric(space, space, space.dist.copy(), pseudo=False)
    assert CrossMetric(space, space, space.dist.copy(), pseudo=True).pseudo


def test_transposed_gluing_equals_a_validated_mirror():
    # transposition maps the validation families onto each other, so the
    # mirror skips validation and must equal one built and validated anew
    rng = np.random.default_rng(5)
    for pseudo in (False, True):
        left, right = random_space(rng, 4), random_space(rng, 3, tol=1e-6)
        edges = [(i, j, 3.0) for i in range(4) for j in range(3) if (i + j) % 2]
        glue = glue_from_constraints(left, right, edges, pseudo=pseudo)
        mirror, want = glue.transposed(), CrossMetric(right, left, glue.cross.T.copy(), pseudo)
        assert (mirror.left, mirror.right, mirror.pseudo, mirror.tol) == (want.left, want.right, want.pseudo, want.tol)
        assert mirror.cross.tobytes() == want.cross.tobytes() and mirror.cross.flags.c_contiguous
        assert not mirror.cross.flags.writeable
        assert mirror.transposed().cross.tobytes() == glue.cross.tobytes()


def test_glue_from_constraints_identity_edges():
    rng = np.random.default_rng(0)
    space = random_space(rng, 4)
    c = 0.8
    glue = glue_from_constraints(space, space, [(i, i, c) for i in range(4)])
    expect = np.min(space.dist[:, :, None] + c + space.dist[None, :, :], axis=1)
    assert np.allclose(glue.cross, expect, atol=1e-12)
    assert oracles.cross_is_admissible(space.dist, space.dist, glue.cross)


def test_glue_from_constraints_two_point_single_edge():
    space = line_space([0, 2])
    glue = glue_from_constraints(space, space, [(0, 0, 0.1)])
    # paths of at most three hops realize every cross distance
    assert glue.cross[0, 0] == pytest.approx(0.1)
    assert glue.cross[0, 1] == pytest.approx(2.1)
    assert glue.cross[1, 0] == pytest.approx(2.1)
    assert glue.cross[1, 1] == pytest.approx(4.1)


def test_glue_from_constraints_detects_shortcut():
    left = line_space([0, 10])
    right = line_space([0.0])
    with pytest.raises(GluingInfeasible) as err:
        glue_from_constraints(left, right, [(0, 0, 1.0), (1, 0, 1.0)])
    assert err.value.witness == ("left", 0, 1)


def test_glue_from_constraints_empty_and_minimal():
    space = line_space([0, 1])
    with pytest.raises(EmptyConstraintSet):
        glue_from_constraints(space, space, [])
    # minimality: dominated entrywise by any gluing respecting the same caps
    rng = np.random.default_rng(1)
    left = random_space(rng, 4)
    right = jittered_copy(left, rng, 0.2)
    other = glue_from_approximation(left, right, range(4), 0.5)
    caps = [(i, j, float(other.cross[i, j])) for i in range(4) for j in range(4)]
    minimal = glue_from_constraints(left, right, caps)
    assert (minimal.cross <= other.cross + minimal.tol).all()


def test_glue_from_approximation_formula_and_bounds():
    rng = np.random.default_rng(2)
    left = random_space(rng, 5)
    right = jittered_copy(left, rng, 0.2)
    eps = 0.5
    glue = glue_from_approximation(left, right, range(5), eps)
    for x in range(5):
        assert glue.cross[x, x] == eps / 2  # exact: the minimum sits at x' = x
        for y in range(5):
            assert glue.cross[x, y] <= eps / 2 + right.dist[x, y] + 1e-12
    with pytest.raises(NonPositiveEpsilon):
        glue_from_approximation(left, right, range(5), 0.0)


def test_glue_from_approximation_with_found_witness():
    rng = np.random.default_rng(3)
    left = random_space(rng, 4)
    right = jittered_copy(left, rng, 0.3)
    pair_p = MetricPair(left, left.subset([0, 1]))
    pair_q = MetricPair(right, right.subset([0, 1]))
    eps = 1.0
    witness = approx_search(pair_p, pair_q, eps)
    assert witness is not None
    glue = glue_from_approximation(left, right, witness.f, eps)
    tol = glue.tol
    # g lands within 3 eps/2 of its argument across the gluing
    for y in range(len(right)):
        assert glue.cross[witness.g[y], y] <= 1.5 * eps + 2 * tol
    assert pair_hausdorff(glue, pair_p, pair_q) <= 4 * eps + 8 * tol


def test_glue_from_rough_isometry_identity_and_random():
    rng = np.random.default_rng(4)
    left = random_space(rng, 5, hi=3.0)
    right = jittered_copy(left, rng, 0.1)
    a = left.subset([0])
    eps, radius = 0.4, 50.0
    glue = glue_from_rough_isometry(left, right, {i: i for i in range(5)}, a, eps, radius)
    for x in range(5):
        assert glue.cross[x, x] <= 1.5 * eps + 1e-12
    assert oracles.cross_is_admissible(left.dist, right.dist, glue.cross, tol=glue.tol)
    with pytest.raises(DomainTooSmall):
        glue_from_rough_isometry(left, right, {0: 0}, a, eps, radius)


def test_rough_isometry_gluing_admissible_at_bound():
    rng = np.random.default_rng(14)
    from metric_pairs import rough_isometry_search

    left = random_space(rng, 4, hi=2.0)
    right = jittered_copy(left, rng, 0.05)
    a = left.subset([0, 1])
    b = right.subset([0, 1])
    eps, radius = 0.25, 6.0
    witness = rough_isometry_search(MetricPair(left, a), MetricPair(right, b), radius, eps)
    assert witness is not None
    glue = glue_from_rough_isometry(left, right, witness.f, a, eps, radius)
    t = max(3 * eps, 1.0 / (radius - eps))
    assert check_eps_admissible(glue, a, b, t).verdict


def test_glue_from_nets_values_and_lengths():
    rng = np.random.default_rng(5)
    left = random_space(rng, 4, hi=2.0)
    right = jittered_copy(left, rng, 0.05)
    eps = 0.3
    net = [0, 2]
    glue = glue_from_nets(left, right, net, net, eps)
    for k, i in enumerate(net):
        assert glue.cross[i, net[k]] == pytest.approx(eps)
    single = glue_from_nets(left, right, [1], [1], eps)
    expect = left.dist[:, 1][:, None] + right.dist[:, 1][None, :] + eps
    assert np.allclose(single.cross, expect)
    with pytest.raises(NetLengthMismatch):
        glue_from_nets(left, right, [0], [0, 1], eps)


def test_net_gluing_certifies_three_eps():
    # all points as both nets: every hypothesis of the net bound holds
    rng = np.random.default_rng(6)
    left = random_space(rng, 4, hi=2.0)
    eps = 0.15
    right = jittered_copy(left, rng, eps / 2)
    a = left.subset([0, 1])
    b = right.subset([0, 1])
    order = list(a.indices) + [i for i in range(4) if i not in set(a.indices)]
    glue = glue_from_nets(left, right, order, order, eps)
    report = check_eps_admissible(glue, a, b, 3 * eps)
    assert report.verdict


def test_check_eps_admissible_reports():
    rng = np.random.default_rng(7)
    left = random_space(rng, 4, hi=2.0)
    pair = MetricPair(left, left.subset([0, 2]))
    eps0 = 0.2
    glue = glue_from_approximation(left, left, range(4), eps0)
    ok = check_eps_admissible(glue, pair.a, pair.a, 0.5)
    assert ok.verdict and ok.hausdorff_ab <= eps0
    tiny = check_eps_admissible(glue, pair.a, pair.a, 0.05)
    assert not tiny.verdict and tiny.hausdorff_ab > 0.05
    # bounded spaces with full mutual coverage: only the subset term can fail
    assert ok.covering_left and ok.covering_right


def test_transfer_subset():
    rng = np.random.default_rng(8)
    left = random_space(rng, 5)
    glue = glue_from_approximation(left, left, range(5), 0.1)
    a = left.subset([1, 3])
    moved = transfer_subset(glue, a, 5)
    assert moved.indices == (1, 3)  # near-diagonal gluing keeps the twin copy
    single = transfer_subset(glue, left.subset([2]), 1)
    assert len(single) == 1

    # transferred subset stays within the proof's distance budget
    right = jittered_copy(left, rng, 0.4)
    pair_p = MetricPair(left, left.subset(random_subset(rng, 5)))
    full = gh_compact_pair(
        MetricPair(left, left.full_subset()), MetricPair(right, right.full_subset()), 1e-3
    )
    cert = full.certificate
    d_xy = float(max(cert.cross.min(axis=1).max(), cert.cross.min(axis=0).max()))
    for n in (1, 2, 5, 10):
        moved = transfer_subset(cert, pair_p.a, n)
        pair_q = MetricPair(right, moved)
        got = pair_hausdorff(cert, pair_p, pair_q)
        assert got <= 2 * d_xy + 2.0 / n + 1e-9
