"""Chain gluing lab: glue a sequence of pairs, extract the budget-reachable
limit candidate, and report convergence diagnostics.

The infinite construction is replaced by its finite prefix: the last chain
member stands in for the limit, and the reported bounds are the tail sums of
the gluing budgets. Reports say so explicitly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLimit, GlueMismatch, LengthMismatch, ShortcutDetected
from .gh_solver import gh_compact_pair, gh_truncated_pair
from .hausdorff import MetricPair
from .metric_core import FiniteMetricSpace, SubsetRef, _fw_fixpoint, same_space


@dataclass(frozen=True)
class ChainGluing:
    """Consecutively glued pairs with one shared ambient metric.

    ``offsets[i]`` is the ambient index of member i's first point; the ambient
    restricted to any member equals that member's own metric within tolerance.
    """

    pairs: tuple
    glues: tuple
    eps_budget: tuple
    ambient: FiniteMetricSpace
    offsets: tuple


@dataclass(frozen=True)
class LimitProxy:
    """Last member's space with the subset of budget-reachable endpoints.

    ``chains`` holds one witnessing index path per endpoint: local subset
    indices (a_1, ..., a_k), one per member, each consecutive ambient step
    within its budget.
    """

    z_pair: MetricPair
    chains: tuple


def build_chain(pairs, glues, eps_budget):
    """Assemble and validate the chained ambient metric.

    The ambient is the shortest-path closure of all member metrics plus the
    consecutive cross distances. Construction fails loudly if any closure path
    undercuts a within-member distance.
    """
    pairs, glues, eps_budget = tuple(pairs), tuple(glues), tuple(eps_budget)
    if len(pairs) < 2:
        raise LengthMismatch("a chain needs at least two pairs")
    if len(glues) != len(pairs) - 1 or len(eps_budget) != len(pairs) - 1:
        raise LengthMismatch("need one gluing and one budget per consecutive pair")
    if any(not e > 0 for e in eps_budget):
        raise LengthMismatch("budgets must be positive")
    for i, glue in enumerate(glues):
        if not same_space(glue.left, pairs[i].space):
            raise GlueMismatch(f"gluing {i} does not match member {i} on the left")
        if not same_space(glue.right, pairs[i + 1].space):
            raise GlueMismatch(f"gluing {i} does not match member {i + 1} on the right")
    sizes = [len(p.space) for p in pairs]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    total = sum(sizes)
    big = np.full((total, total), np.inf)
    for i, p in enumerate(pairs):
        o = offsets[i]
        big[o : o + sizes[i], o : o + sizes[i]] = p.space.dist
    for i, glue in enumerate(glues):
        o_l, o_r = offsets[i], offsets[i + 1]
        big[o_l : o_l + sizes[i], o_r : o_r + sizes[i + 1]] = glue.cross
        big[o_r : o_r + sizes[i + 1], o_l : o_l + sizes[i]] = glue.cross.T
    closed = _fw_fixpoint(big)
    tol = max(max(p.space.tol for p in pairs), max(g.tol for g in glues))
    for i, p in enumerate(pairs):
        o = offsets[i]
        block = closed[o : o + sizes[i], o : o + sizes[i]]
        shortcut = block < p.space.dist - tol
        if shortcut.any():
            a, b = map(int, np.argwhere(shortcut)[0])
            raise ShortcutDetected(i, (a, b))
    labels = []
    for i, p in enumerate(pairs):
        labels.extend(f"m{i}:{lab}" for lab in p.space.labels)
    ambient = FiniteMetricSpace(
        labels=tuple(labels), dist=closed, tol=tol, pseudo=True
    )
    return ChainGluing(
        pairs=pairs,
        glues=glues,
        eps_budget=eps_budget,
        ambient=ambient,
        offsets=tuple(offsets),
    )


def limit_proxy(chain):
    """Endpoints of budget-respecting subset chains, with witnessing paths.

    Layer-by-layer reachability: a point of A_{i+1} joins when some reachable
    point of A_i sits within eps_budget[i] of it in the ambient (tolerance
    slack included). Predecessors are chosen lowest-index-first, so the
    witness paths are deterministic.
    """
    pairs, offsets = chain.pairs, chain.offsets
    tol = chain.ambient.tol
    dist = chain.ambient.dist
    reach = {a: (a,) for a in pairs[0].a.indices}
    for i, eps in enumerate(chain.eps_budget):
        nxt = {}
        for b in pairs[i + 1].a.indices:
            for a in sorted(reach):
                if dist[offsets[i] + a, offsets[i + 1] + b] <= eps + tol:
                    nxt[b] = reach[a] + (b,)
                    break
        reach = nxt
        if not reach:
            raise EmptyLimit(f"no budget-respecting chain survives past member {i}")
    endpoints = tuple(sorted(reach))
    z_pair = MetricPair(pairs[-1].space, SubsetRef(endpoints))
    return LimitProxy(z_pair=z_pair, chains=tuple(reach[w] for w in endpoints))


def chain_convergence_report(chain, proxy, resolution, budget=None):
    """Distance brackets from every member to the proxy, against tail budgets.

    The proxy is the finite stand-in for the limit; a member counts as
    dominated when its compact bracket's hi stays below the tail sum of the
    remaining budgets plus the resolution.
    """
    members = []
    k = len(chain.pairs)
    for i, pair in enumerate(chain.pairs):
        compact = gh_compact_pair(pair, proxy.z_pair, resolution, budget)
        truncated = gh_truncated_pair(pair, proxy.z_pair, resolution, budget)
        tail = float(sum(chain.eps_budget[i:]))
        members.append(
            {
                "index": i,
                "compact_lo": compact.lo,
                "compact_hi": compact.hi,
                "truncated_lo": truncated.lo,
                "truncated_hi": truncated.hi,
                "tail_budget": tail,
                "dominated": bool(compact.hi <= tail + resolution),
            }
        )
    return {
        "proxy_note": "limit replaced by the final chain member at finite scale",
        "members": members,
        "all_dominated": all(m["dominated"] for m in members[: k - 1]) if k > 1 else True,
    }
