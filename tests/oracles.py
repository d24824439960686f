"""Independent brute-force oracles.

Everything in here is deliberately naive: double loops, itertools products,
exhaustive subset enumeration, plain Floyd-Warshall. These functions never
import the package under test; the test suite freezes their outputs as
fixtures and checks the real implementations against them.
"""

import itertools

import numpy as np


def hausdorff_double_loop(dist, a_idx, b_idx):
    """max-min Hausdorff distance between index sets of one matrix."""
    d_ab = max(min(dist[a][b] for b in b_idx) for a in a_idx)
    d_ba = max(min(dist[a][b] for a in a_idx) for b in b_idx)
    return max(d_ab, d_ba)


def diam_double_loop(dist, idx):
    best = 0.0
    for i in idx:
        for j in idx:
            best = max(best, dist[i][j])
    return best


def approximation_clauses_double_loop(dl, dr, a_idx, b_idx, f, g):
    """The six clause values of maps f: X -> Y and g: Y -> X, by name; the
    pair is an eps-approximation iff each is at most eps (plus tolerance)."""
    nl, nr = len(dl), len(dr)
    return {
        "distortion_f": max(abs(dl[i][j] - dr[f[i]][f[j]]) for i in range(nl) for j in range(nl)),
        "distortion_g": max(abs(dr[i][j] - dl[g[i]][g[j]]) for i in range(nr) for j in range(nr)),
        "g_after_f": max(dl[x][g[f[x]]] for x in range(nl)),
        "f_after_g": max(dr[y][f[g[y]]] for y in range(nr)),
        "subset_image_f": hausdorff_double_loop(dr, [f[a] for a in a_idx], b_idx),
        "subset_image_g": hausdorff_double_loop(dl, [g[b] for b in b_idx], a_idx),
    }


def ball_min_over_members(dist, centers, r, kind):
    """Indices within r of a center set; open uses <, closed uses <=."""
    out = []
    for i in range(len(dist)):
        d = min(dist[i][c] for c in centers)
        if (kind == "open" and d < r) or (kind == "closed" and d <= r):
            out.append(i)
    return out


def closure_path_enumeration(n, edges):
    """All-pairs shortest paths by enumerating every simple path (tiny n only)."""
    adj = {}
    for i, j, w in edges:
        adj[(i, j)] = min(adj.get((i, j), np.inf), w)
        adj[(j, i)] = min(adj.get((j, i), np.inf), w)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for src in range(n):
        for perm_len in range(1, n):
            for mid in itertools.permutations([v for v in range(n) if v != src], perm_len):
                path = (src,) + mid
                total = 0.0
                ok = True
                for u, v in zip(path, path[1:]):
                    if (u, v) not in adj:
                        ok = False
                        break
                    total += adj[(u, v)]
                if ok:
                    dst = path[-1]
                    dist[src][dst] = min(dist[src][dst], total)
    return dist


def min_cover_exhaustive(dist, target, centers, r):
    """Smallest number of open r-balls with centers from `centers` covering `target`."""
    for size in range(1, len(centers) + 1):
        for combo in itertools.combinations(centers, size):
            if all(any(dist[t][c] < r for c in combo) for t in target):
                return size
    raise AssertionError("target not coverable")


def max_packing_exhaustive(dist, candidates, r):
    """Largest subset of candidates whose open r-balls (in the full space) are disjoint."""
    n = len(dist)
    best = 0
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            disjoint = True
            for a, b in itertools.combinations(combo, 2):
                if any(dist[z][a] < r and dist[z][b] < r for z in range(n)):
                    disjoint = False
                    break
            if disjoint:
                best = max(best, size)
    return best


def max_separated_exhaustive(dist, candidates, r):
    """Largest subset of size >= 2 with pairwise distances >= r, or None."""
    best = None
    for size in range(2, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if all(dist[a][b] >= r for a, b in itertools.combinations(combo, 2)):
                best = size
    return best


def glued_matrix(dl, dr, cross):
    nl, nr = len(dl), len(dr)
    big = np.zeros((nl + nr, nl + nr))
    big[:nl, :nl] = dl
    big[nl:, nl:] = dr
    big[:nl, nl:] = cross
    big[nl:, :nl] = np.asarray(cross).T
    return big


def pair_hausdorff_direct(dl, dr, cross, a_idx, b_idx):
    """d_H(X,Y) + d_H(A,B) evaluated in the glued matrix."""
    nl = len(dl)
    big = glued_matrix(dl, dr, cross)
    left = list(range(nl))
    right = [nl + j for j in range(len(dr))]
    space_term = hausdorff_double_loop(big, left, right)
    sub_term = hausdorff_double_loop(big, list(a_idx), [nl + j for j in b_idx])
    return space_term + sub_term


def tuple_hausdorff_direct(dl, dr, cross, chain_l, chain_r):
    """d_H(X,Y) plus one Hausdorff term per chain level."""
    nl = len(dl)
    big = glued_matrix(dl, dr, cross)
    total = hausdorff_double_loop(big, list(range(nl)), [nl + j for j in range(len(dr))])
    for ca, cb in zip(chain_l, chain_r):
        total += hausdorff_double_loop(big, list(ca), [nl + j for j in cb])
    return total


def cross_is_admissible(dl, dr, cross, tol=1e-9):
    """Check the four mixed triangle-inequality families exhaustively."""
    dl, dr, cross = np.asarray(dl), np.asarray(dr), np.asarray(cross)
    nl, nr = len(dl), len(dr)
    for i in range(nl):
        for j in range(nr):
            for i2 in range(nl):
                if cross[i][j] > dl[i][i2] + cross[i2][j] + tol:
                    return False
                if dl[i][i2] > cross[i][j] + cross[i2][j] + tol:
                    return False
            for j2 in range(nr):
                if cross[i][j] > cross[i][j2] + dr[j2][j] + tol:
                    return False
                if dr[j][j2] > cross[i][j] + cross[i][j2] + tol:
                    return False
    return True


def two_point_gh_grid(step=5e-4, hi=4.0):
    """One-point pair vs two-point space at distance 2 with B one endpoint.

    Cross distances (a, b) to the two right points must satisfy a + b >= 2;
    the pair Hausdorff sum is max(a, b) + a. Grid-minimize the sum.
    """
    vals = np.arange(0.0, hi + step, step)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    feas = a + b >= 2.0
    total = np.where(feas, np.maximum(a, b) + a, np.inf)
    return float(total.min())


def gh_pair_grid_2x2(dl, dr, a_idx, b_idx, step, hi):
    """Exhaustive grid over all four cross entries for 2-point vs 2-point pairs.

    Returns the minimal pair Hausdorff sum over grid cross matrices that pass
    the admissibility loop. Chunked over the first coordinate to bound memory.
    """
    dl, dr = np.asarray(dl), np.asarray(dr)
    vals = np.arange(0.0, hi + step, step)
    k = len(vals)
    best = np.inf
    v = vals
    c01, c10, c11 = np.meshgrid(v, v, v, indexing="ij")
    for c00_val in vals:
        c00 = np.full_like(c01, c00_val)
        # mixed triangles, written out for the 2x2 case
        ok = np.abs(c00 - c01) <= dr[0][1]
        ok &= np.abs(c10 - c11) <= dr[0][1]
        ok &= np.abs(c00 - c10) <= dl[0][1]
        ok &= np.abs(c01 - c11) <= dl[0][1]
        ok &= c00 + c01 >= dr[0][1]
        ok &= c10 + c11 >= dr[0][1]
        ok &= c00 + c10 >= dl[0][1]
        ok &= c01 + c11 >= dl[0][1]
        if not ok.any():
            continue
        d_xy = np.maximum.reduce([
            np.minimum(c00, c01),
            np.minimum(c10, c11),
            np.minimum(c00, c10),
            np.minimum(c01, c11),
        ])
        rows = {0: c00, 1: c01}
        rows_l = {(0, 0): c00, (0, 1): c01, (1, 0): c10, (1, 1): c11}
        d_a_to_b = np.maximum.reduce([
            np.minimum.reduce([rows_l[(i, j)] for j in b_idx]) for i in a_idx
        ])
        d_b_to_a = np.maximum.reduce([
            np.minimum.reduce([rows_l[(i, j)] for i in a_idx]) for j in b_idx
        ])
        total = d_xy + np.maximum(d_a_to_b, d_b_to_a)
        total = np.where(ok, total, np.inf)
        best = min(best, float(total.min()))
        del rows
    return best


def floyd_warshall_plain(mat):
    d = np.asarray(mat, dtype=float).copy()
    n = len(d)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def floyd_warshall_fixpoint(mat):
    """Shortest paths with plain loops over Python floats (inf: no edge):
    Floyd-Warshall passes, repeated until one lowers no entry."""
    d = [[float(x) for x in row] for row in mat]
    n = len(d)
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    via = d[i][k] + d[k][j]
                    if via < d[i][j]:
                        d[i][j] = via
                        changed = True
    return np.array(d)


def compact_feasible_at_caps(dl, dr, a_idx, b_idx, t1, t2, tol=1e-9):
    """Existence of a gluing with d_H(X,Y) <= t1 and d_H(A,B) <= t2.

    Raw product enumeration over all four nearest-point maps, each checked by
    building the capped union graph, closing it with Floyd-Warshall, and
    evaluating both Hausdorff conditions directly.
    """
    dl, dr = np.asarray(dl), np.asarray(dr)
    nl, nr = len(dl), len(dr)
    choices = (
        [(i, "lr", t1) for i in range(nl)]
        + [(j, "rl", t1) for j in range(nr)]
        + [(a, "ab", t2) for a in a_idx]
        + [(b, "ba", t2) for b in b_idx]
    )
    domains = []
    for _, kind, _ in choices:
        if kind == "lr":
            domains.append(range(nr))
        elif kind == "rl":
            domains.append(range(nl))
        elif kind == "ab":
            domains.append(list(b_idx))
        else:
            domains.append(list(a_idx))
    for combo in itertools.product(*domains):
        big = np.full((nl + nr, nl + nr), np.inf)
        big[:nl, :nl] = dl
        big[nl:, nl:] = dr
        for (src, kind, cap), val in zip(choices, combo):
            i, j = (src, val) if kind in ("lr", "ab") else (val, src)
            big[i][nl + j] = min(big[i][nl + j], cap)
            big[nl + j][i] = big[i][nl + j]
        closed = floyd_warshall_plain(big)
        if (closed[:nl, :nl] < dl - tol).any() or (closed[nl:, nl:] < dr - tol).any():
            continue
        cross = closed[:nl, nl:]
        d_xy = max(cross.min(axis=1).max(), cross.min(axis=0).max())
        if d_xy > t1 + tol:
            continue
        sub = cross[np.ix_(list(a_idx), list(b_idx))]
        d_ab = max(sub.min(axis=1).max(), sub.min(axis=0).max())
        if d_ab > t2 + tol:
            continue
        return True
    return False


def compact_min_total_grid(dl, dr, a_idx, b_idx, step, hi):
    """Smallest feasible t1 + t2 over a grid of budget splits."""
    totals = np.arange(0.0, hi + step, step)
    for total in totals:
        for t1 in np.arange(0.0, total + step / 2, step):
            if compact_feasible_at_caps(dl, dr, a_idx, b_idx, float(t1), float(total - t1)):
                return float(total)
    return None


def truncated_feasible_at_eps(dl, dr, a_idx, b_idx, eps, tol=1e-9):
    """Existence of an (eps; A, B)-admissible gluing, by raw enumeration.

    Enumerates every combination of nearest-point assignments on the closed
    (1/eps)-balls, builds the capped union graph, closes it with plain
    Floyd-Warshall, and evaluates the admissibility conditions literally.
    """
    dl, dr = np.asarray(dl), np.asarray(dr)
    nl, nr = len(dl), len(dr)
    radius = 1.0 / eps
    ball_a = [i for i in range(nl) if min(dl[i][a] for a in a_idx) <= radius + tol]
    ball_b = [j for j in range(nr) if min(dr[j][b] for b in b_idx) <= radius + tol]
    choices = []
    choices.extend([(i, "lr") for i in ball_a])
    choices.extend([(j, "rl") for j in ball_b])
    choices.extend([(a, "ab") for a in a_idx])
    choices.extend([(b, "ba") for b in b_idx])
    domains = []
    for _, kind in choices:
        if kind == "lr":
            domains.append(range(nr))
        elif kind == "rl":
            domains.append(range(nl))
        elif kind == "ab":
            domains.append(list(b_idx))
        else:
            domains.append(list(a_idx))
    for combo in itertools.product(*domains):
        big = np.full((nl + nr, nl + nr), np.inf)
        big[:nl, :nl] = dl
        big[nl:, nl:] = dr
        for (src, kind), val in zip(choices, combo):
            if kind in ("lr", "ab"):
                i, j = src, val
            else:
                i, j = val, src
            big[i][nl + j] = min(big[i][nl + j], eps)
            big[nl + j][i] = big[i][nl + j]
        closed = floyd_warshall_plain(big)
        if (closed[:nl, :nl] < dl - tol).any() or (closed[nl:, nl:] < dr - tol).any():
            continue
        cross = closed[:nl, nl:]
        d_ab = max(
            max(min(cross[a][b] for b in b_idx) for a in a_idx),
            max(min(cross[a][b] for a in a_idx) for b in b_idx),
        )
        if d_ab > eps + tol:
            continue
        if any(min(cross[i][j] for j in range(nr)) > eps + tol for i in ball_a):
            continue
        if any(min(cross[i][j] for i in range(nl)) > eps + tol for j in ball_b):
            continue
        return True
    return False


def truncated_eps_grid(dl, dr, a_idx, b_idx, grid):
    """Smallest grid eps admitting an (eps; A, B)-admissible gluing, else None."""
    for eps in grid:
        if truncated_feasible_at_eps(dl, dr, a_idx, b_idx, eps):
            return float(eps)
    return None


def lp_min_total_vertices(m):
    """min sum(t) subject to t_i + t_j >= m[i][j] (i <= j) and t >= 0.

    Primal vertex enumeration: every c-subset of the constraints is solved as
    equalities, and the smallest total over the solutions that satisfy all
    constraints is the optimum (the feasible region is pointed, and the
    objective is bounded below on it, so some vertex is optimal). ``m`` is one
    symmetric c x c matrix (returns a float) or a stack of them (an array).
    """
    m = np.asarray(m, dtype=float)
    stack = m.reshape((-1,) + m.shape[-2:])
    c = m.shape[-1]
    pairs = [(i, j) for i in range(c) for j in range(i, c)]
    a = np.zeros((len(pairs) + c, c))
    for k, (i, j) in enumerate(pairs):
        a[k, i] += 1.0
        a[k, j] += 1.0
    a[len(pairs):] = np.eye(c)
    rhs = [stack[:, i, j] for i, j in pairs] + [np.zeros(len(stack))] * c
    b = np.stack(rhs, axis=1)
    slack = 1e-12 * max(1.0, float(np.abs(m).max(initial=0.0)))
    best = np.full(len(stack), np.inf)
    for subset in itertools.combinations(range(len(a)), c):
        sub = a[list(subset)]
        if abs(np.linalg.det(sub)) < 0.5:  # integer matrix: singular
            continue
        t = np.linalg.solve(sub, b[:, list(subset)].T).T
        feasible = (t @ a.T >= b - slack).all(axis=1)
        best = np.where(feasible, np.minimum(best, t.sum(axis=1)), best)
    return float(best[0]) if m.ndim == 2 else best


def cap_variables(nl, nr, chain_l, chain_r):
    """(side, source, class, domain) of every partner variable of a compact
    pair or tuple search, in the solver's order: f on the left, g on the
    right, then per chain level the subset maps both ways."""
    out = [(0, x, 0, list(range(nr))) for x in range(nl)]
    out += [(1, y, 0, list(range(nl))) for y in range(nr)]
    for k, (ca, cb) in enumerate(zip(chain_l, chain_r)):
        out += [(0, a, k + 1, list(cb)) for a in ca]
        out += [(1, b, k + 1, list(ca)) for b in cb]
    return out


def cap_class_maxima(dl, dr, chain_l, chain_r, values):
    """Per-class-pair maxima of |d_L - d_R| over every pair of assigned edges."""
    variables = cap_variables(len(dl), len(dr), chain_l, chain_r)
    c = len(chain_l) + 1
    m = np.zeros((c, c))
    edges = [(src, val) if side == 0 else (val, src) for (side, src, _, _), val in zip(variables, values)]
    for u in range(len(edges)):
        for w in range(u + 1, len(edges)):
            d = abs(dl[edges[u][0]][edges[w][0]] - dr[edges[u][1]][edges[w][1]])
            cu, cw = variables[u][2], variables[w][2]
            m[cu][cw] = m[cw][cu] = max(m[cu][cw], d)
    return m


def compact_min_cost(dl, dr, chain_l, chain_r):
    """Smallest cap total over every assignment of partners: each assignment
    costs the LP minimum of its per-class-pair mismatch maxima. All
    assignments are enumerated at once, as rows of one array."""
    dl, dr = np.asarray(dl), np.asarray(dr)
    variables = cap_variables(len(dl), len(dr), chain_l, chain_r)
    values = np.array(list(itertools.product(*[dom for (_, _, _, dom) in variables])))
    side = np.array([s for (s, _, _, _) in variables])
    src = np.array([x for (_, x, _, _) in variables])
    cls = np.array([k for (_, _, k, _) in variables])
    left = np.where(side == 0, src, values)
    right = np.where(side == 0, values, src)
    mismatch = np.abs(dl[left[:, :, None], left[:, None, :]] - dr[right[:, :, None], right[:, None, :]])
    c = len(chain_l) + 1
    maxima = np.zeros((len(values), c, c))
    for a in range(c):
        for b in range(a, c):
            sel = ((cls[:, None] == a) & (cls[None, :] == b)) | ((cls[:, None] == b) & (cls[None, :] == a))
            if sel.any():
                maxima[:, a, b] = maxima[:, b, a] = mismatch[:, sel].max(axis=1)
    distinct = np.unique(maxima.reshape(len(maxima), -1), axis=0).reshape(-1, c, c)
    return float(lp_min_total_vertices(distinct).min())
