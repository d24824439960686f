"""Seeded workload generators and request runners.

Every workload draws a fixed bank of instances (from ``BANK_SEED``) and lets
``--seed`` relabel them: each space's points are listed in a seed-chosen
order, so the library sees different matrices, labels and search orders on
every seed, while every distance, count and existence answer stays the same.
Fresh random instances per seed would not do: per-request cost varies more
than a hundredfold between draws of one size, so the instance mix, not the
code under test, would decide a run's numbers. The invariance is also what
lets the frozen expectations in ``expected/`` gate every seed, including
seeds never used during development.

The timed loop sends one request per bank entry, in bank order, through the
public API (for cli-batch, through ``metric_pairs.cli.main``). Library calls
go through module attributes at call time (``mp.gh_compact_pair`` and so on),
so the traced run sees them once ``tracing.Tracer`` has wrapped them. The
generators live here rather than in the test helpers, so a change to the
tests cannot change what the benchmark measures.
"""

import contextlib
import io
import json
import zlib

import numpy as np

import metric_pairs as mp
from metric_pairs import cli, formats

BANK_SEED = 0
RESOLUTION = 1e-3
# The library default, passed explicitly on every budgeted call so that
# METRIC_PAIRS_BUDGET cannot change results.
BUDGET = 10_000_000
# An _LpSearch step at depth 3 calls scipy's linprog (~2 ms); this caps one request near 40 s.
DEPTH3_BUDGET = 20_000


def rng_for(name, seed):
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def closure(weights):
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    for k in range(len(d)):  # one Floyd-Warshall pass is exact
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def random_space(rng, n, lo=0.1, hi=10.0):
    w = rng.uniform(lo, hi, size=(n, n))
    return mp.validate_metric(closure((w + w.T) / 2.0))


def jittered_copy(rng, space, scale):
    """Every distance moved by less than scale (then re-closed); same point order."""
    n = len(space)
    jit = rng.uniform(-scale / 2, scale / 2, size=(n, n))
    jit = (jit + jit.T) / 2.0
    np.fill_diagonal(jit, 0.0)
    return mp.validate_metric(closure(space.dist + jit))


def line_space(coords):
    c = np.asarray(coords, dtype=float)
    return mp.validate_metric(np.abs(c[:, None] - c[None, :]))


def random_subset(rng, n, k):
    return sorted(int(x) for x in rng.choice(n, size=k, replace=False))


def nested_chain(rng, space, depth):
    """``depth`` nested subsets, innermost first, of distinct sizes."""
    n = len(space)
    order = [int(x) for x in rng.permutation(n)]
    sizes = sorted(int(s) for s in rng.choice(np.arange(1, n + 1), size=depth, replace=False))
    return tuple(space.subset(sorted(order[:s])) for s in sizes)


class Relabel:
    """Seed-chosen point orders; corresponding spaces can share one order."""

    def __init__(self, name, seed):
        self.rng = rng_for(f"{name}/relabel", seed)

    def order(self, n):
        return [int(x) for x in self.rng.permutation(n)]

    @staticmethod
    def _space(space, order):
        """The same points listed in a new order: new index k is old point order[k]."""
        return mp.validate_metric(space.dist[np.ix_(order, order)])

    @staticmethod
    def _ref(space, ref, order):
        inv = {old: k for k, old in enumerate(order)}
        return space.subset(sorted(inv[i] for i in ref.indices))

    def pair(self, pair, order=None):
        order = order or self.order(len(pair.space))
        space = self._space(pair.space, order)
        return mp.MetricPair(space, self._ref(space, pair.a, order))

    def tuple(self, mt, order=None):
        order = order or self.order(len(mt.space))
        space = self._space(mt.space, order)
        return mp.MetricTuple(space, tuple(self._ref(space, r, order) for r in mt.chain))


class PairsUnrelated:
    """One gh_compact_pair per request on independent random pairs, |A| = n // 2."""

    name = "pairs-unrelated"
    why = "cap-assignment search does nearly all the work: feasibility queries on unrelated random pairs"
    # n = 7 (1-3 s a request) would leave a 20 s run fewer than 100 requests,
    # too few for a p90 with ten samples beyond it; known_facts.py times it
    SIZES = (4, 5, 4, 5, 6)
    POOL = 240

    def build(self, seed):
        bank, rel = rng_for(self.name, BANK_SEED), Relabel(self.name, seed)
        pool = []
        for i in range(self.POOL):
            n = self.SIZES[i % len(self.SIZES)]
            pairs = []
            for _ in range(2):
                space = random_space(bank, n)
                pairs.append(rel.pair(mp.MetricPair(space, space.subset(random_subset(bank, n, n // 2)))))
            pool.append({"n": n, "p": pairs[0], "q": pairs[1]})
        return pool

    def request(self, inst):
        return mp.gh_compact_pair(inst["p"], inst["q"], RESOLUTION, budget=BUDGET)


class PairsNear:
    """Five solver calls per near-isometric pair: a jittered copy sharing the subset."""

    name = "pairs-near"
    why = "search is nearly free; truncated bisection, system set-up and approximation bisection dominate"
    # min_approx_eps needs more than 10^6 steps on ~0.1% of draws at n = 9,
    # ~0.3% at n = 10 and more at 11 and 12, and such a request stalls a run
    # for tens of seconds; known_facts.py keeps n = 12
    SIZES = (8, 9)
    JITTER = 0.05
    ROUGH_R, ROUGH_EPS = 2.0, 0.2
    POOL = 240

    def build(self, seed):
        bank, rel = rng_for(self.name, BANK_SEED), Relabel(self.name, seed)
        pool = []
        for i in range(self.POOL):
            n = self.SIZES[i % len(self.SIZES)]
            left = random_space(bank, n)
            right = jittered_copy(bank, left, self.JITTER)
            a = left.subset(random_subset(bank, n, n // 2))
            order = rel.order(n)  # one order for both sides keeps the copy's correspondence
            pool.append({
                "n": n,
                "p": rel.pair(mp.MetricPair(left, a), order),
                "q": rel.pair(mp.MetricPair(right, right.subset(a.indices)), order),
            })
        return pool

    def request(self, inst):
        p, q = inst["p"], inst["q"]
        return {
            "compact": mp.gh_compact_pair(p, q, RESOLUTION, budget=BUDGET),
            "truncated": mp.gh_truncated_pair(p, q, RESOLUTION, budget=BUDGET),
            "approx": mp.min_approx_eps(p, q, RESOLUTION, budget=BUDGET),
            "isometry": mp.pair_isometry_search(p, q),
            "rough": mp.rough_isometry_search(p, q, self.ROUGH_R, self.ROUGH_EPS, budget=BUDGET),
        }


class Tuples:
    """One gh_compact_tuple per request: depth-1 copies of unrelated pairs and
    near-isometric tuples (jitter 0.3) of depth 2 and 3."""

    name = "tuples"
    why = "the only workload on _LpSearch; depth 3 calls scipy linprog once per partial assignment"
    # (kind, n, depth); kind "u" is an unrelated pair as a depth-1 tuple. Larger
    # draws (depth 1 at n >= 5, depth 2 at n >= 5, depth 3 at n >= 4) can run
    # for tens of seconds or exhaust the budget; known_facts.py keeps them.
    MIX = (("u", 4, 1), ("n", 4, 2), ("n", 3, 3))
    JITTER = 0.3
    POOL = 600

    def build(self, seed):
        bank, rel = rng_for(self.name, BANK_SEED), Relabel(self.name, seed)
        pool = []
        for i in range(self.POOL):
            kind, n, depth = self.MIX[i % len(self.MIX)]
            left = random_space(bank, n)
            if kind == "u":
                right = random_space(bank, n)
                t = rel.tuple(mp.MetricTuple(left, (left.subset(random_subset(bank, n, n // 2)),)))
                u = rel.tuple(mp.MetricTuple(right, (right.subset(random_subset(bank, n, n // 2)),)))
            else:
                right = jittered_copy(bank, left, self.JITTER)
                chain = nested_chain(bank, left, depth)
                order = rel.order(n)
                t = rel.tuple(mp.MetricTuple(left, chain), order)
                u = rel.tuple(mp.MetricTuple(right, tuple(right.subset(r.indices) for r in chain)), order)
            pool.append({"n": n, "depth": depth, "kind": kind, "t": t, "u": u})
        return pool

    def request(self, inst):
        budget = DEPTH3_BUDGET if inst["depth"] >= 3 else BUDGET
        return mp.gh_compact_tuple(inst["t"], inst["u"], RESOLUTION, budget=budget)


class CliBatch:
    """One ``cli.main(argv)`` per request over a fixed mix of all twelve verbs.

    Each variant is one set of JSON documents written at set-up; the pool is
    every request of variant 0, then every request of variant 1, and so on.
    """

    name = "cli-batch"
    why = "the only workload for formats, cli, counting and chain_lab: cheap verbs show front-end cost"
    VARIANTS = 12
    CHAIN_MEMBERS, CHAIN_POINTS = 6, 4

    def __init__(self, workdir):
        self.workdir = workdir

    def build(self, seed):
        bank, rel = rng_for(self.name, BANK_SEED), Relabel(self.name, seed)
        return [req for v in range(self.VARIANTS) for req in self._variant(bank, rel, v)]

    def _variant(self, bank, rel, v):
        """Draw every number from the bank first, then relabel with the seed."""
        near_l = random_space(bank, 5)
        near_r = jittered_copy(bank, near_l, 0.1)
        a, other = random_subset(bank, 5, 2), random_subset(bank, 5, 3)
        approx_eps = round(float(np.abs(near_l.dist - near_r.dist).max()) + 0.01, 6)  # the identity qualifies
        u_l, u_r = random_space(bank, 4), random_space(bank, 4)
        u_a, u_b = random_subset(bank, 4, 2), random_subset(bank, 4, 2)
        t_l = random_space(bank, 4)
        t_r = jittered_copy(bank, t_l, 0.3)
        t_chain = nested_chain(bank, t_l, 2)
        # check-lemma: the c07 recipe, an identity gluing at eps / 2 between close spaces
        lem_l = random_space(bank, 4, hi=1.5)
        lem_eps = round(float(bank.uniform(0.2, 0.3)), 6)
        lem_r = jittered_copy(bank, lem_l, lem_eps / 2)
        lem_a = random_subset(bank, 4, 2)
        lem_radius = round(max(lem_l.diameter, lem_r.diameter) + 2 * lem_eps, 6)
        lem_rr = round(float(bank.uniform(0.1, 1.0 / lem_eps - lem_radius)), 6)
        # line surrogates on a grid; radii sit mid-gap so no count hinges on a tie
        line = line_space(np.arange(11) * 0.2)
        line_a = random_subset(bank, 11, 6)
        radii = sorted(float(r) for r in bank.choice([0.3, 0.5, 0.7, 0.9], size=2, replace=False))
        family = []
        for step in (0.2, 0.25, 0.4):
            fam_line = line_space(np.arange(9) * step)
            family.append(mp.MetricPair(fam_line, fam_line.subset(random_subset(bank, 9, 4))))
        base = random_space(bank, self.CHAIN_POINTS, hi=2.0)
        members = [base] + [jittered_copy(bank, base, 0.2 * 2.0 ** -i) for i in range(1, self.CHAIN_MEMBERS)]
        ch_a = random_subset(bank, self.CHAIN_POINTS, 2)

        o5, o4t, o4l, o4c = rel.order(5), rel.order(4), rel.order(4), rel.order(self.CHAIN_POINTS)
        p = rel.pair(mp.MetricPair(near_l, near_l.subset(a)), o5)
        q = rel.pair(mp.MetricPair(near_r, near_r.subset(a)), o5)
        p_other = rel.pair(mp.MetricPair(near_l, near_l.subset(other)), o5)
        iso = rel.pair(p)
        up = rel.pair(mp.MetricPair(u_l, u_l.subset(u_a)))
        uq = rel.pair(mp.MetricPair(u_r, u_r.subset(u_b)))
        tt = rel.tuple(mp.MetricTuple(t_l, t_chain), o4t)
        tu = rel.tuple(mp.MetricTuple(t_r, tuple(t_r.subset(r.indices) for r in t_chain)), o4t)
        lem_p = rel.pair(mp.MetricPair(lem_l, lem_l.subset(lem_a)), o4l)
        lem_q = rel.pair(mp.MetricPair(lem_r, lem_r.subset(lem_a)), o4l)
        lem_glue = mp.glue_from_approximation(lem_p.space, lem_q.space, range(4), lem_eps / 2)
        line_pair = rel.pair(mp.MetricPair(line, line.subset(line_a)))
        family = [rel.pair(fp) for fp in family]
        ch_pairs = [rel.pair(mp.MetricPair(s, s.subset(ch_a)), o4c) for s in members]
        budgets, glues = [], []
        for m1, m2 in zip(ch_pairs, ch_pairs[1:]):
            e = float(np.abs(m1.space.dist - m2.space.dist).max()) + 0.01
            budgets.append(e)
            glues.append(mp.glue_from_approximation(m1.space, m2.space, range(self.CHAIN_POINTS), e))
        chain = mp.build_chain(ch_pairs, glues, budgets)

        def w(name, doc):
            path = self.workdir / f"v{v}-{name}.json"
            path.write_text(formats.dumps(doc))
            return str(path)

        f = {
            "p": w("p", formats.pair_doc(p)),
            "q": w("q", formats.pair_doc(q)),
            "p_other": w("p_other", formats.pair_doc(p_other)),
            "space": w("space", formats.space_doc(p.space)),
            "up": w("up", formats.pair_doc(up)),
            "uq": w("uq", formats.pair_doc(uq)),
            "tt": w("tt", formats.tuple_doc(tt)),
            "tu": w("tu", formats.tuple_doc(tu)),
            "lem_p": w("lem_p", formats.pair_doc(lem_p)),
            "lem_q": w("lem_q", formats.pair_doc(lem_q)),
            "lem_glue": w("lem_glue", formats.gluing_doc(lem_glue)),
            "line": w("line", formats.pair_doc(line_pair)),
            "family": [w(f"family{i}", formats.pair_doc(fp)) for i, fp in enumerate(family)],
            "chain": w("chain", formats.chain_doc(chain)),
            "iso": w("iso", formats.pair_doc(iso)),
        }
        objs = {
            "p": p, "q": q, "p_other": p_other, "up": up, "uq": uq, "tt": tt, "tu": tu,
            "line": line_pair, "family": family, "iso": iso, "approx_eps": approx_eps,
        }
        res, bud = str(RESOLUTION), ["--budget", str(BUDGET)]
        grid = ",".join(repr(r) for r in radii)
        requests = [
            ("validate", ["validate", f["space"]]),
            ("hausdorff", ["hausdorff", f["p"], f["p_other"]]),
            ("gh", ["gh", f["up"], f["uq"], "--resolution", res]),
            ("gh-tuple", ["gh", f["tt"], f["tu"], "--resolution", res]),
            ("gh-truncated", ["gh-truncated", f["p"], f["q"], "--resolution", res]),
            ("approx", ["approx", f["p"], f["q"], "--eps", repr(approx_eps)]),
            ("approx-min", ["approx", f["p"], f["q"], "--resolution", res]),
            ("rough-isom", ["rough-isom", f["p"], f["q"], "--eps", "0.3", "--R", "2.0"]),
            ("counts", ["counts", f["line"], "--grid", grid]),
            ("certify-family", ["certify-family", *f["family"], "--grid", "0.3,0.45,0.7"]),
            ("check-lemma", ["check-lemma", f["lem_p"], f["lem_q"], f["lem_glue"], "--eps", repr(lem_eps),
                             "--r", repr(lem_rr), "--R", repr(lem_radius)]),
            ("glue", ["glue", f["lem_glue"], f["lem_p"], f["lem_q"], "--eps", repr(lem_eps)]),
            ("chain", ["chain", f["chain"], "--resolution", res]),
            ("isometry", ["isometry", f["p"], f["iso"]]),
        ]
        return [{"variant": v, "verb": verb, "argv": argv + bud, "objs": objs} for verb, argv in requests]

    def request(self, inst):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inst["argv"]))
        return {"code": code, "text": buf.getvalue()}


WORKLOADS = {wl.name: wl for wl in (PairsUnrelated, PairsNear, Tuples, CliBatch)}


def failure_of(workload, result):
    """Why a completed request counts as failed before any answer check, or None."""
    if workload == "cli-batch":
        if result["code"] == cli.EXIT_LIMIT:
            return "SizeLimitExceeded"
        if result["code"] == cli.EXIT_INPUT:
            kind = json.loads(result["text"]).get("error", {}).get("kind", "input error")
            return f"exit 2 ({kind})"
    return None
