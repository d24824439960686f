"""Reproduce the known slow paths that the timed workloads leave out.

    python3 perfbench/known_facts.py [--timeout 60] [--only depth3-tail,...]

Each probe runs in its own process under a wall-clock limit and prints one
line: what it ran, whether it finished, and how long it took. None of these
is a benchmark workload, because a single request can outlast a whole run
(or abort), and the benchmark's workloads must complete without failures:

* ``depth3-tail``: depth-3 tuples on unrelated 4-point spaces, where
  _LpSearch calls scipy's linprog once per partial assignment (budget 3e5);
* ``depth3-near``: near-isometric depth-3 tuples (jitter 0.3) at n = 6-7;
* ``approx-12``: min_approx_eps on 12-point near-isometric pairs (jitter
  0.05), which can exhaust the assignment budget;
* ``pairs-7``: gh_compact_pair on unrelated random 7-point pairs, |A| = 3;
* ``counts-101``: exact counts of a whole 101-point line surrogate (grid
  step 0.02) at r = 0.13;
* ``parser-floor``: the share of a cheap CLI request spent in build_parser.
"""

import argparse
import json
import multiprocessing
import os
import queue
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _paths():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _depth3(rng, n, near):
    import metric_pairs as mp
    import workloads as w

    left = w.random_space(rng, n)
    right = w.jittered_copy(rng, left, 0.3) if near else w.random_space(rng, n)
    chain = w.nested_chain(rng, left, 3)
    t = mp.MetricTuple(left, chain)
    u = mp.MetricTuple(right, tuple(right.subset(r.indices) for r in chain))
    b = mp.gh_compact_tuple(t, u, 1e-3, budget=300_000)
    return f"n={n} depth 3 {'near' if near else 'unrelated'}: [{b.lo:.6g}, {b.hi:.6g}]"


def depth3_tail(seed):
    import numpy as np

    return _depth3(np.random.default_rng(seed), 4, near=False)


def depth3_near(seed):
    import numpy as np

    return _depth3(np.random.default_rng(seed), 6 + seed % 2, near=True)


def pairs_7(seed):
    import numpy as np

    import metric_pairs as mp
    import workloads as w

    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(2):
        space = w.random_space(rng, 7)
        pairs.append(mp.MetricPair(space, space.subset(w.random_subset(rng, 7, 3))))
    b = mp.gh_compact_pair(*pairs, 1e-3, budget=10_000_000)
    return f"n=7: [{b.lo:.6g}, {b.hi:.6g}]"


def approx_12(seed):
    import numpy as np

    import metric_pairs as mp
    import workloads as w

    rng = np.random.default_rng(seed)
    left = w.random_space(rng, 12)
    right = w.jittered_copy(rng, left, 0.05)
    a = w.random_subset(rng, 12, 6)
    p, q = mp.MetricPair(left, left.subset(a)), mp.MetricPair(right, right.subset(a))
    try:
        b = mp.min_approx_eps(p, q, 1e-3, budget=10_000_000)
    except mp.SizeLimitExceeded as exc:
        return f"n=12: SizeLimitExceeded ({exc})"
    return f"n=12: [{b.lo:.6g}, {b.hi:.6g}]"


def counts_101(_seed):
    import numpy as np

    import metric_pairs as mp
    import workloads as w

    line = w.line_space(np.arange(101) * 0.02)
    a, r = line.subset(range(101)), 0.13
    values = [mp.covering_outer(line, a, r), mp.covering_inner(line, a, r), mp.packing(line, a, r),
              mp.separation(line, a, r)]
    return f"101 points, A = all, r={r}: {values}"


def parser_floor(seed):
    import io
    from contextlib import redirect_stdout

    import numpy as np

    import workloads as w
    from metric_pairs import cli, formats

    rng = np.random.default_rng(seed)
    space = w.random_space(rng, 5)
    path = HERE / "_work" / f"parser-floor-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(formats.dumps(formats.space_doc(space)))
    try:
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            with redirect_stdout(io.StringIO()):
                cli.main(["validate", str(path), "--budget", "1000000"])
        whole = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            cli.build_parser()
        parser = (time.perf_counter() - t0) / reps
    finally:
        path.unlink()
    return f"validate request {1e3 * whole:.2f} ms, build_parser {1e3 * parser:.2f} ms ({parser / whole:.0%})"


PROBES = {
    "depth3-tail": (depth3_tail, range(1, 5)),
    "depth3-near": (depth3_near, range(1, 17)),
    "pairs-7": (pairs_7, range(1, 9)),
    "approx-12": (approx_12, range(1, 13)),
    "counts-101": (counts_101, range(1)),
    "parser-floor": (parser_floor, range(1, 2)),
}


def _child(name, seed, out):
    _paths()
    fn = PROBES[name][0]
    out.put(fn(seed))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--timeout", type=float, default=60.0, help="wall-clock limit per probe, in seconds")
    ap.add_argument("--only", default=",".join(PROBES))
    args = ap.parse_args(argv)
    ctx = multiprocessing.get_context("spawn")
    for name in args.only.split(","):
        for seed in PROBES[name][1]:
            results = ctx.Queue()
            proc = ctx.Process(target=_child, args=(name, seed, results))
            t0 = time.perf_counter()
            proc.start()
            while True:  # drain the queue before joining the writer
                try:
                    outcome = results.get(timeout=0.2)
                    break
                except queue.Empty:
                    if not proc.is_alive():
                        outcome = f"exit code {proc.exitcode}"
                        break
                    if time.perf_counter() - t0 > args.timeout:
                        proc.terminate()
                        outcome = f"did not finish within {args.timeout:g} s"
                        break
            proc.join()
            elapsed = time.perf_counter() - t0
            print(json.dumps({"probe": name, "seed": seed, "seconds": round(elapsed, 3), "outcome": outcome}),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
