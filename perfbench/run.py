"""Seeded closed-loop benchmark for metric-pairs.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload pairs-unrelated --seed 1 --seconds 20 --trace 0

Workloads: pairs-unrelated, pairs-near, tuples, cli-batch (see workloads.py).
One single-threaded client sends one request at a time for ``--seconds``
seconds, then every answer goes through the correctness gate (gate.py),
outside the timed region. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it print
every metric by name with its unit.

* ``--trace 0``: end-to-end metrics. ``setup_s`` is the median over nine
  fresh interpreters of the cold import of ``metric_pairs`` plus building and
  validating the workload's inputs.
* ``--trace 1``: per-layer metrics. A third of the time runs untraced (and
  feeds the gate); each of those requests is then replayed twice, plain and
  with spans around every call into each module (tracing.py). The spans are
  written to ``perfbench/traces/``.
* ``--record``: solve every bank entry (relabelled by ``--seed``) and store
  the answers as frozen expectations in ``perfbench/expected/``.

The gate checks the answer of every attempt, repeats of a pool entry included.

The exit status is 1 when any answer is wrong or the gate's self-check fails,
and 2 when the checkout lacks the package or the oracles.
"""

import os

# single-threaded BLAS/OpenMP, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
TRACES = HERE / "traces"
SETUP_PROBES = 9
# A few requests per run take seconds (min_approx_eps on pairs-near, depth-3
# tuples), and which ones depends on the seed's point orders, so the overall
# request rate swings by a third between seeds. The gated rate is a median of
# means over GROUPS interleaved groups of requests: up to five such requests
# only change which unaffected group's rate is the median. The overall rate is
# printed beside it.
GROUPS = 11
WORKLOAD_NAMES = ("pairs-unrelated", "pairs-near", "tuples", "cli-batch")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


@contextlib.contextmanager
def workdir(tag):
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_workload(name, path):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(path) if name == "cli-batch" else cls()


def setup_probe(args):
    """One cold set-up, timed from before the package's first import."""
    t0 = time.perf_counter()
    import metric_pairs  # noqa: F401

    with workdir(f"probe-{args.workload}") as path:
        make_workload(args.workload, path).build(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Loop:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies = []
        self.indices = []  # pool index of each attempt
        self.errors = {}  # attempt number -> reason
        self.results = []  # answer of each attempt, None when it raised
        self.elapsed = 0.0


def closed_loop(wl, pool, seconds):
    """Send pool entries in order, one at a time, until ``seconds`` have passed."""
    import workloads
    from metric_pairs import SizeLimitExceeded

    loop = Loop()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    k = 0
    while True:
        i = k % len(pool)
        t0 = clock()
        try:
            result = wl.request(pool[i])
        except SizeLimitExceeded as exc:
            result, loop.errors[k] = None, f"SizeLimitExceeded ({exc})"
        except Exception as exc:  # any other error is a failed request, reported below
            result, loop.errors[k] = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        loop.latencies.append(t1 - t0)
        loop.indices.append(i)
        loop.results.append(result)
        if result is not None:
            reason = workloads.failure_of(wl.name, result)
            if reason:
                loop.errors[k] = reason
        k += 1
        if t1 >= deadline:
            break
    loop.elapsed = clock() - start
    return loop


def run_gate(g, name, pool, loop):
    """Re-verify every attempt's answer and match it against its frozen
    record. Returns the wrong attempts with their problems, the number of
    answers checked, and whether the self-check rejected both planted answers."""
    from gate import load_expected

    frozen = load_expected(name)
    wrong, checked, planted_ok = {}, 0, False
    for k, (i, result) in enumerate(zip(loop.indices, loop.results)):
        if k in loop.errors:
            continue
        checked += 1
        probs = g.check(name, pool[i], result) + g.compare(g.record(name, result), frozen[i])
        if probs:
            wrong[k] = probs
        elif not planted_ok and (name != "cli-batch" or pool[i]["verb"] == "gh"):
            planted_ok = all(
                g.check(name, pool[i], bad) + g.compare(g.record(name, bad), frozen[i])
                for bad in g.planted(name, result)
            )
    return wrong, checked, planted_ok


def describe(i, pool):
    keys = ("n", "depth", "kind", "variant", "verb")
    return ", ".join([f"pool entry {i}"] + [f"{k} {pool[i][k]}" for k in keys if k in pool[i]])


def median_of_means_rate(latencies, failed):
    """Completed requests per second of request time in each of GROUPS groups
    (request k in group k mod GROUPS), then the median over the groups."""
    rates = []
    for g in range(min(GROUPS, len(latencies))):
        ks = range(g, len(latencies), GROUPS)
        rates.append(sum(k not in failed for k in ks) / sum(latencies[k] for k in ks))
    return statistics.median(rates)


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "metric_pairs" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("perfbench: needs src/metric_pairs and tests/oracles.py next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    setup_times = measure_setup(args) if args.trace == 0 and not args.record else []
    import metric_pairs

    if Path(metric_pairs.__file__).resolve().parent != ROOT / "src" / "metric_pairs":
        print(f"perfbench: imported metric_pairs from {metric_pairs.__file__}", file=sys.stderr)
        return 2
    import gate
    import tracing

    g = gate.Gate(gate.load_oracles(ROOT))
    name = args.workload
    with workdir(f"{name}-{args.seed}") as path:
        wl = make_workload(name, path)
        if args.record:
            return record(g, wl, args)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        pool = wl.build(args.seed)
        if tracer:
            tracer.uninstall()
        # traced runs replay the loop's requests twice (plain and traced)
        loop = closed_loop(wl, pool, args.seconds / 3 if tracer else args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            replay = replay_traced(tracer, wl, pool, loop)
        wrong, checked, planted_ok = run_gate(g, name, pool, loop)

    attempted = len(loop.latencies)
    failed_attempts = set(loop.errors) | set(wrong)
    failed = len(failed_attempts)
    correct = not wrong and planted_ok

    print(f"workload {name}, seed {args.seed}: {attempted} requests in {loop.elapsed:.3f} s, "
          f"closed loop, one client")
    for k in sorted(loop.errors):
        print(f"  failed request {k} ({describe(loop.indices[k], pool)}): {loop.errors[k]}")
    for k, probs in sorted(wrong.items()):
        print(f"  wrong answer to request {k} ({describe(loop.indices[k], pool)}): {'; '.join(probs)}")
    print(f"gate: {checked} answers re-verified and matched against frozen records; "
          f"planted wrong bracket and invalid certificate {'rejected' if planted_ok else 'NOT rejected'}")

    if tracer:
        metrics = replay
        tracer.write(TRACES / f"{name}-seed{args.seed}.json", workload=name, seed=args.seed, requests=attempted)
    else:
        ok = attempted - failed
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "request_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
            "request_p90_ms": (1e3 * percentile(loop.latencies, 90), "ms"),
            "mom_requests_per_s": (median_of_means_rate(loop.latencies, failed_attempts), "1/s"),
            "success_ratio": (ok / attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        beyond = sum(1 for x in loop.latencies if 1e3 * x > metrics["request_p90_ms"][0])
        print(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
        print(f"requests_per_s {ok / loop.elapsed:.6g} 1/s (overall; slowest request {1e3 * max(loop.latencies):.6g} ms)")
        print(f"request samples {attempted}, {beyond} beyond p90")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def replay_traced(tracer, wl, pool, loop):
    """Re-send the untraced phase's requests, each twice back to back: once
    plain, once with spans on, alternating which goes first (the second copy
    of a request runs on warm memory). Per-layer metrics come from the traced
    copies; traced over plain time is the tracing overhead, measured pairwise
    so that drift in machine speed cancels."""
    import tracing

    def timed(inst, trace_id=None):
        if trace_id is not None:
            tracer.request = trace_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.request(inst)
        except Exception:  # already counted by the untraced phase
            pass
        finally:
            elapsed = time.perf_counter() - t0
            tracer.uninstall()
        return elapsed

    count = len(loop.latencies)
    plain = traced = 0.0
    for k in range(count):
        inst = pool[loop.indices[k]]
        if k % 2:
            traced += timed(inst, k)
            plain += timed(inst)
        else:
            plain += timed(inst)
            traced += timed(inst, k)
    return tracing.layer_metrics(tracer.spans, count, traced / plain)


def record(g, wl, args):
    """Solve every bank entry and store the answers as frozen records."""
    from gate import save_expected
    from workloads import BANK_SEED

    pool = wl.build(args.seed)
    records = []
    for i, inst in enumerate(pool):
        result = wl.request(inst)
        probs = g.check(wl.name, inst, result)
        if probs:
            print(f"pool entry {i} fails independent checks: {probs}", file=sys.stderr)
            return 1
        records.append(g.record(wl.name, result))
    save_expected(wl.name, records, BANK_SEED)
    print(f"recorded {len(records)} answers for {wl.name} (relabelled by seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
