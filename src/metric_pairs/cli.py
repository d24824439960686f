"""Batch command-line front end.

One request per invocation: parse the input documents, run the verb's
operation, emit a machine-readable report, and exit 0 on success, 1 on a
false verdict or failed search, 2 on input errors, 3 on a size-limit abort.
No interactive mode: the intended users are scripts and CI.

Each verb is one entry of ``VERBS``: its runner, its number of input
documents ("+" for one or more), its flags, and the one-line definition that
every report embeds. Reports are JSON; ``--format csv`` writes the results of
the verbs in ``CSV`` as tables, and error reports stay JSON.
"""

import argparse
import dataclasses
import functools
import sys

from . import formats
from .chain_lab import chain_convergence_report, limit_proxy
from .counting import check_count_transfer, covering_inner, covering_outer, family_certificate, packing, separation
from .errors import MetricPairsError, MetricValidationError, SizeLimitExceeded
from .gh_solver import (
    approx_search,
    gh_compact_pair,
    gh_compact_tuple,
    gh_truncated_pair,
    min_approx_eps,
    pair_isometry_search,
    rough_isometry_search,
)
from .gluing import check_eps_admissible
from .hausdorff import hausdorff_between

EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_LIMIT = 0, 1, 2, 3


def _comma_floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _violations(exc):
    return [{"kind": v.kind, "indices": list(v.indices)} for v in exc.violations]


def _pairs(paths):
    return [formats.load_pair(path) for path in paths]


def _run_validate(args):
    try:
        space = formats.load_space(args.inputs[0])
    except MetricValidationError as exc:
        return EXIT_INPUT, {"valid": False, "violations": _violations(exc)}
    return EXIT_OK, {"valid": True, "points": len(space), "tolerance": space.tol}


def _run_hausdorff(args):
    return EXIT_OK, {"distance": hausdorff_between(*_pairs(args.inputs))}


def _run_gh(args):
    """Tuple documents (those with a 'chain') get the tuple distance."""
    first = formats._as_doc(args.inputs[0])
    if "chain" in first:
        build, solve = formats.tuple_from_doc, gh_compact_tuple
    else:
        build, solve = formats.pair_from_doc, gh_compact_pair
    x = build(args.inputs[0], first)
    y = build(args.inputs[1], formats._as_doc(args.inputs[1]))
    return EXIT_OK, formats.bracket_doc(solve(x, y, args.resolution, args.budget))


def _run_gh_truncated(args):
    p, q = _pairs(args.inputs)
    return EXIT_OK, formats.bracket_doc(gh_truncated_pair(p, q, args.resolution, args.budget))


def _run_approx(args):
    p, q = _pairs(args.inputs)
    if args.eps is not None:
        witness = approx_search(p, q, args.eps, args.budget)
        if witness is None:
            return EXIT_FALSE, {"found": False, "eps": args.eps}
        return EXIT_OK, {"found": True, "eps": args.eps, "f": list(witness.f), "g": list(witness.g)}
    if args.resolution is None:
        raise formats.ParseError("approx", "needs --eps (search) or --resolution (minimize)")
    return EXIT_OK, formats.bracket_doc(min_approx_eps(p, q, args.resolution, args.budget))


def _run_rough_isom(args):
    p, q = _pairs(args.inputs)
    witness = rough_isometry_search(p, q, args.R, args.eps, args.budget)
    if witness is None:
        return EXIT_FALSE, {"found": False, "eps": args.eps, "R": args.R}
    f = {str(k): v for k, v in sorted(witness.f.items())}
    return EXIT_OK, {"found": True, "eps": witness.eps, "R": witness.radius, "f": f}


def _run_counts(args):
    pair = formats.load_pair(args.inputs[0])
    radii = args.grid if args.grid else ([args.r] if args.r is not None else None)
    if not radii:
        raise formats.ParseError("counts", "needs --r or --grid")
    samples = []
    for r in radii:
        sep = separation(pair.space, pair.a, r)
        samples.append(
            {
                "r": r,
                "outer_covering": covering_outer(pair.space, pair.a, r),
                "inner_covering": covering_inner(pair.space, pair.a, r),
                "packing": packing(pair.space, pair.a, r),
                "separation": sep if sep is not None else "undefined-below-2",
            }
        )
    return EXIT_OK, {"samples": samples}


def _run_certify_family(args):
    profiles = family_certificate(_pairs(args.inputs), args.grid)
    return EXIT_OK, {"profiles": [{"kind": p.kind, "samples": [list(s) for s in p.samples]} for p in profiles]}


def _run_check_lemma(args):
    p, q = _pairs(args.inputs[:2])
    glue = formats.load_gluing(args.inputs[2], left=p.space, right=q.space)
    report = check_count_transfer(p, q, glue, args.eps, args.r, args.R)
    return (EXIT_OK if report["all_hold"] else EXIT_FALSE), report


def _run_glue(args):
    if len(args.inputs) not in (1, 3):
        raise formats.ParseError("glue", "takes a gluing document, optionally plus two pair documents")
    if len(args.inputs) == 1 and args.eps is not None:
        raise formats.ParseError("glue", "--eps checks eps-admissibility, which needs the two pair documents")
    path = args.inputs[0]
    doc = formats._as_doc(path)
    if args.pseudo:
        doc = dict(doc, pseudo=True)
    if len(args.inputs) == 1:
        return EXIT_OK, {"admissible": True, "shape": list(formats.gluing_from_doc(path, doc).cross.shape)}
    p, q = _pairs(args.inputs[1:])
    glue = formats.gluing_from_doc(path, doc, p.space, q.space)
    if args.eps is None:
        return EXIT_OK, {"admissible": True}
    rep = check_eps_admissible(glue, p.a, q.a, args.eps)
    result = {"admissible": True, "eps_report": dataclasses.asdict(rep)}
    return (EXIT_OK if rep.verdict else EXIT_FALSE), result


def _run_chain(args):
    chain = formats.load_chain(args.inputs[0])
    proxy = limit_proxy(chain)
    report = chain_convergence_report(chain, proxy, args.resolution, args.budget)
    report["limit_subset"] = [chain.pairs[-1].space.labels[i] for i in proxy.z_pair.a.indices]
    report["witness_chains"] = [list(c) for c in proxy.chains]
    return EXIT_OK, report


def _run_isometry(args):
    perm = pair_isometry_search(*_pairs(args.inputs))
    if perm is None:
        return EXIT_FALSE, {"isometric": False}
    return EXIT_OK, {"isometric": True, "bijection": list(perm)}


_NUMBER = {"type": float}
_NEEDED = {"type": float, "required": True}

# verb -> (runner, input documents, flags, one-line mathematical definition
# embedded in every report for auditability)
VERBS = {
    "validate": (_run_validate, 1, {},
                 "metric axioms: symmetry, zero diagonal, positive off-diagonal, triangle inequality"),
    "hausdorff": (_run_hausdorff, 2, {},
                  "d_H(A, B) = max(max_a d(a, B), max_b d(b, A)) in one ambient space"),
    "gh": (_run_gh, 2, {"resolution": _NEEDED},
           "inf over admissible gluings of d_H(X, Y) + d_H(A, B) (pairs) or the per-level sum (tuples)"),
    "gh-truncated": (_run_gh_truncated, 2, {"resolution": _NEEDED},
                     "min(1/2, inf eps admitting an (eps; A, B)-admissible gluing)"),
    "approx": (_run_approx, 2, {"eps": _NUMBER, "resolution": _NUMBER},
               "maps (f, g) with distortion, near-inverse compositions, and subset images within eps"),
    "rough-isom": (_run_rough_isom, 2, {"eps": _NEEDED, "R": _NEEDED},
                   "one map with distortion below eps, eps-dense image, and subset image eps-close"),
    "counts": (_run_counts, 1, {"r": _NUMBER, "grid": {"type": _comma_floats}},
               "outer/inner covering, packing, and separation counts at radius r"),
    "certify-family": (_run_certify_family, "+", {"grid": {"type": _comma_floats, "required": True}},
                       "family maxima of packing and inner covering over closed (1/eps)-balls"),
    "check-lemma": (_run_check_lemma, 3, {"eps": _NEEDED, "r": _NEEDED, "R": _NEEDED},
                    "count transfer inequalities across an (eps; A, B)-admissible gluing"),
    "glue": (_run_glue, "+", {"eps": _NUMBER, "pseudo": {"action": "store_true"}},
             "admissible gluing validation, optionally with (eps; A, B)-admissibility"),
    "chain": (_run_chain, 1, {"resolution": _NEEDED},
              "chained gluing ambient, budget-reachable limit proxy, tail-sum domination"),
    "isometry": (_run_isometry, 2, {},
                 "distance-preserving bijection carrying one distinguished subset onto the other"),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: every ``main`` call in a
    process shares it, so callers only parse with it and never modify it."""
    parser = argparse.ArgumentParser(prog="metric-pairs", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, inputs, flags, _) in VERBS.items():
        p = sub.add_parser(verb)
        p.add_argument("inputs", nargs=inputs, help="input documents")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--budget", type=int, default=None, help="assignment cap override")
    return parser


def _counts_csv(result):
    lines = ["r,outer_covering,inner_covering,packing,separation"]
    for s in result["samples"]:
        lines.append(
            f"{s['r']!r},{s['outer_covering']},{s['inner_covering']},{s['packing']},{s['separation']}"
        )
    return "\n".join(lines) + "\n"


def _profiles_csv(result):
    blocks = []
    for prof in result["profiles"]:
        rows = [f"{eps!r},{value}" for eps, value in prof["samples"]]
        blocks.append("\n".join([f"kind,{prof['kind']}", "eps,value", *rows]))
    return "\n\n".join(blocks) + "\n"


# the verbs whose results --format csv writes as tables
CSV = {"counts": _counts_csv, "certify-family": _profiles_csv}


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, _, _, definition = VERBS[args.verb]
    skip = ("verb", "inputs", "out", "format")
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    report = {"verb": args.verb, "params": params, "definition": definition}
    try:
        code, report["result"] = run(args)
    except MetricValidationError as exc:
        code, report["error"] = EXIT_INPUT, {"kind": "MetricValidationError", "violations": _violations(exc)}
    except (MetricPairsError, OSError) as exc:
        code = EXIT_LIMIT if isinstance(exc, SizeLimitExceeded) else EXIT_INPUT
        report["error"] = {"kind": type(exc).__name__, "detail": str(exc)}
    if args.format == "csv" and args.verb in CSV and "result" in report:
        text = CSV[args.verb](report["result"])
    else:
        text = formats.dumps(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # an unwritable report path is an input error, reported on stdout
            report.pop("result", None)
            code, report["error"] = EXIT_INPUT, {"kind": type(exc).__name__, "detail": str(exc)}
            text = formats.dumps(report)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
