"""Batch command-line front end.

One request per invocation: parse the input documents, run the mapped
operation, emit a machine-readable report, and exit 0 on success, 1 on a
false verdict or failed search, 2 on input errors, 3 on a size-limit abort.
No interactive mode: the intended users are scripts and CI.
"""

import argparse
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

# one-line mathematical descriptor embedded in every report for auditability
DEFINITIONS = {
    "validate": "metric axioms: symmetry, zero diagonal, positive off-diagonal, triangle inequality",
    "hausdorff": "d_H(A, B) = max(max_a d(a, B), max_b d(b, A)) in one ambient space",
    "gh": "inf over admissible gluings of d_H(X, Y) + d_H(A, B) (pairs) or the per-level sum (tuples)",
    "gh-truncated": "min(1/2, inf eps admitting an (eps; A, B)-admissible gluing)",
    "approx": "maps (f, g) with distortion, near-inverse compositions, and subset images within eps",
    "rough-isom": "one map with distortion below eps, eps-dense image, and subset image eps-close",
    "counts": "outer/inner covering, packing, and separation counts at radius r",
    "certify-family": "family maxima of packing and inner covering over closed (1/eps)-balls",
    "check-lemma": "count transfer inequalities across an (eps; A, B)-admissible gluing",
    "glue": "admissible gluing validation, optionally with (eps; A, B)-admissibility",
    "chain": "chained gluing ambient, budget-reachable limit proxy, tail-sum domination",
    "isometry": "distance-preserving bijection carrying one distinguished subset onto the other",
}


def _comma_floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


@functools.cache
def build_parser():
    """The argument parser, built once per process: every ``main`` call in a
    process shares it, so callers only parse with it and never modify it."""
    parser = argparse.ArgumentParser(prog="metric-pairs", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, *, inputs, variadic=False, **flags):
        p = sub.add_parser(name)
        p.add_argument("inputs", nargs="+" if variadic else inputs, help="input documents")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--budget", type=int, default=None, help="assignment cap override")
        return p

    add("validate", inputs=1)
    add("hausdorff", inputs=2)
    add("gh", inputs=2, resolution={"type": float, "required": True})
    add("gh-truncated", inputs=2, resolution={"type": float, "required": True})
    add(
        "approx",
        inputs=2,
        eps={"type": float, "default": None},
        resolution={"type": float, "default": None},
    )
    add("rough-isom", inputs=2, eps={"type": float, "required": True}, R={"type": float, "required": True})
    add("counts", inputs=1, r={"type": float, "default": None}, grid={"type": _comma_floats, "default": None})
    add("certify-family", inputs="+", variadic=True, grid={"type": _comma_floats, "required": True})
    add(
        "check-lemma",
        inputs=3,
        eps={"type": float, "required": True},
        r={"type": float, "required": True},
        R={"type": float, "required": True},
    )
    add("glue", inputs="+", variadic=True, eps={"type": float, "default": None}, pseudo={"action": "store_true"})
    add("chain", inputs=1, resolution={"type": float, "required": True})
    add("isometry", inputs=2)
    return parser


def _bracket_result(bracket):
    return formats.bracket_doc(bracket)


def _run_validate(args):
    try:
        space = formats.load_space(args.inputs[0])
    except MetricValidationError as exc:
        return EXIT_INPUT, {
            "valid": False,
            "violations": [{"kind": v.kind, "indices": list(v.indices)} for v in exc.violations],
        }
    return EXIT_OK, {"valid": True, "points": len(space), "tolerance": space.tol}


def _run_hausdorff(args):
    pair_a = formats.load_pair(args.inputs[0])
    pair_b = formats.load_pair(args.inputs[1])
    return EXIT_OK, {"distance": hausdorff_between(pair_a, pair_b)}


def _is_tuple_doc(path):
    doc = formats._as_doc(path)
    return "chain" in doc


def _run_gh(args):
    if _is_tuple_doc(args.inputs[0]):
        t = formats.load_tuple(args.inputs[0])
        u = formats.load_tuple(args.inputs[1])
        bracket = gh_compact_tuple(t, u, args.resolution, args.budget)
    else:
        p = formats.load_pair(args.inputs[0])
        q = formats.load_pair(args.inputs[1])
        bracket = gh_compact_pair(p, q, args.resolution, args.budget)
    return EXIT_OK, _bracket_result(bracket)


def _run_gh_truncated(args):
    p = formats.load_pair(args.inputs[0])
    q = formats.load_pair(args.inputs[1])
    bracket = gh_truncated_pair(p, q, args.resolution, args.budget)
    return EXIT_OK, _bracket_result(bracket)


def _run_approx(args):
    p = formats.load_pair(args.inputs[0])
    q = formats.load_pair(args.inputs[1])
    if args.eps is not None:
        witness = approx_search(p, q, args.eps, args.budget)
        if witness is None:
            return EXIT_FALSE, {"found": False, "eps": args.eps}
        return EXIT_OK, {
            "found": True,
            "eps": args.eps,
            "f": list(witness.f),
            "g": list(witness.g),
        }
    if args.resolution is None:
        raise formats.ParseError("approx", "needs --eps (search) or --resolution (minimize)")
    bracket = min_approx_eps(p, q, args.resolution, args.budget)
    return EXIT_OK, _bracket_result(bracket)


def _run_rough_isom(args):
    p = formats.load_pair(args.inputs[0])
    q = formats.load_pair(args.inputs[1])
    witness = rough_isometry_search(p, q, args.R, args.eps, args.budget)
    if witness is None:
        return EXIT_FALSE, {"found": False, "eps": args.eps, "R": args.R}
    return EXIT_OK, {
        "found": True,
        "eps": witness.eps,
        "R": witness.radius,
        "f": {str(k): v for k, v in sorted(witness.f.items())},
    }


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
    family = [formats.load_pair(path) for path in args.inputs]
    pi, nu = family_certificate(family, args.grid)
    return EXIT_OK, {
        "profiles": [
            {"kind": pi.kind, "samples": [list(s) for s in pi.samples]},
            {"kind": nu.kind, "samples": [list(s) for s in nu.samples]},
        ]
    }


def _run_check_lemma(args):
    p = formats.load_pair(args.inputs[0])
    q = formats.load_pair(args.inputs[1])
    glue = formats.load_gluing(args.inputs[2], left=p.space, right=q.space)
    report = check_count_transfer(p, q, glue, args.eps, args.r, args.R)
    return (EXIT_OK if report["all_hold"] else EXIT_FALSE), report


def _run_glue(args):
    if len(args.inputs) not in (1, 3):
        raise formats.ParseError("glue", "takes a gluing document, optionally plus two pair documents")
    glue_doc = formats._as_doc(args.inputs[0])
    if args.pseudo:
        glue_doc = dict(glue_doc, pseudo=True)
    if len(args.inputs) == 3:
        p = formats.load_pair(args.inputs[1])
        q = formats.load_pair(args.inputs[2])
        glue = formats.load_gluing(glue_doc, left=p.space, right=q.space)
        result = {"admissible": True}
        if args.eps is not None:
            rep = check_eps_admissible(glue, p.a, q.a, args.eps)
            result["eps_report"] = {
                "eps": rep.eps,
                "hausdorff_ab": rep.hausdorff_ab,
                "covering_left": rep.covering_left,
                "covering_right": rep.covering_right,
                "verdict": rep.verdict,
            }
            return (EXIT_OK if rep.verdict else EXIT_FALSE), result
        return EXIT_OK, result
    glue = formats.load_gluing(glue_doc)
    return EXIT_OK, {"admissible": True, "shape": list(glue.cross.shape)}


def _run_chain(args):
    chain = formats.load_chain(args.inputs[0])
    proxy = limit_proxy(chain)
    report = chain_convergence_report(chain, proxy, args.resolution, args.budget)
    report["limit_subset"] = [chain.pairs[-1].space.labels[i] for i in proxy.z_pair.a.indices]
    report["witness_chains"] = [list(c) for c in proxy.chains]
    return EXIT_OK, report


def _run_isometry(args):
    p = formats.load_pair(args.inputs[0])
    q = formats.load_pair(args.inputs[1])
    perm = pair_isometry_search(p, q)
    if perm is None:
        return EXIT_FALSE, {"isometric": False}
    return EXIT_OK, {"isometric": True, "bijection": list(perm)}


RUNNERS = {
    "validate": _run_validate,
    "hausdorff": _run_hausdorff,
    "gh": _run_gh,
    "gh-truncated": _run_gh_truncated,
    "approx": _run_approx,
    "rough-isom": _run_rough_isom,
    "counts": _run_counts,
    "certify-family": _run_certify_family,
    "check-lemma": _run_check_lemma,
    "glue": _run_glue,
    "chain": _run_chain,
    "isometry": _run_isometry,
}


def _csv_text(verb, result):
    if verb == "certify-family":
        blocks = []
        for prof in result["profiles"]:
            lines = [f"kind,{prof['kind']}", "eps,value"]
            lines += [f"{eps!r},{value}" for eps, value in prof["samples"]]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
    if verb == "counts":
        lines = ["r,outer_covering,inner_covering,packing,separation"]
        for s in result["samples"]:
            lines.append(
                f"{s['r']!r},{s['outer_covering']},{s['inner_covering']},{s['packing']},{s['separation']}"
            )
        return "\n".join(lines) + "\n"
    return None


def _emit(args, report):
    text = None
    if args.format == "csv":
        text = _csv_text(args.verb, report["result"])
    if text is None:
        text = formats.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("verb", "inputs", "out", "format") and v is not None
    }
    report = {"verb": args.verb, "params": params, "definition": DEFINITIONS[args.verb]}
    try:
        code, result = RUNNERS[args.verb](args)
    except SizeLimitExceeded as exc:
        report["error"] = {"kind": "SizeLimitExceeded", "detail": str(exc)}
        _emit(args, report)
        return EXIT_LIMIT
    except MetricValidationError as exc:
        report["error"] = {
            "kind": "MetricValidationError",
            "violations": [{"kind": v.kind, "indices": list(v.indices)} for v in exc.violations],
        }
        _emit(args, report)
        return EXIT_INPUT
    except (MetricPairsError, OSError) as exc:
        report["error"] = {"kind": type(exc).__name__, "detail": str(exc)}
        _emit(args, report)
        return EXIT_INPUT
    report["result"] = result
    _emit(args, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
