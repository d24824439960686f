"""Correctness gate, run after the timed phase.

Three layers of checks, each reported as a list of problems (empty = pass):

* independent re-verification of every answer: certificates through the
  brute-force oracles in ``tests/oracles.py`` (admissibility plus a direct
  Hausdorff evaluation at most ``hi``), approximation witnesses through
  ``validate_approximation``, isometries and rough isometries by their
  definitions, counts by exhaustive enumeration;
* frozen expectations recorded per bank entry (``expected/``), which hold
  for every seed because seeds only relabel points: brackets must overlap
  the frozen bracket within tolerance (a faster exact solver may
  legitimately move ``lo`` inside it); counts, existence verdicts, exit
  codes and the label-free parts of CLI reports must match exactly;
* a self-check that plants a wrong bracket and an invalid certificate and
  requires the gate to reject both.
"""

import copy
import dataclasses
import importlib.util
import json
import types
from pathlib import Path

import numpy as np

import metric_pairs as mp
from workloads import RESOLUTION

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_oracles(root):
    path = Path(root) / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tol(*spaces):
    return 10 * max(s.tol for s in spaces) + 1e-12


def _close(x, y, tol):
    return abs(x - y) <= tol


class Gate:
    def __init__(self, oracles):
        self.o = oracles

    # ------------------------------------------------------------ brackets

    def bracket(self, x, y, lo, hi, cross, resolution):
        """A pair or tuple bracket: hi needs an admissible certificate whose
        direct Hausdorff evaluation is at most hi."""
        probs, cross = self._certified(x.space, y.space, lo, hi, cross, resolution)
        if cross is None:
            return probs
        dl, dr = x.space.dist, y.space.dist
        if isinstance(x, mp.MetricTuple):
            chain_l, chain_r = [ref.indices for ref in x.chain], [ref.indices for ref in y.chain]
            value = self.o.tuple_hausdorff_direct(dl, dr, cross, chain_l, chain_r)
        else:
            value = self.o.pair_hausdorff_direct(dl, dr, cross, x.a.indices, y.a.indices)
        if value > hi + _tol(x.space, y.space):
            probs.append(f"certificate evaluates to {value!r} above hi {hi!r}")
        return probs

    def truncated_bracket(self, p, q, lo, hi, cross, resolution):
        """hi needs an (hi; A, B)-admissible certificate, unless it is the 1/2 cap."""
        tol = _tol(p.space, q.space)
        if cross is None and _close(lo, 0.5, tol) and _close(hi, 0.5, tol):
            return self._bracket_shape(lo, hi, resolution, tol)
        probs, cross = self._certified(p.space, q.space, lo, hi, cross, resolution)
        if cross is None:
            return probs
        dl, dr = p.space.dist, q.space.dist
        nl = len(dl)
        big = self.o.glued_matrix(dl, dr, cross)
        a_idx, b_idx = list(p.a.indices), list(q.a.indices)
        if self.o.hausdorff_double_loop(big, a_idx, [nl + j for j in b_idx]) > hi + tol:
            probs.append("d_H(A, B) above hi in the certificate")
        radius = 1.0 / hi + tol
        for i in self.o.ball_min_over_members(dl, a_idx, radius, "closed"):
            if cross[i].min() > hi + tol:
                probs.append(f"left point {i} of the 1/hi-ball has no partner within hi")
        for j in self.o.ball_min_over_members(dr, b_idx, radius, "closed"):
            if cross[:, j].min() > hi + tol:
                probs.append(f"right point {j} of the 1/hi-ball has no partner within hi")
        return probs

    def _certified(self, left, right, lo, hi, cross, resolution):
        """Problems with the bracket's shape and its certificate's admissibility,
        and the certificate as an array (None when missing or misshapen)."""
        tol = _tol(left, right)
        probs = self._bracket_shape(lo, hi, resolution, tol)
        if cross is None:
            return probs + ["no certificate for hi"], None
        cross = np.asarray(cross, dtype=float)
        if cross.shape != (len(left), len(right)):
            return probs + [f"certificate shape {cross.shape}"], None
        if not self.o.cross_is_admissible(left.dist, right.dist, cross, tol):
            probs.append("certificate is not an admissible gluing")
        return probs, cross

    @staticmethod
    def _bracket_shape(lo, hi, resolution, tol):
        probs = []
        if not lo <= hi + tol:
            probs.append(f"inverted bracket [{lo!r}, {hi!r}]")
        if hi - lo > resolution + tol:
            probs.append(f"bracket [{lo!r}, {hi!r}] wider than {resolution!r}")
        return probs

    # ------------------------------------------------------------ witnesses

    @staticmethod
    def approximation(p, q, f, g, eps):
        ap = mp.ApproximationPair(f=tuple(f), g=tuple(g), eps=float(eps))
        failed = mp.validate_approximation(p, q, ap)
        return [f"approximation witness fails {failed}"] if failed else []

    @staticmethod
    def isometry(p, q, perm):
        n = len(p.space)
        if perm is None or sorted(perm) != list(range(len(q.space))) or len(perm) != n:
            return [f"not a bijection: {perm}"]
        tol = _tol(p.space, q.space)
        perm = list(perm)
        if np.abs(p.space.dist - q.space.dist[np.ix_(perm, perm)]).max() > tol:
            return ["bijection does not preserve distances"]
        if sorted(perm[a] for a in p.a.indices) != list(q.a.indices):
            return ["bijection does not carry A onto B"]
        return []

    def rough_isometry(self, p, q, radius, eps, fmap):
        """The map must be defined on the closed R-ball of A, land in the closed
        (R - eps)-ball of B, distort by at most eps, keep A within eps of B and
        eps-cover B and the target ball."""
        dl, dr = p.space.dist, q.space.dist
        tol = _tol(p.space, q.space)
        a_idx, b_idx = list(p.a.indices), list(q.a.indices)
        dom = self.o.ball_min_over_members(dl, a_idx, radius + tol, "closed")
        tgt = self.o.ball_min_over_members(dr, b_idx, radius - eps + tol, "closed")
        f = {int(k): int(v) for k, v in fmap.items()}
        if sorted(f) != dom:
            return [f"map domain {sorted(f)} is not the R-ball {dom}"]
        if any(v not in tgt for v in f.values()):
            return ["map leaves the (R - eps)-ball of B"]
        for u in dom:
            for u2 in dom:
                if abs(dl[u, u2] - dr[f[u], f[u2]]) > eps + tol:
                    return [f"distortion above eps at ({u}, {u2})"]
        if any(min(dr[f[a], b] for b in b_idx) > eps + tol for a in a_idx):
            return ["some f(a) is farther than eps from B"]
        image = sorted(set(f.values()))
        for y in list(b_idx) + tgt:
            if min(dr[y, v] for v in image) > eps + tol:
                return [f"right point {y} is farther than eps from the image"]
        return []

    def counts(self, pair, samples):
        dist = pair.space.dist.tolist()
        a_idx = list(pair.a.indices)
        everything = list(range(len(dist)))
        probs = []
        for s in samples:
            r = s["r"]
            sep = self.o.max_separated_exhaustive(dist, a_idx, r)
            want = {
                "outer_covering": self.o.min_cover_exhaustive(dist, a_idx, everything, r),
                "inner_covering": self.o.min_cover_exhaustive(dist, a_idx, a_idx, r),
                "packing": self.o.max_packing_exhaustive(dist, a_idx, r),
                "separation": sep if sep is not None else "undefined-below-2",
            }
            for key, value in want.items():
                if s[key] != value:
                    probs.append(f"{key} at r={r!r}: {s[key]} vs exhaustive {value}")
        return probs

    def family(self, family, profiles):
        probs = []
        got = {prof["kind"]: prof["samples"] for prof in profiles}
        for k, (eps, _) in enumerate(got["family-packing"]):
            pack, cover = 0, 0
            for pair in family:
                dist = pair.space.dist.tolist()
                around = self.o.ball_min_over_members(dist, list(pair.a.indices), 1.0 / eps + pair.space.tol, "closed")
                pack = max(pack, self.o.max_packing_exhaustive(dist, around, eps))
                cover = max(cover, self.o.min_cover_exhaustive(dist, around, around, eps))
            if got["family-packing"][k][1] != pack:
                probs.append(f"family packing at eps={eps!r}: {got['family-packing'][k][1]} vs {pack}")
            if got["family-inner-covering"][k][1] != cover:
                probs.append(f"family covering at eps={eps!r}: {got['family-inner-covering'][k][1]} vs {cover}")
        return probs

    # ------------------------------------------------------------ per workload

    def check(self, workload, inst, result):
        """Independent re-verification of one answer."""
        res = RESOLUTION
        if workload in ("pairs-unrelated", "tuples"):
            x, y = (inst["p"], inst["q"]) if workload == "pairs-unrelated" else (inst["t"], inst["u"])
            cross = result.certificate.cross if result.certificate is not None else None
            return self.bracket(x, y, result.lo, result.hi, cross, res)
        if workload == "pairs-near":
            return self._check_near(inst, result, res)
        return self._check_cli(inst, result, res)

    def _check_near(self, inst, r, res):
        p, q = inst["p"], inst["q"]
        c, t, a = r["compact"], r["truncated"], r["approx"]
        probs = self.bracket(p, q, c.lo, c.hi, c.certificate and c.certificate.cross, res)
        probs += ["truncated: " + x for x in self.truncated_bracket(
            p, q, t.lo, t.hi, t.certificate and t.certificate.cross, res)]
        probs += ["approx: " + x for x in self._bracket_shape(a.lo, a.hi, res, _tol(p.space, q.space))]
        probs += self.approximation(p, q, a.witness["f"], a.witness["g"], a.hi)
        if r["isometry"] is not None:
            probs += self.isometry(p, q, r["isometry"])
        if r["rough"] is not None:  # None is checked against the frozen record only
            probs += self.rough_isometry(p, q, r["rough"].radius, r["rough"].eps, r["rough"].f)
        return probs

    def _check_cli(self, inst, result, res):
        verb, objs = inst["verb"], inst["objs"]
        # rough-isom may legitimately find no map (exit 1); the frozen record checks which
        if result["code"] != 0 and not (verb == "rough-isom" and result["code"] == 1):
            return [f"{verb}: exit code {result['code']}, expected 0"]
        report = json.loads(result["text"])
        out = report["result"]
        p, q = objs["p"], objs["q"]

        def cross_of(doc):
            return None if doc is None else doc["cross"]

        if verb == "validate":
            return [] if out == {"valid": True, "points": len(p.space), "tolerance": p.space.tol} else [str(out)]
        if verb == "hausdorff":
            want = self.o.hausdorff_double_loop(p.space.dist, p.a.indices, objs["p_other"].a.indices)
            return [] if _close(out["distance"], want, 1e-12) else [f"hausdorff {out['distance']} vs {want}"]
        if verb == "gh":
            return self.bracket(objs["up"], objs["uq"], out["lo"], out["hi"], cross_of(out["certificate"]), res)
        if verb == "gh-tuple":
            return self.bracket(objs["tt"], objs["tu"], out["lo"], out["hi"], cross_of(out["certificate"]), res)
        if verb == "gh-truncated":
            return self.truncated_bracket(p, q, out["lo"], out["hi"], cross_of(out["certificate"]), res)
        if verb == "approx":
            if not out["found"]:
                return ["approximation not found although the identity qualifies"]
            return self.approximation(p, q, out["f"], out["g"], objs["approx_eps"])
        if verb == "approx-min":
            probs = self._bracket_shape(out["lo"], out["hi"], res, _tol(p.space, q.space))
            return probs + self.approximation(p, q, out["witness"]["f"], out["witness"]["g"], out["hi"])
        if verb == "rough-isom":
            return self.rough_isometry(p, q, out["R"], out["eps"], out["f"]) if out["found"] else []
        if verb == "counts":
            return self.counts(objs["line"], out["samples"])
        if verb == "certify-family":
            return self.family(objs["family"], out["profiles"])
        if verb == "check-lemma":
            return [] if out["all_hold"] else ["count transfer inequalities reported false"]
        if verb == "glue":
            rep = out["eps_report"]
            return [] if out["admissible"] and rep["verdict"] else [f"gluing rejected: {rep}"]
        if verb == "chain":
            return [f"member {m['index']} bracket inverted" for m in out["members"]
                    if m["compact_lo"] > m["compact_hi"] or m["truncated_lo"] > m["truncated_hi"]]
        if verb == "isometry":
            if not out["isometric"]:
                return ["isometry not found for a relabelled copy"]
            return self.isometry(p, objs["iso"], out["bijection"])
        return [f"no check for verb {verb}"]

    # ------------------------------------------------------------ frozen records

    @staticmethod
    def record(workload, result):
        """The relabelling-invariant part of an answer: brackets, existence
        verdicts, counts and exit codes, but no maps or witnesses."""
        if workload in ("pairs-unrelated", "tuples"):
            return {"bracket": [result.lo, result.hi]}
        if workload == "pairs-near":
            return {
                "compact": [result["compact"].lo, result["compact"].hi],
                "truncated": [result["truncated"].lo, result["truncated"].hi],
                "approx": [result["approx"].lo, result["approx"].hi],
                "isometric": result["isometry"] is not None,
                "rough_found": result["rough"] is not None,
            }
        report = json.loads(result["text"])
        out = report.get("result", {})
        brackets, summary = [], out
        if {"lo", "hi", "certificate"} <= set(out):
            brackets, summary = [[out["lo"], out["hi"]]], {}
        elif "members" in out:
            for m in out["members"]:
                brackets += [[m["compact_lo"], m["compact_hi"]], [m["truncated_lo"], m["truncated_hi"]]]
            summary = {
                "members": [{k: m[k] for k in ("index", "tail_budget", "dominated")} for m in out["members"]],
                "all_dominated": out["all_dominated"],
                "limit_points": len(out["limit_subset"]),
            }
        elif "found" in out:
            summary = {"found": out["found"]}
        elif "isometric" in out:
            summary = {"isometric": out["isometric"]}
        return {"code": result["code"], "brackets": brackets, "summary": summary}

    @staticmethod
    def compare(now, frozen, tol=1e-9):
        """Brackets overlap within tol; every other field matches exactly."""
        probs = []
        for key in sorted(set(now) | set(frozen)):
            a, b = now.get(key), frozen.get(key)
            if key in ("bracket", "compact", "truncated", "approx"):
                a, b = [a], [b]
            elif key != "brackets":
                if a != b:
                    probs.append(f"{key}: {a} differs from the frozen {b}")
                continue
            if len(a) != len(b):
                probs.append(f"{key}: {len(a)} brackets vs {len(b)} frozen")
                continue
            for (lo, hi), (flo, fhi) in zip(a, b):
                slack = tol * (1.0 + abs(fhi))
                if lo > fhi + slack or flo > hi + slack:
                    probs.append(f"{key}: [{lo!r}, {hi!r}] misses the frozen [{flo!r}, {fhi!r}]")
        return probs

    # ------------------------------------------------------------ self-check

    def planted(self, workload, result):
        """A wrong bracket and an invalid certificate derived from a good answer."""
        if workload == "cli-batch":
            report = json.loads(result["text"])
            wrong = copy.deepcopy(report)
            wrong["result"]["lo"] += 1.0
            wrong["result"]["hi"] += 1.0
            bad = copy.deepcopy(report)
            cross = bad["result"]["certificate"]["cross"]
            cross[0][0] += 10.0 * (1.0 + max(map(max, cross)))
            return [dict(result, text=json.dumps(r)) for r in (wrong, bad)]
        key = "compact" if workload == "pairs-near" else None
        bracket = result[key] if key else result
        wrong = dataclasses.replace(bracket, lo=bracket.hi + 1.0, hi=bracket.hi + 1.0)
        cross = np.array(bracket.certificate.cross)
        cross[0, 0] += 10.0 * (1.0 + cross.max())
        bad = dataclasses.replace(bracket, certificate=types.SimpleNamespace(cross=cross))
        if key:
            return [dict(result, compact=wrong), dict(result, compact=bad)]
        return [wrong, bad]


def load_expected(workload):
    """Frozen records, one per bank entry (the same for every seed)."""
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())["records"]


def save_expected(workload, records, bank_seed):
    EXPECTED_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "bank_seed": bank_seed, "records": records}
    (EXPECTED_DIR / f"{workload}.json").write_text(json.dumps(doc, sort_keys=True, indent=0) + "\n")
