"""Document formats: spaces, pairs, tuples, gluings, chains, brackets, profiles.

JSON is the primary format; spaces are also accepted as CSV matrices with a
header row of labels. Serialization sorts keys and keeps floats at full
precision, so identical values always produce identical bytes and every
exported document re-imports to an equal value.
"""

import csv
import io
import json

import numpy as np

from .errors import MetricPairsError
from .gluing import CrossMetric
from .hausdorff import MetricPair, MetricTuple
from .metric_core import validate_metric


class ParseError(MetricPairsError):
    def __init__(self, source, message):
        self.source = source
        super().__init__(f"{source}: {message}")


def _as_doc(source, text=None):
    if isinstance(source, dict):
        return source
    if text is not None:
        raw = text
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except UnicodeDecodeError:
            raise ParseError(source, "not UTF-8 text") from None
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(source, f"bad JSON at line {exc.lineno}") from None
        except ValueError:  # an integer literal past the interpreter's digit limit
            raise ParseError(source, "bad JSON number") from None
    return {"_csv": raw}


def _field(source, doc, key, kind):
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ParseError(source, f"{kind} document needs '{key}'") from None


def _of_type(source, value, kind, what):
    """``value`` if its JSON type is exactly ``kind``: a string is not a list, nor a bool."""
    if type(value) is not kind:
        raise ParseError(source, f"{what} must be a {kind.__name__}")
    return value


def _numbers(source, rows, need):
    """``rows``, equally long lists of JSON numbers (no bools, no strings), as
    a float array; ``need`` says what the document should hold instead."""
    if type(rows) is not list or any(
        type(row) is not list or len(row) != len(rows[0]) or any(type(x) not in (int, float) for x in row)
        for row in rows
    ):
        raise ParseError(source, need)
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # an integer too large for a float
        raise ParseError(source, f"{need}, of float range") from None


def load_space(source, text=None):
    doc = _as_doc(source, text)
    if "_csv" in doc:
        return _space_from_csv(source, doc["_csv"])
    return space_from_doc(source, doc)


def space_from_doc(source, doc):
    labels = _of_type(source, _field(source, doc, "labels", "space"), list, "'labels'")
    dist = _numbers(source, _field(source, doc, "dist", "space"), "'dist' must be equally long lists of numbers")
    tol = doc.get("tolerance")
    if tol is not None:
        tol = _numbers(source, [[tol]], "'tolerance' must be a number")[0, 0]
    pseudo = _of_type(source, doc.get("pseudo", False), bool, "'pseudo'")
    return validate_metric(dist, tol=tol, labels=labels, pseudo=pseudo)


def _space_from_csv(source, raw):
    rows = [r for r in csv.reader(io.StringIO(raw)) if r]
    if len(rows) < 2:
        raise ParseError(source, "CSV needs a header row of labels plus matrix rows")
    labels = [c.strip() for c in rows[0]]
    body = rows[1:]
    if len(body) != len(labels):
        raise ParseError(source, f"{len(labels)} labels but {len(body)} matrix rows")
    try:
        mat = [[float(c) for c in row] for row in body]
    except ValueError as exc:
        raise ParseError(source, f"non-numeric matrix entry: {exc}") from None
    if any(len(row) != len(labels) for row in mat):
        raise ParseError(source, "matrix rows must match the label count")
    return validate_metric(np.asarray(mat), labels=labels)


def space_doc(space):
    doc = {
        "labels": list(space.labels),
        "dist": [[float(x) for x in row] for row in space.dist],
        "tolerance": float(space.tol),
    }
    if space.pseudo:
        doc["pseudo"] = True
    return doc


def space_csv(space):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(x)) for x in row])
    return out.getvalue()


def _labels_to_subset(source, space, labels):
    labels = _of_type(source, labels, list, "a subset")
    try:
        return space.subset(space.index_of(lab) for lab in labels)
    except MetricPairsError as exc:
        raise ParseError(source, str(exc)) from None


def load_pair(source, text=None):
    doc = _as_doc(source, text)
    if "_csv" in doc:
        raise ParseError(source, "pair documents must be JSON")
    space = space_from_doc(source, _field(source, doc, "space", "pair"))
    return MetricPair(space, _labels_to_subset(source, space, _field(source, doc, "subset", "pair")))


def pair_doc(pair):
    return {
        "space": space_doc(pair.space),
        "subset": [pair.space.labels[i] for i in pair.a.indices],
    }


def load_tuple(source, text=None):
    doc = _as_doc(source, text)
    space = space_from_doc(source, _field(source, doc, "space", "tuple"))
    levels = _of_type(source, _field(source, doc, "chain", "tuple"), list, "'chain'")
    chain = tuple(_labels_to_subset(source, space, level) for level in levels)
    return MetricTuple(space, chain)


def tuple_doc(mt):
    return {
        "space": space_doc(mt.space),
        "chain": [[mt.space.labels[i] for i in ref.indices] for ref in mt.chain],
    }


def load_gluing(source, text=None, left=None, right=None):
    return _gluing_from_doc(source, _as_doc(source, text), left, right)


def _gluing_from_doc(source, doc, left, right):
    """The gluing of ``doc``; errors name ``source``, the file it came from."""
    cross = _numbers(source, _field(source, doc, "cross", "gluing"), "'cross' must be equally long lists of numbers")
    if left is None:
        left = space_from_doc(source, _field(source, doc, "left", "gluing"))
    if right is None:
        right = space_from_doc(source, _field(source, doc, "right", "gluing"))
    return CrossMetric(left, right, cross, pseudo=_of_type(source, doc.get("pseudo", False), bool, "'pseudo'"))


def gluing_doc(glue):
    return {
        "left": space_doc(glue.left),
        "right": space_doc(glue.right),
        "cross": [[float(x) for x in row] for row in glue.cross],
        "pseudo": bool(glue.pseudo),
    }


def load_chain(source, text=None):
    from .chain_lab import build_chain

    doc = _as_doc(source, text)
    pdocs, gdocs = (_of_type(source, _field(source, doc, k, "chain"), list, f"'{k}'") for k in ("pairs", "glues"))
    budgets = _field(source, doc, "eps_budget", "chain")
    budgets = _numbers(source, [budgets], "'eps_budget' must be a list of numbers")[0]
    pairs = []
    for pdoc in pdocs:
        space = space_from_doc(source, _field(source, pdoc, "space", "chain pair"))
        subset = _field(source, pdoc, "subset", "chain pair")
        pairs.append(MetricPair(space, _labels_to_subset(source, space, subset)))
    if len(gdocs) != len(pairs) - 1:
        raise ParseError(source, "a chain needs one gluing per consecutive pair")
    glues = []
    for i, gdoc in enumerate(gdocs):
        _of_type(source, gdoc, dict, "each of 'glues'")  # a string here would name a file
        # inside a chain the member spaces stand in for omitted sides
        left = pairs[i].space if "left" not in gdoc else None
        right = pairs[i + 1].space if "right" not in gdoc else None
        glues.append(_gluing_from_doc(source, gdoc, left, right))
    return build_chain(pairs, glues, budgets.tolist())


def chain_doc(chain):
    return {
        "pairs": [pair_doc(p) for p in chain.pairs],
        "glues": [gluing_doc(g) for g in chain.glues],
        "eps_budget": [float(e) for e in chain.eps_budget],
    }


def bracket_doc(bracket):
    witness = bracket.witness
    if witness is not None:
        witness = _stringify_keys(witness)
    return {
        "lo": float(bracket.lo),
        "hi": float(bracket.hi),
        "resolution": float(bracket.resolution),
        "certificate": gluing_doc(bracket.certificate) if bracket.certificate else None,
        "witness": witness,
        "lo_reason": bracket.lo_reason,
    }


def _stringify_keys(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_keys(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def dumps(doc):
    """Deterministic JSON bytes for reports and documents."""
    return json.dumps(_stringify_keys(doc), sort_keys=True, indent=2) + "\n"
