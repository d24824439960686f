import hashlib
import json
import time

import numpy as np
import pytest

from metric_pairs import MetricPair, MetricTuple, glue_from_approximation, same_space
from metric_pairs import formats
from metric_pairs.cli import build_parser, main

from conftest import line_space, random_space


@pytest.fixture()
def docs(tmp_path):
    rng = np.random.default_rng(0)
    left = random_space(rng, 3, hi=2.0)
    right = line_space([0.0, 0.9, 2.1])
    p = MetricPair(left, left.subset([0, 1]))
    q = MetricPair(right, right.subset([0]))
    paths = {}
    paths["p"] = tmp_path / "p.json"
    paths["p"].write_text(formats.dumps(formats.pair_doc(p)))
    paths["q"] = tmp_path / "q.json"
    paths["q"].write_text(formats.dumps(formats.pair_doc(q)))
    paths["space"] = tmp_path / "space.json"
    paths["space"].write_text(formats.dumps(formats.space_doc(left)))
    glue = glue_from_approximation(left, left, range(3), 0.4)
    paths["glue"] = tmp_path / "glue.json"
    paths["glue"].write_text(formats.dumps(formats.gluing_doc(glue)))
    paths["p_same"] = tmp_path / "p_same.json"
    paths["p_same"].write_text(formats.dumps(formats.pair_doc(MetricPair(left, left.subset([0])))))
    # two depth-2 tuples, and a chain of three copies of one pair
    rng = np.random.default_rng(4)
    for name in ("t", "u"):
        space = random_space(rng, 4, hi=2.0)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(formats.dumps(formats.tuple_doc(MetricTuple(space, (space.subset([0]),
                                                                                    space.subset([0, 2]))))))
    chain = {
        "pairs": [formats.pair_doc(p)] * 3,
        "glues": [formats.gluing_doc(glue)] * 2,
        "eps_budget": [0.5, 0.5],
    }
    paths["chain"] = tmp_path / "chain.json"
    paths["chain"].write_text(formats.dumps(chain))
    paths["tmp"] = tmp_path
    return paths


def test_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    space = random_space(rng, 4)
    again = formats.load_space({"labels": list(space.labels), "dist": space.dist.tolist(),
                                "tolerance": space.tol})
    assert same_space(space, again, tol=0.0)
    reparsed = formats.load_space(None, text=formats.dumps(formats.space_doc(space)))
    assert same_space(space, reparsed, tol=0.0)

    pair = MetricPair(space, space.subset([1, 3]))
    pair2 = formats.load_pair(None, text=formats.dumps(formats.pair_doc(pair)))
    assert same_space(pair.space, pair2.space, tol=0.0) and pair.a == pair2.a

    mt = MetricTuple(space, (space.subset([1]), space.subset([0, 1, 3])))
    mt2 = formats.load_tuple(None, text=formats.dumps(formats.tuple_doc(mt)))
    assert mt.chain == mt2.chain

    glue = glue_from_approximation(space, space, range(4), 0.3)
    glue2 = formats.load_gluing(None, text=formats.dumps(formats.gluing_doc(glue)))
    assert np.array_equal(glue.cross, glue2.cross) and glue.pseudo == glue2.pseudo


def test_csv_space_round_trip(tmp_path):
    space = line_space([0, 1, 2.5])
    path = tmp_path / "space.csv"
    path.write_text(formats.space_csv(space))
    again = formats.load_space(str(path))
    assert same_space(space, again, tol=0.0)


def test_validate_verb(docs, capsys):
    assert main(["validate", str(docs["space"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["valid"] is True

    bad = docs["tmp"] / "bad.csv"
    bad.write_text("a,b,c\n0,1,5\n1,0,1\n5,1,0\n")
    assert main(["validate", str(bad)]) == 2
    report = json.loads(capsys.readouterr().out)
    kinds = {(v["kind"], tuple(v["indices"])) for v in report["result"]["violations"]}
    assert ("triangle", (0, 1, 2)) in kinds


def test_hausdorff_verb_and_ambient_guard(docs, capsys):
    assert main(["hausdorff", str(docs["p"]), str(docs["p_same"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["distance"] >= 0
    assert main(["hausdorff", str(docs["p"]), str(docs["q"])]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "DifferentAmbient"


def test_gh_verb_deterministic_bytes(docs):
    out1 = docs["tmp"] / "r1.json"
    out2 = docs["tmp"] / "r2.json"
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3", "--out", str(out1)]) == 0
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["result"]["certificate"] is not None
    assert report["result"]["hi"] - report["result"]["lo"] <= 1e-3 + 1e-9
    assert "definition" in report


def test_gh_tuple_detection(docs, capsys):
    rng = np.random.default_rng(2)
    space = random_space(rng, 3, hi=2.0)
    mt = MetricTuple(space, (space.subset([0]), space.subset([0, 2])))
    t1 = docs["tmp"] / "t1.json"
    t1.write_text(formats.dumps(formats.tuple_doc(mt)))
    assert main(["gh", str(t1), str(t1), "--resolution", "1e-2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["hi"] <= 1e-2


def test_truncated_approx_isometry_exit_codes(docs, capsys):
    assert main(["gh-truncated", str(docs["p"]), str(docs["q"]), "--resolution", "1e-2"]) == 0
    capsys.readouterr()
    assert main(["approx", str(docs["p"]), str(docs["q"]), "--eps", "20"]) == 0
    capsys.readouterr()
    assert main(["approx", str(docs["p"]), str(docs["q"]), "--eps", "1e-6"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"found": False, "eps": 1e-6}
    assert main(["isometry", str(docs["p"]), str(docs["p"])]) == 0
    capsys.readouterr()
    assert main(["isometry", str(docs["p"]), str(docs["q"])]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("verb, flag", [("gh", "--resolution"), ("gh-truncated", "--resolution"),
                                        ("approx", "--resolution"), ("approx", "--eps")])
def test_nan_resolution_and_eps_are_input_errors(docs, capsys, verb, flag):
    assert main([verb, str(docs["p"]), str(docs["q"]), flag, "nan"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert "result" not in report
    assert report["error"]["kind"] == ("NonPositiveEpsilon" if flag == "--eps" else "PreconditionViolated")


@pytest.mark.parametrize("verb, flags", [("rough-isom", ["--eps", "0.4", "--R", "8"]),
                                         ("approx", ["--resolution", "1e-3"])])
def test_nan_tolerance_is_an_input_error(docs, capsys, verb, flags):
    doc = json.loads(docs["p"].read_text())
    doc["space"]["tolerance"] = float("nan")
    path = docs["tmp"] / "nan_tol.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads the NaN literal
    start = time.perf_counter()
    assert main([verb, str(path), str(path), *flags]) == 2
    assert time.perf_counter() - start < 1.0  # approx once bisected towards a NaN upper end forever
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "MetricValidationError"
    assert [v["kind"] for v in error["violations"]] == ["non_finite_tolerance"]


def _malformed(doc, case):
    """The text of pair document ``doc`` (three points, labels p0-p2) broken one way."""
    space = doc["space"]
    if case == "ragged dist":
        space["dist"] = [[0, 1], [1]]
    elif case == "string dist":
        space["dist"] = "zz"
    elif case == "string entries":
        space["dist"] = [[str(x) for x in row] for row in space["dist"]]
    elif case == "number labels":
        space["labels"] = 5
    elif case == "string tolerance":
        space["tolerance"] = "x"
    elif case == "string pseudo":
        space["pseudo"] = "no"
    elif case == "string subset":  # once read as the labels a and b
        space["labels"], doc["subset"] = ["a", "b", "c"], "ab"
    elif case == "huge entry":
        return json.dumps(doc).replace(json.dumps(space["dist"]), f"[[0, 1{'0' * 400}, 1], [1, 0, 1], [1, 1, 0]]")
    elif case == "overlong number":
        return json.dumps(doc).replace(json.dumps(space["dist"]), f"[[0, 1{'0' * 5000}]]")
    return json.dumps(doc)


@pytest.mark.parametrize("case", ["ragged dist", "string dist", "string entries", "number labels",
                                  "string tolerance", "string pseudo", "string subset", "huge entry",
                                  "overlong number", "not utf-8"])
def test_malformed_documents_are_parse_errors(docs, capsys, case):
    path = docs["tmp"] / "malformed.json"
    if case == "not utf-8":
        path.write_bytes(b"\xff\xfe\x00")
    else:
        path.write_text(_malformed(json.loads(docs["p"].read_text()), case))
    assert main(["hausdorff", str(path), str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert "result" not in report
    assert report["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("case", ["chain pairs of numbers", "chain pairs of strings", "CSV as gh input"])
def test_malformed_chain_and_gh_inputs_are_parse_errors(docs, capsys, case):
    if case == "CSV as gh input":
        path = docs["tmp"] / "space.csv"
        path.write_text(formats.space_csv(formats.load_space(str(docs["space"]))))
        argv, detail = ["gh", str(path), str(docs["q"]), "--resolution", "1e-2"], "pair documents must be JSON"
    else:
        doc = json.loads(docs["chain"].read_text())
        doc["pairs"] = [1, 2, 3] if case == "chain pairs of numbers" else ["p", "q", "r"]
        path = docs["tmp"] / "bad_pairs_chain.json"
        path.write_text(json.dumps(doc))
        argv, detail = ["chain", str(path), "--resolution", "1e-2"], "chain pair document needs 'space'"
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "ParseError", "detail": f"{path}: {detail}"}


def test_parser_is_built_once_and_reused(docs, capsys):
    assert build_parser() is build_parser()
    # a request with flags leaves none of them behind for the next one
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-2", "--budget", "4"]) == 3
    capsys.readouterr()
    assert main(["validate", str(docs["space"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verb"] == "validate" and report["params"] == {}


def test_rough_isom_verb(docs, capsys):
    assert main(["rough-isom", str(docs["p"]), str(docs["p"]), "--eps", "0.4", "--R", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["found"] is True


def test_counts_verb_json_and_csv(docs, capsys):
    assert main(["counts", str(docs["p"]), "--r", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    sample = report["result"]["samples"][0]
    assert {"outer_covering", "inner_covering", "packing", "separation"} <= set(sample)
    assert main(["counts", str(docs["p"]), "--grid", "0.5,1.0", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "r,outer_covering,inner_covering,packing,separation"
    assert len(text.splitlines()) == 3


def test_certify_family_verb(docs, capsys):
    assert main(["certify-family", str(docs["p"]), str(docs["p_same"]), "--grid", "0.4,0.8"]) == 0
    report = json.loads(capsys.readouterr().out)
    kinds = {p["kind"] for p in report["result"]["profiles"]}
    assert kinds == {"family-packing", "family-inner-covering"}
    assert main(["certify-family", str(docs["p"]), "--grid", "0.4", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert "kind,family-packing" in text and "kind,family-inner-covering" in text


def test_glue_and_check_lemma_verbs(docs, capsys):
    assert main(["glue", str(docs["glue"])]) == 0
    capsys.readouterr()
    assert main(["glue", str(docs["glue"]), str(docs["p"]), str(docs["p_same"]), "--eps", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["eps_report"]["verdict"] is True
    assert main(["glue", str(docs["glue"]), str(docs["p"]), str(docs["p_same"]), "--eps", "0.01"]) == 1
    capsys.readouterr()

    code = main([
        "check-lemma", str(docs["p_same"]), str(docs["p_same"]), str(docs["glue"]),
        "--eps", "0.45", "--r", "0.4", "--R", "2",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and "clauses" in report["result"]
    # an inadmissible combination is an input error, not a verdict
    assert main([
        "check-lemma", str(docs["p"]), str(docs["p_same"]), str(docs["glue"]),
        "--eps", "0.05", "--r", "0.4", "--R", "2",
    ]) == 2
    capsys.readouterr()


def test_chain_verb(docs, capsys):
    rng = np.random.default_rng(3)
    space = random_space(rng, 3, hi=1.5)
    pair = MetricPair(space, space.subset([0]))
    glue = glue_from_approximation(space, space, range(3), 0.4)
    chain_doc = {
        "pairs": [formats.pair_doc(pair)] * 3,
        "glues": [formats.gluing_doc(glue)] * 2,
        "eps_budget": [0.5, 0.5],
    }
    path = docs["tmp"] / "chain.json"
    path.write_text(formats.dumps(chain_doc))
    assert main(["chain", str(path), "--resolution", "1e-2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["all_dominated"] is True
    assert report["result"]["limit_subset"]
    # a gluing past the last pair is an input error, not an IndexError
    chain_doc["glues"].append({"cross": glue.cross.tolist()})  # sides omitted: read from the members
    path.write_text(formats.dumps(chain_doc))
    assert main(["chain", str(path), "--resolution", "1e-2"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ParseError"


def test_chain_gluing_errors_name_the_chain_file(docs, capsys):
    space = line_space([0.0, 1.0])
    pair = formats.pair_doc(MetricPair(space, space.subset([0])))
    glue = {"left": formats.space_doc(space), "right": formats.space_doc(space), "cross": "zz"}
    path = docs["tmp"] / "bad_glue_chain.json"
    path.write_text(formats.dumps({"pairs": [pair, pair], "glues": [glue], "eps_budget": [0.5]}))
    assert main(["chain", str(path), "--resolution", "1e-2"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "ParseError"
    assert error["detail"].startswith(f"{path}: ")
    assert "dist" not in error["detail"] and "[[" not in error["detail"]  # no matrix of the document


def test_budget_abort_exit_code(docs, capsys):
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3", "--budget", "4"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "SizeLimitExceeded"


def test_budget_env_override(docs, capsys, monkeypatch):
    monkeypatch.setenv("METRIC_PAIRS_BUDGET", "4")
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3"]) == 3
    capsys.readouterr()
    # an explicit flag wins over the environment
    monkeypatch.setenv("METRIC_PAIRS_BUDGET", "4")
    assert main(["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3",
                 "--budget", "10000000"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("env, flag", [("abc", None), ("1e6", None), ("0", None), (None, "0"), (None, "-3")])
def test_budget_must_be_a_positive_integer(docs, capsys, monkeypatch, env, flag):
    if env is not None:
        monkeypatch.setenv("METRIC_PAIRS_BUDGET", env)
    argv = ["gh", str(docs["p"]), str(docs["q"]), "--resolution", "1e-3"]
    assert main(argv + (["--budget", flag] if flag else [])) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "PreconditionViolated" and "budget" in error["detail"]


def test_module_entry_point(docs):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "metric_pairs", "validate", str(docs["space"])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["valid"] is True


def test_missing_file_is_input_error(docs, capsys):
    assert main(["validate", str(docs["tmp"] / "nope.json")]) == 2
    capsys.readouterr()


def test_report_path_in_a_missing_directory_is_input_error(docs, capsys):
    out = docs["tmp"] / "nodir" / "x.json"
    assert main(["validate", str(docs["space"]), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    report = json.loads(stdout)
    assert report["error"]["kind"] == "FileNotFoundError" and "result" not in report
    assert err == "" and not out.parent.exists()


def test_glue_pseudo_flag(docs, capsys):
    space = formats.load_space(str(docs["space"]))
    doc = {
        "left": formats.space_doc(space),
        "right": formats.space_doc(space),
        "cross": space.dist.tolist(),  # zero cross entries on the diagonal
    }
    path = docs["tmp"] / "pseudo.json"
    path.write_text(formats.dumps(doc))
    assert main(["glue", str(path)]) == 2  # zero entries rejected by default
    capsys.readouterr()
    assert main(["glue", str(path), "--pseudo"]) == 0
    capsys.readouterr()


def test_glue_eps_needs_the_two_pair_documents(docs, capsys):
    assert main(["glue", str(docs["glue"]), "--eps", "0.0001"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "ParseError" and "two pair documents" in error["detail"]


def test_pair_document_without_subset_is_parse_error(docs, capsys):
    doc = formats.pair_doc(formats.load_pair(str(docs["p"])))
    del doc["subset"]
    path = docs["tmp"] / "no_subset.json"
    path.write_text(formats.dumps(doc))
    assert main(["gh", str(path), str(docs["q"]), "--resolution", "1e-3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "ParseError"
    assert "subset" in report["error"]["detail"]


def test_gh_resolution_below_certificate_slack_is_input_error(docs, capsys):
    rng = np.random.default_rng(7)
    paths = []
    for name, idx in (("big_p", [0, 1]), ("big_q", [2])):
        space = random_space(rng, 4, lo=1e5, hi=1e6)
        path = docs["tmp"] / f"{name}.json"
        path.write_text(formats.dumps(formats.pair_doc(MetricPair(space, space.subset(idx)))))
        paths.append(str(path))
    assert main(["gh", *paths, "--resolution", "1e-3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "PreconditionViolated"
    assert "result" not in report


def test_point_cap_is_not_reported_as_a_budget_abort(tmp_path, capsys):
    big = line_space(np.arange(63.0))
    path = tmp_path / "big.json"
    path.write_text(formats.dumps(formats.pair_doc(MetricPair(big, big.subset([0])))))
    assert main(["isometry", str(path), str(path)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "SizeLimitExceeded"
    assert "62 points" in error["detail"] and "budget" not in error["detail"]


# every verb's stdout and exit code on the fixture documents: reports are
# byte-deterministic, so a front-end change that alters any byte fails here
PINNED_VERBS = {
    "validate": ("validate @space", 0,
                 "472d84368efca504a7774c89517568267acc35c8460208a8f6c4f376f262e2f3"),
    "hausdorff": ("hausdorff @p @p_same", 0,
                  "55162a1cd1a489661b999531c31544780c4e2d5c78962bbf3f1e1f6c8622f6b6"),
    "gh": ("gh @p @q --resolution 1e-3", 0,
           "57c934f9044c21c7b97d0c0236b1336cc2ab581b64efcea2657263ddf56d213f"),
    "gh-tuple": ("gh @t @u --resolution 1e-2", 0,
                 "9a4795dbd2561ff45ea9aaa604b7470989847467d1c0050208cca3afeda7b77d"),
    "gh-truncated": ("gh-truncated @p @q --resolution 1e-2", 0,
                     "fb74807ddf60076b54ae78bea139a3da737891ba11faf3e6a5fb48cea12fe0b2"),
    "approx": ("approx @p @q --eps 20", 0,
               "e7a1472e77ebd36e0a33be5cb3a5906f4c9797ab61f14047465a9a37be435599"),
    "approx-min": ("approx @p @q --resolution 1e-2", 0,
                   "beb630df7fc38c23d0aa6608ed3ee66e06b144cc156ee3c28715b474e67cc7a2"),
    "rough-isom": ("rough-isom @p @p --eps 0.4 --R 8", 0,
                   "f5c6338dc87cfa126c8ef7d26905a0eae725252966d866372fbc7880205a4c7d"),
    "counts": ("counts @p --grid 0.5,1.0", 0,
               "9dd311bb14e4889a6259aa8b3f7a1517e382120ee51fbe58c4051214f871dd96"),
    "counts-csv": ("counts @p --grid 0.5,1.0 --format csv", 0,
                   "28ba23a5c487db803cf6f8140691b4736e36112c720ae4ba9d5ada7dc8bb5147"),
    "certify-family": ("certify-family @p @p_same --grid 0.4,0.8 --format csv", 0,
                       "26c8e042b0d79d2d48521315987e17965d92bb65e58ca0d26e1ca2b0649cd917"),
    "check-lemma": ("check-lemma @p_same @p_same @glue --eps 0.45 --r 0.4 --R 2", 0,
                    "aced20cf5fc1c4bce8950b0d469bf7b4f6cbe862eff04c42f29af0a08c6737ed"),
    "glue": ("glue @glue @p @p_same --eps 1.0", 0,
             "5a2d7fc6515ec2f0bd8fd5e91bd130ad1217869c352c056037837cf5f66abfbe"),
    "chain": ("chain @chain --resolution 1e-2", 0,
              "6fc079ce953514ce3d61c43b5151dd3a189f0b732a6f5bbf90680f47040f7ec2"),
    "isometry": ("isometry @p @q", 1,
                 "ac8176cbd846299c89d7d7b2426596a32765c82e18beae651e3d9e28564ac811"),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERBS))
def test_verb_reports_keep_their_pinned_bytes(docs, capsys, name):
    argv, code, digest = PINNED_VERBS[name]
    assert main([str(docs[w[1:]]) if w.startswith("@") else w for w in argv.split()]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# each verb's input count and required flags
VERB_ARGS = {
    "validate": "1", "hausdorff": "2", "gh": "2 --resolution 1e-3", "gh-truncated": "2 --resolution 1e-3",
    "approx": "2 --eps 0.5", "rough-isom": "2 --eps 0.4 --R 8", "counts": "1 --r 0.5",
    "certify-family": "2 --grid 0.4", "check-lemma": "3 --eps 0.4 --r 0.4 --R 2", "glue": "1",
    "chain": "1 --resolution 1e-2", "isometry": "2",
}


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_errors_are_json_reports_under_format_csv(docs, capsys, verb):
    inputs, *flags = VERB_ARGS[verb].split()
    missing = [str(docs["tmp"] / "missing.json")] * int(inputs)
    assert main([verb, *missing, *flags, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["error"]["kind"] == "FileNotFoundError" and "result" not in report
    assert err == ""


@pytest.mark.parametrize("extra", [[], ["p", "p_same"], ["--pseudo"]])
def test_glue_errors_name_the_gluing_file(docs, capsys, extra):
    doc = formats.gluing_doc(formats.load_gluing(str(docs["glue"])))
    del doc["cross"]
    path = docs["tmp"] / "no_cross.json"
    path.write_text(formats.dumps(doc))
    assert main(["glue", str(path), *[str(docs[w]) if w in docs else w for w in extra]]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "ParseError"
    assert error["detail"] == f"{path}: gluing document needs 'cross'"
