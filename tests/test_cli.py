"""End-to-end tests for the command-line front end."""

import ast
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

import magtop
from magtop import cli, docs, morse
from magtop.docs import DocumentError
from magtop.homology import ChainComplex, HomologySummary, face_complex
from magtop.series import EulerReport, HahnPolynomial
from simplicial import RP2


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_magnitude_table(capsys):
    code, out, _ = run(capsys, ["magnitude", "fixture:two_point", "--lmax", "3"])
    assert code == 0
    assert out.splitlines() == [
        "Mag = 2 - 2 q^1 + 2 q^2 - 2 q^3",
        "w(a) = 1 - q^1 + q^2 - q^3",
        "w(b) = 1 - q^1 + q^2 - q^3",
    ]


def test_magnitude_json(capsys):
    code, out, _ = run(
        capsys,
        ["magnitude", "fixture:two_point", "--lmax", "3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["magnitude"] == "2 - 2 q^1 + 2 q^2 - 2 q^3"
    assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)


def test_homology_table_and_total(capsys):
    code, out, _ = run(capsys, ["homology", "fixture:c4", "--l", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# homology at length 2"
    assert lines[1] == "# from to k betti torsion"
    assert lines[-1] == "* * 2 12 -"


def test_homology_deterministic_and_parallel(capsys):
    argv = ["homology", "fixture:c4", "--l", "2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, parallel, _ = run(capsys, argv + ["--jobs", "3"])
    assert parallel == first


def test_parallel_output_on_fractional_distances(capsys, tmp_path):
    # a 4-cycle with edge weights 1/2, 2/3, 3/4, 1: distances in twelfths;
    # each worker process gets its space, and the space's scaled integer
    # distances, by pickling
    doc = {
        "type": "matrix",
        "labels": ["a", "b", "c", "d"],
        "dist": [
            ["0", "1/2", "7/6", "1"],
            ["1/2", "0", "2/3", "17/12"],
            ["7/6", "2/3", "0", "3/4"],
            ["1", "17/12", "3/4", "0"],
        ],
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["homology", str(path), "--l", "5/2"],
        ["verify", "chain-iso", str(path), "--lmax", "2"],
    ):
        code, serial, _ = run(capsys, argv + ["--jobs", "1"])
        assert code == 0
        assert len(serial.splitlines()) > 3
        code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert parallel == serial


def test_homology_unreachable_length(capsys):
    code, out, _ = run(capsys, ["homology", "fixture:k3", "--l", "7/2"])
    assert code == 0
    assert out == (
        "# no rows: length 7/2 is not achievable for the selected pairs"
        " (try: magtop lengths)\n"
    )


def test_homology_pair_selection(capsys):
    code, out, _ = run(
        capsys,
        ["homology", "fixture:c4", "--l", "2", "--from", "a", "--to", "b"],
    )
    assert code == 0
    body = [
        line for line in out.splitlines() if not line.startswith(("#", "*"))
    ]
    assert body == ["a b 2 1 -"]


def test_homology_searches_lengths_up_to_the_first_pair_that_reaches_l(
    capsys, monkeypatch
):
    calls = []
    full = cli.pair_achievable_lengths

    def counted(space, a, b, l):
        calls.append((a, b))
        return full(space, a, b, l)

    monkeypatch.setattr(cli, "pair_achievable_lengths", counted)
    # on the 4-cycle a c b d, length 1 leads from a to c and d only
    code, out, _ = run(capsys, ["homology", "fixture:c4", "--l", "1", "--from", "a"])
    assert code == 0
    assert out.splitlines()[2:] == ["a c 1 1 -", "a d 1 1 -", "* * 1 2 -"]
    assert calls == [(0, 0), (0, 1), (0, 2)]
    # no pair reaches l: every pair is searched before the no-rows line
    calls.clear()
    code, out, _ = run(capsys, ["homology", "fixture:k3", "--l", "7/2"])
    assert code == 0 and out.startswith("# no rows: length 7/2")
    assert calls == [(a, b) for a in range(3) for b in range(3)]


def test_homology_enumerates_only_the_pairs_that_reach_l(capsys, monkeypatch):
    # the 4-cycle a c b d is bipartite: at odd l only the pairs at odd
    # distance have sequences, and the other eight are never enumerated
    homology_module = importlib.import_module("magtop.homology")
    calls = []
    full = homology_module.lightlike_sequences

    def counted(space, a, b, l):
        calls.append((a, b))
        return full(space, a, b, l)

    monkeypatch.setattr(homology_module, "lightlike_sequences", counted)
    code, out, _ = run(capsys, ["homology", "fixture:c4", "--l", "3", "--jobs", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "* * 3 16 -"
    c4 = docs.space_from_doc(docs.load_fixture("c4"))
    assert calls == [(a, b) for a in range(4) for b in range(4) if c4.dist[a][b] % 2]


def test_homology_of_a_deep_sequence(capsys, tmp_path):
    # the one a -> a sequence of length 2 over steps of 1/1000 has 2001
    # points, far past the interpreter's recursion limit
    doc = {"type": "matrix", "labels": ["a", "b"],
           "dist": [["0", "1/1000"], ["1/1000", "0"]]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, ["homology", str(path), "--l", "2", "--from", "a", "--to", "a"]
    )
    assert code == 0
    assert out.splitlines() == [
        "# homology at length 2",
        "# from to k betti torsion",
        "a a 2000 1 -",
        "* * 2000 1 -",
    ]


def test_lengths(capsys):
    code, out, _ = run(capsys, ["lengths", "fixture:two_point", "--lmax", "3"])
    assert code == 0
    assert out.splitlines() == ["0", "1", "2", "3"]


def test_critical_cells(capsys):
    code, out, _ = run(
        capsys, ["critical-cells", "fixture:mv_triangles", "--l", "1"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# critical cells at length 1: 8"
    assert lines[1] == "dim 1: 8"
    assert "  p:0 q:1" in lines


@pytest.mark.parametrize(
    "l, extra, lines, digest",
    [
        (
            "2",
            [],
            179,
            "3fc43db0ac39e2c5e75da18d81534811f2867c0ae99d0d4e5ae65209cf23f4b5",
        ),
        (
            "2",
            ["--format", "json"],
            186,
            "c2c56d42161b0fbfadb7b7e4360d5a81bbb4254501bbea77602539fcd5c83a2c",
        ),
        (
            "3",
            [],
            636,
            "8cedcaed8d4a9958a1ca58859f3b961522fca6b7eef9d52bbbb03e39d02d73ef",
        ),
        (
            "3",
            ["--format", "json"],
            644,
            "9eb22956bc0e39273055fb4f86a41569eff204cf0e2ce79f410deafc1776d138",
        ),
    ],
)
def test_critical_cells_pinned_output(capsys, l, extra, lines, digest):
    # within dimension 2 at l = 3, sorting the sequences and sorting their
    # stamps give different orders, so the printer must sort by stamp
    code, out, _ = run(
        capsys, ["critical-cells", "fixture:sycamore_gluing", "--l", l] + extra
    )
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SUBCOMMAND_CASES = {
    "magnitude": ["magnitude", "fixture:two_point", "--lmax", "3"],
    "homology-rows": ["homology", "fixture:c4", "--l", "2"],
    "homology-pair": ["homology", "fixture:c4", "--l", "2", "--from", "a", "--to", "b"],
    "homology-vanish": ["homology", "fixture:p3", "--l", "2", "--from", "a", "--to", "c"],
    "homology-unreachable": ["homology", "fixture:k3", "--l", "7/2"],
    "lengths": ["lengths", "fixture:k3", "--lmax", "3"],
    "frames-pair": ["frames", "fixture:k4", "--l", "3", "--from", "a", "--to", "b"],
    "frames-none": ["frames", "fixture:p2", "--l", "2", "--from", "a", "--to", "b"],
    "frames-thin": ["frames", "fixture:c4", "--l", "2"],
    "hasse": ["hasse", "fixture:triangle_boundary"],
}

SUBCOMMAND_PINS = {
    ("frames-none", "json"): (0, "7256360e0c4f9b86fdec50c6730abc5547d08edf5f8f0b56d153821a17623645"),
    ("frames-none", "table"): (0, "bb5c25a1226e763b2097bbf9c56f1e9ad5bedd56361df638b9ca23451f7d976e"),
    ("frames-pair", "json"): (0, "f8f1f146bdfff9dd503e8b672cdf22d359c5ecee9740c45f8645ce2a96dd7e75"),
    ("frames-pair", "table"): (0, "f90bd65833e459550d7a97a6fcf5c10e5492b3401b348ccc3ae310b0b970a5d4"),
    ("frames-thin", "json"): (0, "c96df81c229c9871f5b5cf009e77a3d8c6a4208ad13207d04f690bb8faed1290"),
    ("frames-thin", "table"): (0, "5c1f04cd6f70c13802431749b84382ff36c257a5798ab16fea091b0f84c85564"),
    ("hasse", "json"): (0, "172368b6f3c927a3f35399a517f341fcf5b13ad16671eba7ec787348eedfd923"),
    ("hasse", "table"): (0, "172368b6f3c927a3f35399a517f341fcf5b13ad16671eba7ec787348eedfd923"),
    ("homology-pair", "json"): (0, "5f8eb9233774041ba8d709190a09f1303597fd7b6b5ce5c3a0dee751a963a72e"),
    ("homology-pair", "table"): (0, "3efd8ebba1165d75905cffa1b6d0f13d4e9d1fe1c66985761ce51a91419db92b"),
    ("homology-rows", "json"): (0, "1dfc0c44c361522ea99645bad9f398fbe2ea9f4e5955ba2b1593aff39f2387c1"),
    ("homology-rows", "table"): (0, "ffd6dc3bfc32f63e3878e55f6af5c620da0aee142f5fd6b5a52f8fbc4cd84d0e"),
    ("homology-unreachable", "json"): (0, "f3dba425cbe8c5453bd3a626092b58b86ae3529b1ca7d692af53f55d5d216503"),
    ("homology-unreachable", "table"): (0, "062ad57fa26a0d31807826bdd700e9519102fa4f420c7fbc05b2122929f9f725"),
    ("homology-vanish", "json"): (0, "f9f62a0cac880ba963c066c595d3e0e8012a6ae552698da2c6b123ad6c2bc792"),
    ("homology-vanish", "table"): (0, "b2ea4ff41428d5a17477cb3ac91ee0dd954a0ca5589df96ef2cd246b1136bf8e"),
    ("lengths", "json"): (0, "e77fab783d83484e3c17165f645e9b0fa4f5adf8ec8b322ca8f800780ea2c8a7"),
    ("lengths", "table"): (0, "e169bdf59fac30d230f7d21be511d04dc8cc61e5edb1d8255758bc220ba3d4c7"),
    ("magnitude", "json"): (0, "54fe3db82743de455b0aaa074782ce25baa1bb7b5b2ae73f04824cde282238d9"),
    ("magnitude", "table"): (0, "72b6fcc1925a0cb5a1cf59b811c64439837a4ee55bb0f3226f06711ce3e8e853"),
}


@pytest.mark.parametrize("case, fmt", sorted(SUBCOMMAND_PINS))
def test_subcommand_output_pinned(capsys, case, fmt):
    # hasse prints its graph document in either format
    code, out, _ = run(capsys, SUBCOMMAND_CASES[case] + ["--format", fmt])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUBCOMMAND_PINS[
        case, fmt
    ]


def test_frames_endpoint_mode(capsys):
    code, out, _ = run(
        capsys, ["frames", "fixture:k3", "--l", "2", "--from", "a", "--to", "b"]
    )
    assert code == 0
    assert out.splitlines() == [
        "# 1 frames from a to b at length 2",
        "a c b",
        "# predicted betti",
        "k=2: 1",
    ]


def test_frames_thin_mode(capsys):
    code, out, _ = run(capsys, ["frames", "fixture:p2", "--l", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# 4 thin frames at length 1"
    assert lines[1] == "degree 1: 4"
    assert sorted(lines[2:]) == ["a c", "b c", "c a", "c b"]


def test_frames_from_without_to_is_an_error(capsys):
    code, _, err = run(
        capsys, ["frames", "fixture:k3", "--l", "1", "--from", "a"]
    )
    assert code == 2
    assert "give both --from and --to" in err


def test_hasse_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, ["hasse", "fixture:triangle_boundary"])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "graph"
    assert len(doc["vertices"]) == 8
    assert doc["suggested"] == {"from": "0hat", "to": "1hat", "l": 3}
    path = tmp_path / "graph.json"
    path.write_text(out)
    code, out, _ = run(
        capsys,
        [
            "homology",
            str(path),
            "--l",
            "3",
            "--from",
            "0hat",
            "--to",
            "1hat",
        ],
    )
    assert code == 0
    body = [
        line for line in out.splitlines() if not line.startswith(("#", "*"))
    ]
    assert body == ["0hat 1hat 3 1 -"]



def test_moore_fixture_carries_z3_torsion(capsys, tmp_path):
    # M(Z/3, 1): 27 triangles on 13 vertices, 81 faces with 0hat and 1hat
    code, out, _ = run(capsys, ["hasse", "fixture:moore_z3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "graph"
    assert len(doc["vertices"]) == 81
    graph = tmp_path / "moore_z3_hasse.json"
    graph.write_text(out)
    argv = ["homology", str(graph), "--l", "4", "--from", "0hat", "--to", "1hat"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "0hat 1hat 3 0 3" in out.splitlines()

def test_torsion_rows_survive_the_process_pool(capsys, tmp_path):
    facets = tmp_path / "rp2.json"
    facets.write_text(json.dumps(
        {"type": "complex", "facets": [[str(v) for v in t] for t in RP2]}
    ))
    code, out, _ = run(capsys, ["hasse", str(facets)])
    assert code == 0
    graph = tmp_path / "rp2_hasse.json"
    graph.write_text(out)
    argv = ["homology", str(graph), "--from", "0hat", "--l", "4"]
    code, serial, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    assert "0hat 1hat 3 0 2" in serial.splitlines()
    code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert code == 0
    assert parallel == serial


def test_verify_chain_iso(capsys):
    code, out, _ = run(
        capsys, ["verify", "chain-iso", "fixture:two_point", "--lmax", "2"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "PASS: 6 cases"


def test_verify_suspension_skips_zero_length(capsys):
    code, out, _ = run(
        capsys, ["verify", "suspension", "fixture:two_point", "--lmax", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "length 1: 2 cases" in lines
    assert not any(line.startswith("length 0") for line in lines)
    assert lines[-1] == "PASS: 4 cases"


def test_verify_union_table(capsys):
    code, out, _ = run(
        capsys, ["verify", "union", "fixture:mv_triangles", "--lmax", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# union additivity"
    assert "l=2 k=2: 14 vs 14 ok" in lines
    assert lines[-1].startswith("PASS")


def test_verify_sycamore_table(capsys):
    code, out, _ = run(
        capsys, ["verify", "sycamore", "fixture:sycamore_twist", "--lmax", "1"]
    )
    assert code == 0
    assert out.splitlines() == [
        "# sycamore up to length 1",
        "l=0 dim=0: 10 vs 10 ok",
        "l=1 dim=1: 30 vs 30 ok",
        "PASS: bijection, Euler counts, and magnitude agree up to q^1",
    ]


def test_verify_kunneth_wants_two_inputs(capsys):
    code, _, err = run(
        capsys, ["verify", "kunneth", "fixture:two_point", "--lmax", "1"]
    )
    assert code == 2
    assert "wants 2 input document(s)" in err


def test_fixture_refuses_paths(capsys, tmp_path):
    # a fixture is a plain name: a path, even one that reaches a shipped
    # fixture or a file that is no UTF-8, is an unknown fixture
    shipped = os.path.join(os.path.dirname(magtop.__file__), "fixtures", "k3")
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe")
    for name in (shipped, "../fixtures/k3", str(tmp_path / "latin")):
        code, out, err = run(capsys, ["lengths", "fixture:" + name, "--lmax", "1"])
        assert (code, out) == (2, "")
        assert err == "error: unknown fixture %r\n" % (name,)


def refusal(name):
    """The message of load_fixture's refusal of a name."""
    with pytest.raises(DocumentError) as info:
        magtop.load_fixture(name)
    return str(info.value)


def test_load_fixture_refuses_paths(tmp_path):
    # the plain-name rule holds for every caller, not only the CLI
    (tmp_path / "outside.json").write_text('{"type": "graph"}')
    for name in (str(tmp_path / "outside"), "../fixtures/k3", "..\\fixtures\\k3"):
        assert refusal(name) == "unknown fixture %r" % (name,)
    assert magtop.load_fixture("k3")["type"] == "graph"


def test_load_fixture_refuses_a_missing_name():
    assert refusal("styrofoam") == "unknown fixture 'styrofoam'"


def test_load_fixture_refuses_bad_json(tmp_path, monkeypatch):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "broken.json").write_text('{"type": ')
    monkeypatch.setattr(docs, "resources", SimpleNamespace(files=lambda package: tmp_path))
    assert refusal("broken") == "unknown fixture 'broken'"


def test_random_space_inputs(capsys):
    code, out, _ = run(
        capsys, ["lengths", "random:4", "--lmax", "2", "--seed", "7"]
    )
    assert code == 0
    assert out.splitlines()[0] == "0"
    code, _, err = run(capsys, ["lengths", "random:0", "--lmax", "1"])
    assert code == 2
    code, _, err = run(capsys, ["lengths", "random:x", "--lmax", "1"])
    assert code == 2


def test_exit_parse_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["lengths", "/nope/missing.json", "--lmax", "1"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["lengths", "fixture:styrofoam", "--lmax", "1"])
    assert code == 2 and "unknown fixture" in err
    code, _, err = run(capsys, ["homology", "fixture:k3", "--l", "-1"])
    assert code == 2 and "nonnegative" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["lengths", str(bad), "--lmax", "1"])
    assert code == 2 and "invalid JSON" in err
    for argv in (
        ["homology", "fixture:k3", "--l", "1", "--jobs", "0"],
        ["verify", "chain-iso", "fixture:k3", "--lmax", "1", "--jobs", "-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error: argument --jobs" in capsys.readouterr().err


def _edited(fixture, **fields):
    """The fixture's document with the given fields replaced, as bytes."""
    return json.dumps(dict(magtop.load_fixture(fixture), **fields)).encode()


def _matrix(dist):
    """A two-point matrix document with the given distance rows, as bytes."""
    return json.dumps({"type": "matrix", "labels": ["a", "b"], "dist": dist}).encode()


def _long_int_matrix():
    # json.load refuses an integer one digit past the int-string limit
    big = "1" * (sys.get_int_max_str_digits() + 1)
    return ('{"type": "matrix", "labels": ["a", "b"], "dist": [[0, %s], [%s, 0]]}' % (big, big)).encode()


LENGTHS = ["lengths", "DOC", "--lmax", "1"]

# malformed inputs: (argv with DOC for the document's path, its bytes,
# exit code, a phrase of the error line)
MALFORMED = {
    "gluing-list-critical-cells": (["critical-cells", "DOC", "--l", "1"], b"[1, 2]", 2, "not a gluing document"),
    "gluing-list-union": (["verify", "union", "DOC", "--lmax", "1"], b"[]", 2, "not a gluing document"),
    "gluing-list-mv": (["verify", "mv", "DOC", "--lmax", "1"], b"[]", 2, "not a gluing document"),
    "twist-list": (["verify", "sycamore", "DOC", "--lmax", "1"], b"[]", 2, "not a twist document"),
    "complex-list": (["hasse", "DOC"], b'["a", "b"]', 2, "not a complex document"),
    "graph-edges-not-list": (
        ["lengths", "DOC", "--lmax", "1"],
        b'{"type": "graph", "vertices": ["a", "b"], "edges": 5}',
        2,
        "edges must be a list",
    ),
    "not-utf8": (["lengths", "DOC", "--lmax", "1"], b'{"type": "\xff"}', 2, "not UTF-8"),
    "deep-nesting": (["lengths", "DOC", "--lmax", "1"], b"[" * 100000 + b"]" * 100000, 2, "nests too deeply"),
    "twist-short-k-in-h": (
        ["verify", "sycamore", "DOC", "--lmax", "1"],
        _edited("sycamore_twist", k_in_h=["p"]),
        3,
        "K index lists differ in length",
    ),
    # "²" passes str.isdigit, and int refuses it
    "random-superscript-count": (["lengths", "random:\u00b2", "--lmax", "1"], b"", 2, "positive point count"),
    "int-past-limit": (["lengths", "DOC", "--lmax", "1"], _long_int_matrix(), 2, "invalid JSON"),
    # int() reads "1_0" as 10 and the Arabic-Indic "١" as 1
    "rational-underscore-arg": (["lengths", "fixture:k3", "--lmax", "1_0"], b"", 2, "bad rational"),
    "rational-non-ascii-arg": (["lengths", "fixture:k3", "--lmax", "\u0661"], b"", 2, "bad rational"),
    "rational-underscore-matrix": (
        ["lengths", "DOC", "--lmax", "1"],
        b'{"type": "matrix", "labels": ["a", "b"], "dist": [[0, "1_0"], ["1_0", 0]]}',
        2,
        "bad rational",
    ),
    "rational-boolean": (LENGTHS, _matrix([[0, True], [True, 0]]), 2, "booleans are not numbers"),
    "rational-decimal": (LENGTHS, _matrix([[0, 1.5], [1.5, 0]]), 2, "decimal notation"),
    "rational-zero-denominator": (LENGTHS, _matrix([[0, "1/0"], ["1/0", 0]]), 2, "bad rational '1/0'"),
    "rational-two-slashes": (LENGTHS, _matrix([[0, "1/2/3"], ["1/2/3", 0]]), 2, "bad rational '1/2/3'"),
    "rational-object": (LENGTHS, _matrix([[0, {}], [{}, 0]]), 2, "bad rational {}"),
    "matrix-no-dist": (LENGTHS, b'{"type": "matrix", "labels": ["a"]}', 2, "matrix document needs 'dist'"),
    "space-list": (LENGTHS, b"[]", 2, "space document must be an object"),
    "matrix-int-labels": (
        LENGTHS, b'{"type": "matrix", "labels": [1, 2], "dist": []}', 2, "labels must be strings"
    ),
    "matrix-flat-dist": (
        LENGTHS, b'{"type": "matrix", "labels": ["a"], "dist": [0]}', 2, "dist must be a list of rows"
    ),
    "graph-int-vertices": (
        LENGTHS, b'{"type": "graph", "vertices": [1], "edges": []}', 2, "vertices must be strings"
    ),
    "graph-short-edge": (
        LENGTHS,
        b'{"type": "graph", "vertices": ["a", "b"], "edges": [["a", "b"]]}',
        2,
        "edge must be [u, v, weight]",
    ),
    "graph-int-endpoint": (
        LENGTHS,
        b'{"type": "graph", "vertices": ["a", "b"], "edges": [[1, "b", 1]]}',
        2,
        "edge endpoints must be labels",
    ),
    "space-unknown-type": (LENGTHS, b'{"type": "tree"}', 2, "unknown space document type 'tree'"),
    "gluing-k-not-list": (
        ["verify", "mv", "DOC", "--lmax", "1"], _edited("mv_triangles", k_in_g="p"), 2, "k_in_g must be a label list"
    ),
    "twist-alpha-booleans": (
        ["verify", "sycamore", "DOC", "--lmax", "1"],
        _edited("sycamore_twist", alpha=[True, False]),
        2,
        "alpha must be a list of positions",
    ),
    "complex-facets-not-lists": (
        ["hasse", "DOC"], b'{"type": "complex", "facets": ["ab"]}', 2, "facets must be a list of vertex lists"
    ),
    "complex-int-vertex": (
        ["hasse", "DOC"], b'{"type": "complex", "facets": [[1, 2]]}', 2, "facet vertices must be strings"
    ),
    "complex-repeated-vertex": (
        ["hasse", "DOC"], b'{"type": "complex", "facets": [["a", "a"]]}', 2, "bad facet list"
    ),
    "complex-no-facets": (["hasse", "DOC"], b'{"type": "complex", "facets": []}', 2, "bad facet list"),
    "complex-0hat-vertex": (
        ["hasse", "DOC"], b'{"type": "complex", "facets": [["0hat", "b"]]}', 2, "bad facet list"
    ),
    "matrix-not-square": (LENGTHS, _matrix([[0, 1], [1]]), 3, "shape does not match label count"),
    "matrix-nonzero-diagonal": (LENGTHS, _matrix([[1, 1], [1, 0]]), 3, "d(a,a) = 1 != 0"),
    "matrix-negative-distance": (LENGTHS, _matrix([[0, -1], [-1, 0]]), 3, "d(a,b) < 0"),
    "graph-empty": (
        LENGTHS, b'{"type": "graph", "vertices": [], "edges": []}', 3, "empty metric spaces are rejected"
    ),
    "graph-duplicate-vertices": (
        LENGTHS, b'{"type": "graph", "vertices": ["a", "a"], "edges": []}', 3, "duplicate vertex labels"
    ),
    "gluing-k-not-injective": (
        ["verify", "mv", "DOC", "--lmax", "1"],
        _edited("mv_triangles", k_in_g=["p", "p"]),
        3,
        "K index lists must be injective",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_exit_malformed_documents(tmp_path, case):
    # run as a process: an exception escaping main would exit 1, the FAIL
    # code, with a traceback
    argv, body, want, phrase = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_bytes(body)
    argv = [str(path) if arg == "DOC" else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    run_ = subprocess.run(
        [sys.executable, "-m", "magtop.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert run_.returncode == want
    assert run_.stdout == ""
    assert "Traceback" not in run_.stderr
    assert run_.stderr.startswith("error: ") and phrase in run_.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_quietly(unbuffered):
    # the reader closes before any output, so every write hits a closed
    # pipe, whether it happens inside a print or at the final flush
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "magtop.cli", "lengths", "fixture:k3", "--lmax", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.PIPE_CODE
    assert err == b""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_stdout_closed_mid_table_exits_quietly(unbuffered):
    # 345 KB of table outgrow the pipe's buffer, so once the reader has
    # closed after the first line a later write fails while printing
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    argv = ["critical-cells", "fixture:sycamore_gluing", "--l", "5"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "magtop.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"# critical cells at length 5: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.PIPE_CODE
    assert err == b""


def test_exit_metric_error(capsys, tmp_path):
    doc = {
        "type": "matrix",
        "labels": ["a", "b"],
        "dist": [["0", "1"], ["2", "0"]],
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["lengths", str(path), "--lmax", "1"])
    assert code == 3
    assert "d(a,b) != d(b,a)" in err


def test_exit_unknown_label(capsys):
    code, _, err = run(
        capsys, ["homology", "fixture:k3", "--l", "1", "--from", "zzz"]
    )
    assert code == 4
    assert err.strip() == "error: unknown label 'zzz'"


def test_exit_refused_not_gated(capsys):
    code, out, _ = run(
        capsys, ["verify", "mv", "fixture:sycamore_gluing", "--lmax", "1"]
    )
    assert code == 5
    assert out.strip() == (
        "refused: gluing is not gated (3 neutral interior points, e.g. h3)"
    )


def test_exit_refused_obstruction(capsys):
    code, _, err = run(
        capsys, ["frames", "fixture:c4", "--l", "3", "--from", "a", "--to", "b"]
    )
    assert code == 5
    assert "refused:" in err and "threshold 3" in err


def test_exit_mismatch_on_failing_check(capsys, monkeypatch):
    # structural identities hold on every valid input, so a mismatch is
    # only reachable by stubbing the checker
    def broken(space, lmax):
        return EulerReport(False, 1, ())

    monkeypatch.setattr(cli, "euler_check", broken)
    code, out, _ = run(
        capsys, ["verify", "euler", "fixture:k3", "--lmax", "1"]
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


def _identity_reverse(real):
    """SycamoreTwist.reverse handing back the identity twist of x, which
    maps no moved cell back."""

    def reverse(twist):
        x = twist.x
        return morse.SycamoreTwist(x.g, x.h, x.k_in_g, x.k_in_h, range(len(twist.alpha)))

    return reverse


def _torsion_in_products(real):
    """magnitude_chain_complex giving Z/2 in degree 0, and no Betti number,
    on the product space, whose points are named "(x,y)"; the factors keep
    their real complexes."""
    z2 = ChainComplex({0: ["a"], 1: ["b"]}, {1: [{0: 2}]})

    def stub(space, a, b, l):
        return z2 if space.labels[0].startswith("(") else real(space, a, b, l)

    return stub


def _counted_magnitude(real):
    """magnitude giving 0 on the first space and 1 on the second."""
    calls = iter(range(2))
    return lambda space, lmax: HahnPolynomial({0: next(calls)}, lmax)


# each stub replaces one call a verifier makes below itself, so that the
# verifier's own comparison runs on wrong data and reports FAIL: the exit
# code is 1 and the detail names the check that failed, never an internal
# fault; each entry is (argv, module, name, stub of the real function,
# lines the output must hold)
VERIFIER_FAILS = {
    "chain-iso-degrees": (
        ["chain-iso", "fixture:two_point", "--lmax", "1"],
        "magtop.homology",
        "relative_chain_complex",
        lambda real: lambda pair: face_complex([]),
        ["FAIL at (a,a) length 0: degree ranges differ: [0] vs []"],
    ),
    "chain-iso-stamps": (
        ["chain-iso", "fixture:k3", "--lmax", "2"],
        "magtop.homology",
        "_stamps",
        lambda real: lambda space, seq: (),
        [
            "FAIL at (a,a) length 2: degree 2 stamping is not injective",
            "FAIL at (a,b) length 1: degree 1 bases do not correspond",
        ],
    ),
    "suspension": (
        ["suspension", "fixture:two_point", "--lmax", "1"],
        "magtop.homology",
        "relative_chain_complex",
        lambda real: lambda pair: face_complex([]),
        [
            "FAIL at (a,b) length 1: MH HomologySummary(betti=((1, 1),), "
            "torsion=()) vs shifted pair homology "
            "HomologySummary(betti=(), torsion=())"
        ],
    ),
    "kunneth": (
        ["kunneth", "fixture:two_point", "fixture:p2", "--lmax", "1"],
        "magtop.homology",
        "magnitude_chain_complex",
        _torsion_in_products,
        ["FAIL: first mismatch: (Fraction(0, 1), 0, 0, {}, {0: 1})"],
    ),
    "euler": (
        ["euler", "fixture:k3", "--lmax", "1"],
        "magtop.series",
        "perturbative_inverse",
        # zero counts over the real lengths
        lambda real: lambda space, a, b, lmax: dict.fromkeys(real(space, a, b, lmax), 0),
        ["FAIL at (a,a) length 0: coefficient 1 vs euler 0", "FAIL"],
    ),
    "mv": (
        ["mv", "fixture:mv_triangles", "--lmax", "0"],
        "magtop.mv",
        "magnitude_homology_total",
        # n^2 in degree 0 and Z/n in degree 1 for an n-point space, whose
        # table has n^2 pairs
        lambda real: lambda table, l: HomologySummary(
            ((0, len(table)),), ((1, (isqrt(len(table)),)),)
        ),
        [
            "l=0 k=0: 20 vs 18 MISMATCH",
            "FAIL: mv rank at length 0 degree 0: 20 vs 18; "
            "mv torsion at length 0 degree 1: (2, 4) vs (3, 3)",
        ],
    ),
    "sycamore-reverse": (
        ["sycamore", "fixture:sycamore_twist", "--lmax", "1"],
        "magtop.morse",
        "SycamoreTwist.reverse",
        _identity_reverse,
        ["FAIL: length 1 dim 1: reverse twist fails to invert 2 cells"],
    ),
    "sycamore-injective": (
        ["sycamore", "fixture:sycamore_twist", "--lmax", "0"],
        "magtop.morse",
        "sycamore_tau",
        lambda real: lambda twist, seq: (),
        [
            "FAIL: length 0 dim 0: reverse twist fails to invert 10 cells; "
            "length 0 dim 0: twist map is not injective; "
            "length 0 dim 0: 10 cells vs 10"
        ],
    ),
    "sycamore-bounded": (
        ["sycamore", "fixture:sycamore_twist", "--lmax", "0"],
        "magtop.morse",
        "verify_bounded",
        lambda real: lambda hasse: morse.BoundedReport(False, ()),
        [
            "FAIL: length 0 in x: unbounded matching; "
            "length 0 in y: unbounded matching"
        ],
    ),
    "sycamore-magnitude": (
        ["sycamore", "fixture:sycamore_twist", "--lmax", "0"],
        "magtop.morse",
        "magnitude",
        _counted_magnitude,
        ["FAIL: magnitude differs: 0 vs 1"],
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFIER_FAILS))
def test_verifier_fail_branch(capsys, monkeypatch, case):
    argv, module, name, stub, want = VERIFIER_FAILS[case]
    owner = importlib.import_module(module)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, stub(getattr(owner, attr)))
    code, out, err = run(capsys, ["verify"] + argv)
    assert (code, err) == (cli.MISMATCH_CODE, "")
    lines = out.splitlines()
    assert all(line in lines for line in want), lines
    assert lines[-1].startswith("FAIL")


# each stub makes a real internal check fail: with every sequence sticky
# the critical cells differ from the sticky-free ones, with every point
# smooth a full-length face escapes the interior of the attached side,
# with no chain short the relative chains outnumber the stamped sequences,
# with every chain short there are none, fewer than the stamped sequences
# (the same relative-part check, under -O too), and with the identity for
# Z^-1 the euler
# certificate Z X = I fails; the last two stubs raise exceptions that no
# exit code names, which are defects as well
FAULTS = [
    (
        ["critical-cells", "fixture:mv_triangles", "--l", "1"],
        "magtop.morse",
        "classify_sequence",
        "lambda *args: None",
    ),
    (
        ["verify", "union", "fixture:mv_triangles", "--lmax", "1"],
        "magtop.mv",
        "is_smooth",
        "lambda *args: True",
    ),
    (
        ["verify", "chain-iso", "fixture:two_point", "--lmax", "1"],
        "magtop.causal",
        "scaled_length",
        "lambda *args: 10**9",
    ),
    (
        ["verify", "chain-iso", "fixture:two_point", "--lmax", "1"],
        "magtop.causal",
        "scaled_length",
        "lambda *args: -1",
    ),
    (
        ["verify", "euler", "fixture:k3", "--lmax", "2"],
        "magtop.series",
        "z_inverse",
        "lambda space, lmax: series_identity(space.n, lmax)",
    ),
    (
        ["critical-cells", "fixture:mv_triangles", "--l", "1"],
        "magtop.morse",
        "projecting_matching",
        "lambda *args: (_ for _ in ()).throw(NotAMatching('stub'))",
    ),
    (
        ["homology", "fixture:k3", "--l", "1"],
        "magtop.causal",
        "walks",
        "lambda *args: (_ for _ in ()).throw(RecursionError('stub'))",
    ),
]
FAULT_IDS = [
    "critical-cells", "verify-union", "verify-chain-iso", "verify-chain-iso-assert",
    "verify-euler", "not-a-matching", "recursion-error",
]


@pytest.mark.parametrize("argv, module, name, stub", FAULTS, ids=FAULT_IDS)
def test_internal_fault_exit_code(capsys, monkeypatch, argv, module, name, stub):
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, name, eval(stub, vars(mod)))
    code, out, err = run(capsys, argv)
    assert code == cli.FAULT_CODE == 70
    assert out == ""
    assert err.startswith("internal fault: ")


@pytest.mark.parametrize("argv, module, name, stub", FAULTS, ids=FAULT_IDS)
def test_internal_fault_exit_code_under_optimize(argv, module, name, stub):
    # python -O strips every assert; the internal checks still raise
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    script = (
        "import importlib\n"
        "from magtop import cli\n"
        "mod = importlib.import_module(%r)\n"
        "setattr(mod, %r, eval(%r, vars(mod)))\n"
        "cli.entry()\n" % (module, name, stub)
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script] + argv,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == cli.FAULT_CODE
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"internal fault: ")


def test_unmapped_exception_names_its_type(capsys, monkeypatch):
    def boom(*args):
        raise magtop.morse.NotAMatching("stub")

    monkeypatch.setattr(magtop.morse, "projecting_matching", boom)
    code, out, err = run(
        capsys, ["verify", "sycamore", "fixture:sycamore_twist", "--lmax", "1"]
    )
    assert code == cli.FAULT_CODE
    assert out == ""
    assert err == "internal fault: NotAMatching: stub\n"


def test_rendering_fault_exit_code(capsys, monkeypatch):
    # the table is formatted while it prints: a fault there is a defect as
    # well, and the lines printed before it stay
    def boom(*args):
        raise KeyError("stub")

    monkeypatch.setattr(cli, "_group_line", boom)
    code, out, err = run(capsys, ["homology", "fixture:c4", "--l", "2"])
    assert code == cli.FAULT_CODE
    assert out == "# homology at length 2\n# from to k betti torsion\n"
    assert err == "internal fault: KeyError: 'stub'\n"


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [("5000", 4, 4), ("5000", 64, 9), ("2", 64, 2), ("5000", 1, None), ("5000", None, None)],
)
def test_jobs_bound_the_pool(capsys, monkeypatch, jobs, cpus, workers):
    # a forking pool starts all of its workers at the first submit, so it
    # gets no more than the 9 pair tasks of k3 and the CPUs; the fake pool
    # records its size and maps in this process, so no process starts
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ["homology", "fixture:k3", "--l", "2"]
    serial = run(capsys, argv)
    assert run(capsys, argv + ["--jobs", jobs]) == serial
    assert sizes == ([] if workers is None else [workers])


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "chain-iso",
            "fixture:two_point",
            "--lmax",
            "1",
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "chain-iso" and doc["ok"] is True
    assert doc["failures"] == []
    assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)


def _failing(name, edit):
    """Install a stub for cli.<name> that rewrites the real report."""

    def install(monkeypatch):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: edit(real(*args), *args))

    return install


def _mismatch_last_row(report, *_):
    l, k, left, right, _ = report.rows[-1]
    return replace(
        report,
        ok=False,
        rows=report.rows[:-1] + ((l, k, left, right + 1, False),),
        detail="injected rank at length %s degree %d" % (l, k),
    )


# structural identities hold on every valid input, so each failing verdict
# is injected by rewriting the report the real verifier returns
VERDICT_CASES = {
    "chain-iso": (["chain-iso", "fixture:two_point", "--lmax", "2"], None),
    "suspension": (["suspension", "fixture:two_point", "--lmax", "2"], None),
    "kunneth": (
        ["kunneth", "fixture:two_point", "fixture:p2", "--lmax", "2"],
        None,
    ),
    "euler": (["euler", "fixture:k3", "--lmax", "2"], None),
    "union": (["union", "fixture:mv_triangles", "--lmax", "2"], None),
    "mv": (["mv", "fixture:mv_triangles", "--lmax", "2"], None),
    "sycamore": (["sycamore", "fixture:sycamore_twist", "--lmax", "1"], None),
    "frames": (["frames", "fixture:p2", "--lmax", "2"], None),
    "union-refused": (["union", "fixture:sycamore_gluing", "--lmax", "1"], None),
    "mv-refused": (["mv", "fixture:sycamore_gluing", "--lmax", "1"], None),
    "kunneth-fail": (
        ["kunneth", "fixture:two_point", "fixture:p2", "--lmax", "2"],
        _failing(
            "verify_kunneth",
            lambda rep, *_: replace(rep, ok=False, detail="injected mismatch"),
        ),
    ),
    "euler-fail": (
        ["euler", "fixture:k3", "--lmax", "2"],
        _failing(
            "euler_check",
            lambda rep, *_: replace(
                rep, ok=False, mismatches=((Fraction(2), "a", "b", Fraction(3), 2),)
            ),
        ),
    ),
    "chain-iso-fail": (
        ["chain-iso", "fixture:two_point", "--lmax", "2"],
        _failing(
            "verify_chain_iso",
            lambda rep, space, a, b, l: (
                replace(rep, ok=False, detail="injected")
                if (a, b, l) == (0, 1, 1)
                else rep
            ),
        ),
    ),
    "union-fail": (
        ["union", "fixture:mv_triangles", "--lmax", "2"],
        _failing("verify_union", _mismatch_last_row),
    ),
    "sycamore-fail": (
        ["sycamore", "fixture:sycamore_twist", "--lmax", "1"],
        _failing("verify_sycamore", _mismatch_last_row),
    ),
}

VERDICT_PINS = {
    ("chain-iso", "json"): (0, "92673fb015dd09cd5e76078f0927917d4179127d73c9030c2ec735446aebfee1"),
    ("chain-iso", "table"): (0, "57b672735f3c0b25ae0e3c06387b6c6952dcb4fc4c398e4342b18e9fba92a34d"),
    ("chain-iso-fail", "json"): (1, "3b49e89b6c69be38571ad95be474439c0cc4b39820ee42142eb808c0adfb450b"),
    ("chain-iso-fail", "table"): (1, "c898a9fe35dba0199a01b942b19bd3c259e0c48f1173a11fc086455049c44794"),
    ("euler", "json"): (0, "b57130afdaf858a291f75c0a83b2bffba6a709c6e5076a201eecc16e50ed15eb"),
    ("euler", "table"): (0, "11fb12c7ef62a6bbdfb45e9b29f33834f667de242a8f417405e38972ca847264"),
    ("euler-fail", "json"): (1, "910701e227f86ec99ea404a35b21998e6a1a0020a2eca0380d3a2a86c754efc0"),
    ("euler-fail", "table"): (1, "cf69d8db1bdda7d2c4c63436a835fb3df9e258c975a50c833f44e495bfe4cafa"),
    ("frames", "json"): (0, "5c51915e718b813ab6a2f5c08d1b34602ad478a77a444748377066d6e71e7c60"),
    ("frames", "table"): (0, "3f794422fa6f031825791709a8e2489c1c5fe6b86926b22d7f9ce9542698a65b"),
    ("kunneth", "json"): (0, "6f878758b1e1876b82306b2034a98243dddcfa1e3bf198d834e45539c87fb285"),
    ("kunneth", "table"): (0, "b65c3e42fea81406457225de72b854b9976b228e8ebd4db11577a0f47d1066f4"),
    ("kunneth-fail", "json"): (1, "88f020c21860b21341f7cb09c168bf9b96f7a4be0afc5f9196c9237cb4ac2abc"),
    ("kunneth-fail", "table"): (1, "63c97dfe901cb53f08039bc830a87fcf188f1ac70f77badb387cdc2ab2d0e167"),
    ("mv", "json"): (0, "6d4edfc705fe85382ef260bb6f278e06bc56ce98f42387eddf2b87e4ade4e0dd"),
    ("mv", "table"): (0, "ca3972ccfd66c30aa54b940af6333e74167b96bf90e4cc299fb905a1e7608069"),
    ("mv-refused", "json"): (5, "59fdcd6f8e70ac00ad823654e4d943b1f2e8cbffc96e9ce2f150593b8dc4b447"),
    ("mv-refused", "table"): (5, "e4f03c672fd644414bd4747730bbe18092570f2765411cf2cbc23983dd486c93"),
    ("suspension", "json"): (0, "8f9a7eb911f4283066ae679adc36212161bf2a8214879f0005aa7ad010c297ae"),
    ("suspension", "table"): (0, "de75fab12332177f6325aa14be90d3b6f4e4025a6be4bd508f173675bbd7b75f"),
    ("sycamore", "json"): (0, "5ec73f7123c518e4e147733904053240ecb7f9fc7a70766941f906cbee988975"),
    ("sycamore", "table"): (0, "0e6620687fe01e6d7cbfee20076fb42ec84429348d402532f161ddf192cb6857"),
    ("sycamore-fail", "json"): (1, "0538f2cbf2357663c5c50321f884182c5ed366b38ac85f47c40497d7df82e710"),
    ("sycamore-fail", "table"): (1, "47211b42f99a3012639618ec4ce52562a8adce191dab3c46fa05376b7e001660"),
    ("union", "json"): (0, "568b255f89cde0ba44d5d9cc28a88b00a1ee047c388cc459ad1aae4968358312"),
    ("union", "table"): (0, "bd6c19210ff5830cc9182fbb4f7bbfa3fdbdae6b6b67d065b80a4575ab0ccab6"),
    ("union-fail", "json"): (1, "6662b4532d884f7cd1a7b78d0f39aa5750d6141c17a1eaa2428f57f773e21df7"),
    ("union-fail", "table"): (1, "9857b1a83a3822d401478a21650b3a87c9210a3cd0fd85496efbf2af701babbc"),
    ("union-refused", "json"): (5, "45a4e6bdb31413a132cdfc396059c869985c4909c969d3d46b5eb00a0b3d0296"),
    ("union-refused", "table"): (5, "e4f03c672fd644414bd4747730bbe18092570f2765411cf2cbc23983dd486c93"),
}


@pytest.mark.parametrize("case, fmt", sorted(VERDICT_PINS))
def test_verify_output_pinned(capsys, monkeypatch, case, fmt):
    argv, stub = VERDICT_CASES[case]
    if stub is not None:
        stub(monkeypatch)
    code, out, _ = run(capsys, ["verify"] + argv + ["--format", fmt])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERDICT_PINS[
        case, fmt
    ]


PUBLIC_NAMES = [
    "DocumentError", "EmptyComplex", "EulerReport", "FourCutObstruction",
    "HahnPolynomial", "HomologySummary", "InvalidLength", "LabelError",
    "MetricError", "MetricSpace", "NotASycamoreTwist", "NotGated",
    "VerifyReport", "achievable_lengths", "critical_cells", "euler_check",
    "facets_from_doc", "format_rational", "format_series",
    "framed_betti_prediction", "from_distance_matrix", "from_weighted_graph",
    "glue", "gluing_from_doc", "hasse_graph", "homology", "load_doc",
    "load_fixture", "magnitude", "magnitude_chain_complex",
    "pair_achievable_lengths", "parse_rational", "product",
    "random_metric_space", "restriction", "seq_time_stamps",
    "singular_sequences", "space_from_doc", "thin_frames", "twist_from_doc",
    "verify_chain_iso", "verify_kunneth", "verify_mv",
    "verify_suspension_shift", "verify_sycamore", "verify_union", "weighting",
]


def test_package_root_exports_what_the_cli_uses():
    # the root exports every public name cli imports, plus the space
    # constructors and result types; everything else stays in its module
    assert sorted(magtop.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(magtop, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    used = {
        name
        for name, value in vars(cli).items()
        if not name.startswith("_")
        and getattr(value, "__module__", "").startswith("magtop.")
        and value.__module__ != cli.__name__
    }
    assert len(used) == 38 and used <= set(PUBLIC_NAMES)


# names that only the tests read; none today
READER_IN_TESTS = []


def test_every_member_has_a_reader_in_src():
    # a top-level function or class, or a public method, that nothing under
    # src/magtop reads outside its own definition is test-only code, and
    # such code lives in the tests as helpers.  Reads are matched by name,
    # so a method counts as read when any attribute load spells its name.
    package = os.path.dirname(magtop.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                trees[name] = ast.parse(f.read())
    defs = []
    reads = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (module, node.name + "." + m.name, m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unread = [
        "%s:%s" % (module, name)
        for module, name, node in defs
        if not any(
            where != module or not node.lineno <= line <= node.end_lineno
            for where, line in reads.get(name.rsplit(".", 1)[-1], ())
        )
    ]
    assert len(defs) > 100
    assert unread == READER_IN_TESTS


def test_import_leaves_the_process_pool_unloaded():
    # only a --jobs run with more than one task imports the pool
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    script = "import sys, magtop.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.stdout == "False\n", proc.stderr



def test_commands_import_only_the_standard_library():
    # -S keeps site-packages and its .pth hooks out, so every module left
    # in sys.modules was imported by the commands themselves
    src = os.path.dirname(os.path.dirname(magtop.__file__))
    script = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from magtop import cli\n"
        "for argv in (\n"
        "    ['verify', 'sycamore', 'fixture:sycamore_twist', '--lmax', '2'],\n"
        "    ['homology', 'fixture:c4', '--l', '3', '--jobs', '2'],\n"
        "    ['magnitude', 'fixture:k3', '--lmax', '2'],\n"
        "):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "allowed = sys.stdlib_module_names | {'magtop', '__main__', '__mp_main__'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - allowed))\n" % src
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

def quick_start_commands():
    """(argv, expected lines) for each `$ magtop` command in README's
    Quick start, the lines up to the next command or the block's end."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        if line.startswith("$ magtop "):
            commands.append((shlex.split(line)[2:], []))
        elif commands:
            commands[-1][1].append(line)
    return [(argv, "\n".join(lines).strip("\n").splitlines()) for argv, lines in commands]


def fits(lines, pattern):
    """True when lines read as pattern, where a "..." line stands for any
    run of lines, none included."""
    if not pattern:
        return not lines
    if pattern[0] == "...":
        return any(fits(lines[i:], pattern[1:]) for i in range(len(lines) + 1))
    return bool(lines) and lines[0] == pattern[0] and fits(lines[1:], pattern[1:])


def test_readme_quick_start_matches_the_cli(capsys):
    commands = quick_start_commands()
    assert len(commands) == 3
    for argv, expected in commands:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert fits(out.splitlines(), expected), (argv, out)
