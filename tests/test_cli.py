"""End-to-end tests for the command-line front end."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import magtop
from magtop import cli
from magtop.series import EulerReport


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


def _short_k_twist():
    doc = magtop.load_fixture("sycamore_twist")
    doc["k_in_h"] = doc["k_in_h"][:1]
    return json.dumps(doc)


# malformed documents: (argv with DOC for the document's path, its bytes,
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
        _short_k_twist().encode(),
        3,
        "K index lists differ in length",
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


# each stub makes a real internal check fail: with every sequence sticky
# the critical cells differ from the sticky-free ones, with every point
# smooth a full-length face escapes the interior of the attached side,
# with no chain short the relative chains outnumber the stamped sequences,
# and with every chain short a plain assert fails (under -O the
# relative-part check still catches it)
FAULTS = [
    (
        ["critical-cells", "fixture:mv_triangles", "--l", "1"],
        "magtop.morse",
        "classify_sequence",
        "lambda *args: SequenceClass('sticky')",
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
]
FAULT_IDS = [
    "critical-cells", "verify-union", "verify-chain-iso", "verify-chain-iso-assert"
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
