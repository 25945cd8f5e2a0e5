"""End-to-end tests for the command-line front end."""

import hashlib
import json
import os
import subprocess
import sys

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
