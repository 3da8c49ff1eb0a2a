"""Tests for the command-line interface: every subcommand exercised
through main(argv), with outputs parsed back."""

from __future__ import annotations

import json

import pytest

from indecomp.cli import _load, _parse_orders, main
from indecomp.core import DgFormatError, parse_dg, serialize_dg
from indecomp.families import (
    enum_class_F,
    enum_class_G,
    enum_class_Gdprime,
    enum_class_Gprime,
    enum_Hstar_even,
    enum_Hstar_odd,
    gen_H,
    gen_R,
    gen_T,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.dg"):
    path = tmp_path / name
    path.write_text(serialize_dg(g))
    return str(path)


# -- gen ---------------------------------------------------------------------


def test_gen_dg_output(capsys):
    code, out, err = run(capsys, "gen", "gen_R", "3")
    assert code == 0 and not err
    assert parse_dg(out) == gen_R(3)


def test_gen_json_output(capsys):
    code, out, _ = run(capsys, "gen", "gen_Q5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 5
    assert len(data["arcs"]) == 10


def test_gen_dot_output(capsys):
    code, out, _ = run(capsys, "gen", "gen_H", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_gen_enum_class_indexing(capsys):
    code, first, _ = run(capsys, "gen", "class_F", "5", "1", "--index", "0")
    assert code == 0
    code, third, _ = run(capsys, "gen", "class_F", "5", "1", "--index", "2")
    assert code == 0
    assert parse_dg(first).n == 7
    assert first != third


@pytest.mark.parametrize(
    "argv, members",
    [
        (("class_F", "5", "1"), lambda: enum_class_F(5, 1)),
        (("class_G", "2", "1", "1"), lambda: enum_class_G(2, 1, True)),
        (("class_Gprime", "3", "1"), lambda: enum_class_Gprime(3, 1)),
        (("class_Gdprime", "3", "1", "1"), lambda: enum_class_Gdprime(3, 1, 1)),
        (("hstar_odd", "3", "2", "2"), lambda: enum_Hstar_odd((3, 2, 2))),
        (("hstar_even", "2", "2", "2"), lambda: enum_Hstar_even((2, 2, 2), False)),
        (
            ("hstar_even", "2", "2", "2", "--gamma"),
            lambda: enum_Hstar_even((2, 2, 2), True),
        ),
    ],
)
def test_gen_prints_every_enumerator_member(capsys, argv, members):
    expected = [serialize_dg(m.graph) for m in members()]
    for index, text in enumerate(expected):
        code, out, err = run(capsys, "gen", *argv, "--index", str(index))
        assert code == 0 and not err
        assert out == text, index
    code, _, err = run(capsys, "gen", *argv, "--index", str(len(expected)))
    assert code == 2 and "out of range" in err


def test_gen_members_and_gamma(capsys):
    code, out, _ = run(capsys, "gen", "members", "7", "--index", "11")
    assert code == 0 and parse_dg(out).n == 7
    code, out, _ = run(capsys, "gen", "hstar_even", "2", "2", "2", "--gamma")
    assert code == 0 and parse_dg(out).n == 8


def test_gen_rejects_bad_requests(capsys):
    for argv in (
        ("gen", "no_such_family", "3"),
        ("gen", "gen_T",),
        ("gen", "gen_T", "2", "--index", "1"),
        ("gen", "class_F", "5", "1", "--index", "99"),
        ("gen", "class_G", "2", "1", "7"),
        ("gen", "class_F", "5", "1", "--gamma"),
        ("gen", "class_F", "5"),
        ("gen", "hstar_odd", "3", "2", "2", "-2"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


# -- check / classify / ig ----------------------------------------------------------


def test_check_indecomposable_graph(capsys, tmp_path):
    path = write_graph(tmp_path, gen_R(3))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    data = json.loads(out)
    assert data["indecomposable"] is True
    assert data["defect"] == 1
    assert data["noncritical"] == [6]
    assert data["nontrivial_intervals"] == 0


def test_check_decomposable_graph(capsys, tmp_path):
    from indecomp.core import make_digraph

    tournament = make_digraph(4, [(x, y) for x in range(4) for y in range(x + 1, 4)])
    path = write_graph(tmp_path, tournament)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    data = json.loads(out)
    assert data["indecomposable"] is False
    assert "defect" not in data
    assert data["nontrivial_intervals"] > 0


def test_check_above_canonical_bound(capsys, tmp_path):
    # order 19: the report omits the canonical code instead of failing
    path = write_graph(tmp_path, gen_T(9))
    code, out, err = run(capsys, "check", path)
    assert code == 0 and not err
    data = json.loads(out)
    assert data["order"] == 19
    assert data["defect"] == 0
    assert data["noncritical"] == [] and len(data["critical"]) == 19
    assert "canonical_code" not in data
    assert "nontrivial_intervals" not in data


def test_check_shows_an_interval_above_the_oracle_bound(capsys, tmp_path):
    # gen_T(6) plus a twin of vertex 5: order 14, decomposable
    from indecomp.core import make_digraph
    from indecomp.modular import is_interval

    base = gen_T(6)
    arcs = list(base.arcs())
    arcs += [(13 if a == 5 else a, 13 if b == 5 else b) for a, b in arcs if 5 in (a, b)]
    g = make_digraph(14, arcs)
    path = write_graph(tmp_path, g)
    code, out, err = run(capsys, "check", path)
    assert code == 0 and not err
    data = json.loads(out)
    assert data["order"] == 14 and data["indecomposable"] is False
    assert "nontrivial_intervals" not in data
    interval = data["interval"]
    assert 2 <= len(interval) < 14 and is_interval(g, interval)


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.dg"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("byte", [b"\xc2", b"\xff"])
def test_load_refuses_undecodable_bytes(tmp_path, byte):
    path = tmp_path / "bad.dg"
    path.write_bytes(b"3\n0" + byte + b"0\n000\n000\n")
    with pytest.raises(DgFormatError):
        _load(str(path))


@pytest.mark.parametrize("command", ["check", "classify"])
def test_undecodable_file_is_an_error_line(capsys, tmp_path, command):
    path = tmp_path / "bad.dg"
    path.write_bytes(b"1\n\xc2\xff\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and not out
    assert err.startswith("error:") and "not ASCII" in err


def test_classify_family_member(capsys, tmp_path):
    path = write_graph(tmp_path, gen_H(3))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "minus_one_critical"
    assert data["match"]["family"] == "gen_H"
    assert data["match"]["shape"]["kind"] == "cycle"
    assert len(data["match"]["witness"]) == 7


def test_ig_cycle(capsys, tmp_path):
    path = write_graph(tmp_path, gen_H(3))
    code, out, _ = run(capsys, "ig", path)
    assert code == 0
    data = json.loads(out)
    assert len(data["edges"]) == 7
    assert data["isolated"] == []
    assert data["shape"]["cycle_vertices"] == 7


# -- survey / roundtrip / selftest -------------------------------------------------


def test_survey_exhaustive_stream(capsys):
    code, out, _ = run(capsys, "survey", "--order", "3", "--exhaustive")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[0]["visited"] == 64
    assert lines[1]["ok"] is True
    assert lines[1]["mode"] == "exhaustive"


def test_survey_random_stream(capsys):
    code, out, _ = run(capsys, "survey", "--order", "5", "--samples", "40",
                       "--seed", "9")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["mode"] == "random"
    assert summary["visited"] == 40
    assert summary["seeds"] == [9]


def test_survey_mode_flags_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["survey", "--order", "4", "--exhaustive", "--samples", "5"])
    capsys.readouterr()


def test_survey_bad_order(capsys):
    code, _, err = run(capsys, "survey", "--order", "9", "--exhaustive")
    assert code == 2
    assert "error:" in err


def test_survey_negative_seed(capsys):
    code, out, err = run(capsys, "survey", "--order", "6", "--samples", "3",
                         "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("mode", [["--exhaustive"], ["--samples", "3"]])
def test_survey_rejects_worker_count_below_one(capsys, mode, workers):
    code, out, err = run(capsys, "survey", "--order", "3", *mode,
                         "--workers", workers)
    assert code == 2
    assert out == ""
    assert "error:" in err and "workers" in err
    assert "Traceback" not in err


def test_roundtrip_cli(capsys):
    code, out, _ = run(capsys, "roundtrip", "--orders", "7..7")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["members"] == {"7": 340}


def test_roundtrip_rejects_bad_range(capsys):
    for text in ("6..7", "abc", "7.."):
        code, _, err = run(capsys, "roundtrip", "--orders", text)
        assert code == 2
        assert "error:" in err


def test_parse_orders():
    assert _parse_orders("7..10") == range(7, 11)
    assert _parse_orders("8") == range(8, 9)
    from indecomp.core import DigraphError

    with pytest.raises(DigraphError):
        _parse_orders("9..8")
