"""Output of the table-driven CLI subcommands: the one-graph queries, ``build``,
``detect`` and ``v-special``."""

import json

import pytest

from oddhom import (
    OddK4Witness,
    VSpecialColouring,
    circular_clique,
    complete,
    cycle,
    extend_v_special,
    fixture,
    generalized_mycielski,
    odd_k32,
    odd_k4,
    to_graph6,
)
from oddhom.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main

from conftest import cube


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.strip()


def write_graph(tmp_path, g):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g) + "\n")
    return str(path)


@pytest.mark.parametrize("cmd, want", [
    ("odd-girth", "5"), ("girth", "5"), ("core", "Dhc"), ("chi", "3"), ("chi-c", "5/2"),
])
def test_queries_on_c5(tmp_path, capsys, cmd, want):
    assert run(capsys, [cmd, write_graph(tmp_path, cycle(5))]) == (EXIT_OK, want)


def test_chi_c_of_k3_keeps_the_denominator(tmp_path, capsys):
    assert run(capsys, ["chi-c", write_graph(tmp_path, complete(3))]) == (EXIT_OK, "3/1")


@pytest.mark.parametrize("argv, g", [
    (["mycielski", "2"], generalized_mycielski(2)),
    (["odd-k4", "1", "2", "2"], odd_k4(1, 2, 2)),
    (["odd-k32", "3", "5", "7", "0", "2", "1"], odd_k32((3, 5, 7), (0, 2, 1))),
    (["circular-clique", "7", "3"], circular_clique(7, 3)),
    (["cycle", "9"], cycle(9)),
    (["fixture", "fig2a"], fixture("fig2a")),
])
def test_build_families(capsys, argv, g):
    assert run(capsys, ["build", *argv]) == (EXIT_OK, to_graph6(g))


def test_build_wrong_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "cycle", "5", "6"])
    assert exc.value.code == EXIT_USAGE
    assert "expected 1 integer parameter(s), got 2" in capsys.readouterr().err


def test_graph_file_lines_end_at_newline_only(tmp_path, capsys):
    # splitlines would end a line at 0x1c and read "Bw", K3; graph6 has no 0x1c.
    path = tmp_path / "g.g6"
    path.write_text("Bw\x1cCw\n")
    with pytest.raises(SystemExit) as exc:
        main(["chi", str(path)])
    assert exc.value.code == EXIT_USAGE
    assert "non-printable characters" in capsys.readouterr().err


def test_graph_file_skips_blank_lines(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text("\n \r\n\tBw\r\n")
    assert run(capsys, ["chi", str(path)]) == (EXIT_OK, "3")


def test_detect_odd_k4(tmp_path, capsys):
    g = odd_k4(1, 2, 2)
    code, out = run(capsys, ["detect", "odd-k4", write_graph(tmp_path, g)])
    assert code == EXIT_OK
    data = json.loads(out)
    w = OddK4Witness(tuple(data["branch"]), tuple(tuple(p) for p in data["paths"]))
    assert w.verify(g)
    assert data["face_lengths"] == list(w.face_lengths)
    assert all(f % 2 == 1 for f in w.face_lengths)


def test_detect_none_on_even_cycle(tmp_path, capsys):
    assert run(capsys, ["detect", "odd-k32", write_graph(tmp_path, cycle(6))]) \
        == (EXIT_NEGATIVE, "NONE")


# Exhaustive searches of more than 1,024 budget ticks, so the first look
# at the clock already finds a zero budget spent.
@pytest.mark.parametrize("kind, g", [("odd-k4", cube()), ("odd-k32", generalized_mycielski(2))])
def test_detect_zero_budget(tmp_path, capsys, monkeypatch, kind, g):
    monkeypatch.setenv("ODDHOM_BUDGET_SECONDS", "0")
    code = main(["detect", kind, write_graph(tmp_path, g)])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert "budget exceeded" in captured.err


def test_v_special_on_c7(tmp_path, capsys):
    g = cycle(7)
    code, out = run(capsys, ["v-special", write_graph(tmp_path, g), "0"])
    assert code == EXIT_OK
    data = json.loads(out)
    col = VSpecialColouring(data["center"], {int(u): c for u, c in data["classes"].items()})
    assert col.center == 0
    assert extend_v_special(g, col).image[0] == 2


def test_v_special_none_on_fig2a(tmp_path, capsys):
    assert run(capsys, ["v-special", write_graph(tmp_path, fixture("fig2a")), "0"]) \
        == (EXIT_NEGATIVE, "NONE")


def test_v_special_vertex_out_of_range(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["v-special", write_graph(tmp_path, cycle(7)), "7"])
    assert exc.value.code == EXIT_USAGE
    assert "out of range" in capsys.readouterr().err
