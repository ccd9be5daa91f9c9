"""Output of the table-driven CLI subcommands: the one-graph queries and ``build``."""

import pytest

from oddhom import (
    circular_clique,
    complete,
    cycle,
    fixture,
    generalized_mycielski,
    odd_k32,
    odd_k4,
    to_graph6,
)
from oddhom.cli import EXIT_OK, EXIT_USAGE, main


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.strip()


@pytest.mark.parametrize("cmd, want", [
    ("odd-girth", "5"), ("girth", "5"), ("core", "Dhc"), ("chi", "3"), ("chi-c", "5/2"),
])
def test_queries_on_c5(tmp_path, capsys, cmd, want):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle(5)) + "\n")
    assert run(capsys, [cmd, str(path)]) == (EXIT_OK, want)


def test_chi_c_of_k3_keeps_the_denominator(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(to_graph6(complete(3)) + "\n")
    assert run(capsys, ["chi-c", str(path)]) == (EXIT_OK, "3/1")


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
