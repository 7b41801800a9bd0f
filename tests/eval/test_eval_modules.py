"""Unit tests for the evaluation harness itself."""

import pytest

from repro import exp
from repro.eval import (
    agility, consistency_eval, figure2, figure4, figure5, figure8, figure9,
    table1, table2,
)
from repro.eval.format import check, render_table
from repro.eval.sloc import class_sloc, count_sloc


# -- formatting --------------------------------------------------------------


def test_render_table_alignment():
    out = render_table(["a", "bee"], [["x", 1], ["longer", 2]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="
    assert "a      | bee" in lines[2]
    assert "longer | 2" in out


def test_render_table_cell_types():
    out = render_table(["v"], [[True], [False], [1.25], [None], ["s"]])
    assert "yes" in out and "no" in out and "1.2" in out


def test_check_marks():
    assert check(True) == "x"
    assert check(False) == ""


# -- SLOC counting -------------------------------------------------------------


def test_count_sloc_strips_comments_blanks_docstrings():
    source = '''
def f():
    """Docstring
    spanning lines."""
    # a comment
    x = 1

    return x
'''
    assert count_sloc(source) == 3  # def, assignment, return


def test_count_sloc_handles_syntax_errors_gracefully():
    assert count_sloc("not ( valid python [") >= 1


def test_class_sloc_positive_for_real_classes():
    from repro.patterns import PBR

    assert class_sloc(PBR) > 10


# -- table/figure data structures --------------------------------------------------


def test_table1_has_all_four_columns():
    data = table1.generate()
    assert set(data) == {"PBR", "LFR", "TR", "A&Duplex"}
    for chars in data.values():
        assert {"fault_models", "bandwidth", "cpu"} <= set(chars)


def test_table1_fidelity_structure():
    result = table1.fidelity(table1.generate())
    assert result["total"] == 32
    assert result["matches"] + len(result["mismatches"]) == result["total"]


def test_table2_scheme_covers_all_roles():
    data = table2.generate()
    roles = set(data["scheme"])
    assert {"PBR (Primary)", "PBR (Backup)", "LFR (Leader)", "LFR (Follower)"} <= roles


def test_figure2_realises_every_edge():
    data = figure2.generate()
    assert figure2.coverage(data) == []


def test_figure4_proxy_is_positive_everywhere():
    data = figure4.generate()
    assert all(v > 0 for v in data["proxy_sloc"].values())
    assert set(data["paper_days"]) == set(data["proxy_sloc"])


def test_figure5_render_contains_bars():
    data = figure5.generate()
    out = figure5.render(data)
    assert "#" in out


def test_figure8_edge_fields():
    data = figure8.generate()
    for edge in data["edges"]:
        assert edge["kind"] in ("mandatory", "possible", "intra")
        assert edge["detection"] in ("probe", "manager")
        assert edge["nature"] in ("reactive", "proactive")


# -- simulating artifacts report their events ---------------------------------------


@pytest.mark.parametrize("spec", [
    agility.spec(), consistency_eval.spec(runs=2), figure9.spec(runs=1),
], ids=lambda spec: spec.name)
def test_simulating_specs_close_their_worlds(spec):
    """A world's event counts reach the runner when it is closed: an
    artifact that simulates must not report zero kernel events."""
    result = exp.run(spec, backend="serial")
    assert result.executed > 0
    assert result.events_by_source["timer"] > 0, result.events_by_source
