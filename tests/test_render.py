from evansk import Analysis, coadjacencies, monoid_spec, spec_from_matrices
from evansk.render import (
    b_legend,
    render_differential,
    render_numeric_differential,
    render_symbolic_differential,
    symbolic_blocks,
)

RANK4_DEGREE3 = """\
      | (2,3,4) (1,3,4) (1,2,4) : (1,2,3)
------+----------------------------------
(3,4) |      B2      B1       0 :       0
(2,4) |     -B3       0      B1 :       0
(1,4) |       0     -B3     -B2 :       0
- - - - - - - - - - - - - - - - - - - - -
(2,3) |      B4       0       0 :      B1
(1,3) |       0      B4       0 :     -B2
(1,2) |       0       0      B4 :      B3"""

RANK4_DEGREE4 = """\
        | (1,2,3,4)
--------+----------
(2,3,4) |        B1
(1,3,4) |       -B2
(1,2,4) |        B3
(1,2,3) |       -B4"""


def test_symbolic_blocks_rank4_degree3():
    assert symbolic_blocks(3, 4) == [
        ["B2", "B1", "0", "0"],
        ["-B3", "0", "B1", "0"],
        ["0", "-B3", "-B2", "0"],
        ["B4", "0", "0", "B1"],
        ["0", "B4", "0", "-B2"],
        ["0", "0", "B4", "B3"],
    ]


def test_symbolic_blocks_rank4_degree4():
    assert symbolic_blocks(4, 4) == [["B1"], ["-B2"], ["B3"], ["-B4"]]


def test_rendered_rank4_degree3_golden():
    assert render_symbolic_differential(3, 4) == RANK4_DEGREE3


def test_rendered_rank4_degree4_golden():
    assert render_symbolic_differential(4, 4) == RANK4_DEGREE4


def test_degree_one_row_shape_without_partitions():
    text = render_symbolic_differential(1, 4)
    assert ":" not in text
    assert "- - " not in text
    lines = text.splitlines()
    assert lines[0].endswith("(4) (3) (2) (1)")
    assert lines[-1].startswith("* |")
    assert lines[-1].endswith("B4  B3  B2  B1")


def test_partition_rules_only_in_middle_degrees():
    for p, expect in ((1, False), (2, True), (3, True), (4, False)):
        text = render_symbolic_differential(p, 4)
        assert (":" in text) is expect
        assert ("- - " in text) is expect


def test_legend_lists_numeric_values():
    bs = coadjacencies(monoid_spec([2, 3, 4, 5]))
    assert b_legend(bs) == "where B1 = -1, B2 = -2, B3 = -3, B4 = -4"


def render(spec, p):
    analysis = Analysis(spec)
    return render_differential(analysis.complex, p, spec.vertices, analysis.coadjacencies)


def test_render_differential_monoid_uses_symbols():
    text = render(monoid_spec([2, 3, 4, 5]), 4)
    assert RANK4_DEGREE4 in text
    assert "where B1 = -1" in text


def test_render_numeric_for_multivertex():
    text = render(spec_from_matrices([[[0, 1], [1, 0]]]), 1)
    assert "(1):v0" in text and "(1):v1" in text
    assert "*:v0" in text
    assert "-1" in text


def test_numeric_partition_positions():
    spec = spec_from_matrices([[[2, 1], [1, 1]], [[3, 1], [1, 2]]])
    assert spec.adjacency[0] @ spec.adjacency[1] == spec.adjacency[1] @ spec.adjacency[0]
    text = render_numeric_differential(Analysis(spec).complex, 1, spec.vertices)
    assert "(2):v0" in text and "(1):v1" in text
