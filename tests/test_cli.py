import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evansk
from evansk import document_from_dict, dumps_document
from evansk import corpus, limits, spectral
from evansk.cli import _build_parser, _parse, main
from evansk.complexes import ChainComplex, differential_product_witness, evans_boundary
from evansk.corpus import monoid_document, random_polynomial_documents
from evansk.documents import GraphDocument
from evansk.homology import AbelianGroup, homology
from evansk.intmat import IntMatrix, product_differences
from evansk.kgraph import (
    SpecValidationError,
    coadjacencies,
    spec_from_matrices,
    validate,
)
from evansk.limits import MAX_BOUNDARY_CELLS, MAX_PRODUCT_MADDS, MAX_RANK, MAX_REPORT_TORSION
from evansk.spectral import Analysis, k_theory_verdict

NON_COMMUTING = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])

REPORT_KEYS = {
    "command", "name", "k", "vertices", "validation",
    "complex", "homology", "e2", "verdict", "timing",
}


@pytest.fixture
def monoid_file(tmp_path):
    path = tmp_path / "monoid-3-5-7.json"
    path.write_text(dumps_document(monoid_document([3, 5, 7])), encoding="utf-8")
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    doc = GraphDocument(spec=NON_COMMUTING, name="non-commuting")
    path = tmp_path / "bad.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    return str(path)


def test_validate_ok(monoid_file, capsys):
    assert main(["validate", monoid_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_failure_lists_witness(invalid_file, capsys):
    assert main(["validate", invalid_file]) == 1
    out = capsys.readouterr().out
    assert "do not commute" in out


@pytest.mark.parametrize("content, fragment", [
    (b'{"k": ', "line 1"),
    (b'{"k": 1, "vertices": ["\xff"]}', "utf-8"),
    (b"[" * 200_000, "recursion"),
    (b'{"k": ' + b"9" * 5_000 + b"}", "digits"),
], ids=["syntax", "not-utf8", "deep-nesting", "long-integer"])
def test_parse_error_exits_2(content, fragment, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("command", ["validate", "complex", "homology", "e2", "verdict"])
def test_generated_array_refused_by_name(command, tmp_path, capsys):
    assert main(["gen", "polynomial-family", "--count", "20", "--seed", "1"]) == 0
    path = tmp_path / "gen.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: document must be a JSON object, got an array of length 20 "
                   "(as evansk gen writes); pass one document\n")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verdict_text_r4(monoid_file, capsys):
    assert main(["verdict", monoid_file]) == 0
    out = capsys.readouterr().out
    assert "K1 = Z2^2; K0: 0 -> Z2 -> K0 -> Z2 -> 0; rule R4" in out


def test_verdict_text_r1(tmp_path, capsys):
    doc = GraphDocument(spec=spec_from_matrices([[[1, 1], [1, 0]]]))
    path = tmp_path / "uni.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    assert main(["verdict", str(path)]) == 0
    assert "K0 = 0, K1 = 0; rule R1" in capsys.readouterr().out


def test_verdict_text_r2(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(dumps_document(monoid_document([1, 1, 1])), encoding="utf-8")
    assert main(["verdict", str(path)]) == 0
    assert "K0 = K1 = Z^4; rule R2" in capsys.readouterr().out


def test_homology_text(monoid_file, capsys):
    assert main(["homology", monoid_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["H_0 = Z2", "H_1 = Z2^2", "H_2 = Z2", "H_3 = 0"]


def test_e2_text(monoid_file, capsys):
    assert main(["e2", monoid_file]) == 0
    out = capsys.readouterr().out
    assert "E2[1,2q] = Z2^2" in out


def test_complex_text_degree_filter(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps_document(monoid_document([2, 3, 4, 5])), encoding="utf-8")
    assert main(["complex", str(path), "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "(1,2,3,4)" in out
    assert "where B1 = -1, B2 = -2, B3 = -3, B4 = -4" in out
    assert "d_4 (4 x 1):" in out
    assert "d_3" not in out


def test_complex_degree_out_of_range(monoid_file, capsys):
    assert main(["complex", monoid_file, "--degree", "9"]) == 2
    assert "range 1..3" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["99", "0"])
def test_bad_degree_refused_before_assembly(degree, tmp_path, monkeypatch, capsys):
    # Assembling [3] * 10 would be wasted work: the rank alone decides that
    # a degree is out of range.
    def refuse(*args, **kwargs):
        raise AssertionError("a bad degree is refused before assembly")

    monkeypatch.setattr(spectral, "evans_boundary", refuse)
    path = tmp_path / "rank10.json"
    path.write_text(dumps_document(monoid_document([3] * 10)), encoding="utf-8")
    for fmt in ("text", "json"):
        assert main(["complex", str(path), "--degree", degree, "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: degree {degree} out of range 1..10\n")


def test_json_report_schema_stable(monoid_file, capsys):
    reports = {}
    for command in ("validate", "complex", "homology", "e2", "verdict"):
        assert main([command, monoid_file, "--format", "json"]) == 0
        reports[command] = json.loads(capsys.readouterr().out)
    for command, report in reports.items():
        assert set(report) == REPORT_KEYS, command
        assert report["validation"] == {"valid": True, "violations": []}
        assert report["k"] == 3
    assert reports["validate"]["homology"] is None
    assert reports["complex"]["complex"]["ranks"] == [1, 3, 3, 1]
    assert reports["homology"]["homology"][0]["pretty"] == "Z2"
    assert reports["e2"]["e2"]["columns"][1]["torsion"] == [2, 2]
    assert reports["verdict"]["verdict"]["rule"] == "R4"
    assert reports["verdict"]["verdict"]["e2"]["k"] == 3


def test_json_matrices_row_major(monoid_file, capsys):
    assert main(["complex", monoid_file, "--format", "json", "--degree", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    (d1,) = report["complex"]["differentials"]
    assert d1["degree"] == 1
    assert d1["matrix"] == [[-6, -4, -2]]
    assert d1["col_labels"] == ["(3):v", "(2):v", "(1):v"]


def test_invalid_spec_json_exit_code(invalid_file, capsys):
    for command in ("validate", "complex", "homology", "e2", "verdict"):
        assert main([command, invalid_file, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["validation"]["valid"] is False
        assert report["homology"] is report["timing"] is None, command


def test_out_flag_writes_file(monoid_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["homology", monoid_file, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["homology"][0]["torsion"] == [2]


def test_gen_monoid(tmp_path, capsys):
    assert main(["gen", "monoid", "--k", "2", "--m-min", "2", "--m-max", "4"]) == 0
    docs = [document_from_dict(d) for d in json.loads(capsys.readouterr().out)]
    assert len(docs) == 9
    assert docs[0].spec.rank == 2


def test_gen_over_document_budget_exits_2(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the budget is checked before generating")

    monkeypatch.setattr(corpus, "monoid_document", refuse)
    assert main(["gen", "monoid", "--k", "9"]) == 2
    assert capsys.readouterr() == (
        "", "error: would generate 9^9 documents, over the limit of 100000\n")


def test_gen_monoid_bad_range(capsys):
    assert main(["gen", "monoid", "--k", "2", "--m-min", "0"]) == 2
    assert "m-min" in capsys.readouterr().err


def test_gen_polynomial_family_deterministic(capsys):
    assert main(["gen", "polynomial-family", "--count", "5", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "polynomial-family", "--count", "5", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    docs = [document_from_dict(d) for d in json.loads(first)]
    assert len(docs) == 5


@pytest.mark.parametrize("flag, value", [
    ("--max-vertices", "0"),
    ("--max-rank", "0"),
    ("--count", "-3"),
])
def test_gen_polynomial_family_bad_parameters(flag, value, capsys):
    args = ["gen", "polynomial-family", "--count", "1", "--seed", "1", flag, value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag[2:] in captured.err


def test_closed_output_pipe_exits_141_quietly():
    # A reader that stops early (`evansk gen monoid --k 4 | head -c 1`):
    # the 2 MB report cannot fit in the pipe, so the writer meets the
    # closed end and must stop with the shell's SIGPIPE status, no message.
    env = dict(os.environ)
    src = str(Path(evansk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "evansk.cli", "gen", "monoid", "--k", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def _run_limited(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess that caps its own address space at 1 GB."""
    env = dict(os.environ)
    src = str(Path(evansk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limited = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
               "from evansk.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", limited, *argv],
                          capture_output=True, text=True, env=env, timeout=20)


def test_rank_30_gcd_2_text_verdict_in_bounded_memory(tmp_path):
    # H_p = Z2^C(29, p) has 2^29 summands over the page; as runs of
    # invariant factors the text verdict needs one per degree.
    path = tmp_path / "rank30.json"
    path.write_text(dumps_document(monoid_document([3] * 30)), encoding="utf-8")
    proc = _run_limited(["verdict", str(path)])
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "indeterminate; rule R8"
    columns = ["Z2"] + [f"Z2^{comb(29, p)}" for p in range(1, 29)] + ["Z2", "0"]
    assert lines[-1] == "E2 columns: " + ", ".join(columns)


def test_rank_30_gcd_2_json_verdict_refused_in_bounded_memory(tmp_path):
    # The JSON schema lists every torsion entry: 2^29 per page here.
    path = tmp_path / "rank30.json"
    path.write_text(dumps_document(monoid_document([3] * 30)), encoding="utf-8")
    proc = _run_limited(["verdict", str(path), "--format", "json"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: the JSON report would list {2 ** 29} torsion entries per page, "
        f"over the limit of {MAX_REPORT_TORSION}; --format text prints them as powers\n"
    )


def test_rank_30_complex_refused_in_bounded_memory(tmp_path):
    # Degree 15 alone would have C(30, 15) ~ 1.55e8 columns.
    path = tmp_path / "rank30.json"
    path.write_text(dumps_document(monoid_document([2] + [3] * 29)), encoding="utf-8")
    proc = _run_limited(["complex", str(path)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: the largest boundary would have {comb(30, 14) * comb(30, 15)} dense "
        f"cells, over the limit of {MAX_BOUNDARY_CELLS}\n"
    )


def test_rank_over_limit_refused_quickly(tmp_path):
    # Without the limit a rank-15 000 document runs for about a minute and
    # then fails on Python's limit on printing integers over 4 300 digits.
    path = tmp_path / "rank15000.json"
    doc = {"k": 15_000, "vertices": ["v"], "adjacency": [[[3]]] * 15_000}
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("verdict", "homology", "e2"):
        proc = _run_limited([command, str(path), "--format", "json"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: rank must be <= {MAX_RANK}, got 15000\n"


@pytest.mark.parametrize("argv, k", [
    (["gen", "monoid", "--k", "100000000", "--m-min", "1", "--m-max", "1"], 100_000_000),
    (["gen", "polynomial-family", "--count", "1", "--seed", "3", "--max-rank", "100000000"],
     79_542_917),  # the rank seed 3 draws
])
def test_gen_rank_over_limit_refused_in_bounded_memory(argv, k):
    # The monoid tuple would not fit in 1 GB, and the polynomial family
    # would make its k polynomials first.
    proc = _run_limited(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: rank must be <= {MAX_RANK}, got {k}\n"


def test_rank11_complex_answers_in_bounded_memory(tmp_path):
    # [3] * 11 has 213 444-cell boundaries, and its dense d o d products
    # would take about 2e8 multiply-adds; its 1x1 B_i commute, so the
    # complex is certified without them.
    path = tmp_path / "rank11.json"
    path.write_text(dumps_document(monoid_document([3] * 11)), encoding="utf-8")
    ranks = [comb(11, p) for p in range(12)]
    proc = _run_limited(["complex", str(path), "--degree", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:3] == [f"k = 11, ranks = {ranks}", "", "d_1 (1 x 11):"]
    proc = _run_limited(["complex", str(path), "--degree", "1", "--format", "json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)["complex"]
    assert report["ranks"] == ranks
    assert [d["matrix"] for d in report["differentials"]] == [[[-2] * 11]]


def test_many_vertex_document_refused_when_read(tmp_path):
    # Validation's pairwise products and the determinants would take about
    # k^2 n^3 = 8.64e8 multiply-adds; the refusal comes before either.
    path = tmp_path / "v600.json"
    doc = {"k": 2, "vertices": [f"v{i}" for i in range(600)], "adjacency": [[[1] * 600] * 600] * 2}
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "complex", "homology", "e2", "verdict"):
        proc = _run_limited([command, str(path)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path}: the spec's validation and determinants would "
                               f"take {4 * 600 ** 3} multiply-adds, over the limit of "
                               f"{MAX_PRODUCT_MADDS}\n")


def test_gen_vertices_over_limit_refused_in_bounded_memory():
    # Seed 3 draws n = 31 191 and k = 2: the base matrix alone would have
    # about 10^9 entries, drawn one by one.
    proc = _run_limited(["gen", "polynomial-family", "--count", "1", "--seed", "3",
                         "--max-vertices", "100000"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: the spec's validation and determinants would take "
                           f"{4 * 31_191 ** 3} multiply-adds, over the limit of "
                           f"{MAX_PRODUCT_MADDS}\n")


def test_only_limits_module_holds_limits():
    # Every size limit and every "over the limit" message lives in evansk.limits.
    holders = set()
    for path in Path(evansk.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if re.search(r"^MAX_[A-Z_]+ *=", text, re.M) or "over the limit of" in text:
            holders.add(path.name)
    assert holders == {"limits.py"}


def test_torsion_entries_estimate():
    page = k_theory_verdict(monoid_document([3] * 30).spec).e2
    assert limits.report_entries(page) == 2 ** 29 > MAX_REPORT_TORSION
    assert limits.report_entries([AbelianGroup(3, (2, 4, 4)), AbelianGroup.free(2)]) == 3
    for doc in random_polynomial_documents(200, seed=1):
        hs = homology(Analysis(doc.spec).complex)
        assert limits.report_entries(hs) == sum(len(g.torsion) for g in hs) < 1000


@pytest.fixture
def int_digits():
    """Sets Python's limit on the digits ``str`` writes, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes integers of any length")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["homology", "e2", "verdict"])
def test_torsion_order_past_the_digit_limit_exits_2(command, fmt, int_digits, tmp_path, capsys):
    # Rank 1 on 3 vertices with 3 001-digit loop counts: H0 has a 9 000-digit order.
    int_digits(4300)
    a = 10**3000
    path = tmp_path / "digits.json"
    path.write_text(dumps_document(GraphDocument(
        spec=spec_from_matrices([[[a, 1, 0], [0, a, 1], [1, 0, a]]]))), encoding="utf-8")
    assert main([command, str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the report would write an integer of 9000 digits, over the "
                            "limit of 4300 digits that Python writes\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["validate", "verdict"])
def test_non_commuting_witness_past_the_digit_limit_exits_2(command, fmt, int_digits, tmp_path,
                                                            capsys):
    # 3 001-digit entries whose products differ at (0,0): a^2 + 1 against a^2, 6 001 digits.
    int_digits(4300)
    a = 10**3000
    path = tmp_path / "witness.json"
    path.write_text(dumps_document(GraphDocument(
        spec=spec_from_matrices([[[a, 1], [0, a]], [[a, 0], [1, a]]]))), encoding="utf-8")
    assert main([command, str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the report would write an integer of 6001 digits, over the "
                            "limit of 4300 digits that Python writes\n")


def test_d_o_d_entry_past_the_digit_limit_is_a_limit_error(int_digits):
    int_digits(4300)
    a = 10**3000
    bs = (IntMatrix.from_rows([[0, a], [0, 0]]), IntMatrix.from_rows([[0, 0], [a, 0]]))
    with pytest.raises(limits.LimitError, match="^the report would write an integer of 6001 "):
        ChainComplex((2, 4, 2), (evans_boundary(bs, 1), evans_boundary(bs, 2)))


def test_digit_check_counts_exactly_from_bit_lengths(int_digits):
    int_digits(0)
    values = [n + e for b in range(2120, 2140) for n in (2**b, 10 ** (b * 3 // 10)) for e in (-1, 0)]
    digits = [len(str(n)) for n in values]
    int_digits(640)
    for n, d in zip(values, digits):
        if d <= 640:
            limits.check_digits([3, n])
        else:
            with pytest.raises(limits.LimitError, match=f"^the report would write an integer of {d} "):
                limits.check_digits([n, 3])
    limits.check_digits([10**640 - 1])
    with pytest.raises(limits.LimitError):
        limits.check_digits([10**640])
    int_digits(0)
    limits.check_digits([10**10000])


def test_r4_gcd_past_the_digit_limit_is_a_limit_error(int_digits):
    int_digits(640)
    g = 10**700
    spec = spec_from_matrices([[[g + 1]], [[2 * g + 1]], [[3 * g + 1]]])
    assert Analysis(spec).homology[0] == AbelianGroup.cyclic(g)
    with pytest.raises(limits.LimitError, match="^the report would write an integer of 701 digits"):
        k_theory_verdict(spec)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_torsion_limit_boundary(fmt, tmp_path, monkeypatch, capsys):
    # [3, 5, 7] lists 4 torsion entries per page, [3, 5, 7, 9] lists 8.
    monkeypatch.setattr(limits, "MAX_REPORT_TORSION", 4)
    for ms, status in (([3, 5, 7], 0), ([3, 5, 7, 9], 2 if fmt == "json" else 0)):
        path = tmp_path / "m.json"
        path.write_text(dumps_document(monoid_document(ms)), encoding="utf-8")
        for command in ("homology", "e2", "verdict"):
            assert main([command, str(path), "--format", fmt]) == status
            captured = capsys.readouterr()
            assert (captured.out == "") == (status == 2)
            assert captured.err.startswith("error: the JSON report would list 8 ") == (status == 2)


def test_gen_to_file(tmp_path):
    target = tmp_path / "corpus.json"
    assert main(["gen", "monoid", "--k", "1", "--m-min", "1", "--m-max", "3",
                 "--out", str(target)]) == 0
    docs = [document_from_dict(d) for d in json.loads(target.read_text(encoding="utf-8"))]
    assert [d.spec.adjacency[0][0, 0] for d in docs] == [1, 2, 3]


def _json_verdict(spec, path) -> tuple[int, dict]:
    path.write_text(dumps_document(GraphDocument(spec=spec)), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["verdict", str(path), "--format", "json"])
    return status, json.loads(buf.getvalue())


def _assert_verdict_parity(spec, path) -> None:
    status, report = _json_verdict(spec, path)
    checked = validate(spec)
    assert report["validation"] == {
        "valid": checked.ok,
        "violations": [
            {"kind": v.kind, "where": list(v.where), "message": v.message}
            for v in checked.violations
        ],
    }
    if not checked.ok:
        assert status == 1
        assert report["homology"] is report["e2"] is report["verdict"] is None
        with pytest.raises(SpecValidationError):
            k_theory_verdict(spec)
        return
    assert status == 0
    groups = homology(Analysis(spec).complex)
    assert report["homology"] == [g.to_dict() for g in groups]
    assert report["e2"] == {"k": spec.rank, "columns": report["homology"]}
    assert report["verdict"] == k_theory_verdict(spec).to_dict()


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_verdict_report_matches_library(tmp_path_factory, count, seed):
    path = tmp_path_factory.mktemp("parity") / "doc.json"
    for doc in random_polynomial_documents(count, seed):
        _assert_verdict_parity(doc.spec, path)


def test_verdict_report_matches_library_when_invalid(tmp_path):
    _assert_verdict_parity(NON_COMMUTING, tmp_path / "bad.json")


def test_verdict_report_builds_one_page(monoid_file, monkeypatch, capsys):
    stage = Analysis.homology  # the descriptor: no instance to run it on
    run_stage, runs = stage.fn, []

    def counted(analysis):
        runs.append(run_stage(analysis))
        return runs[-1]

    monkeypatch.setattr(stage, "fn", counted)
    assert main(["verdict", monoid_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(runs) == 1
    assert report["e2"] == report["verdict"]["e2"]
    assert report["e2"] == {"k": 3, "columns": [g.to_dict() for g in runs[0]]}


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every evansk module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("evansk")]:
        if vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def _refuse_complex_stage(monkeypatch) -> None:
    """Fail the test if anything reads ``Analysis.complex``."""
    def refuse(analysis):
        raise AssertionError("no complex is built on this path")

    monkeypatch.setattr(Analysis, "complex", property(refuse))


def _count_determinants(monkeypatch) -> list:
    calls = []
    det = IntMatrix.det

    def counted(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(IntMatrix, "det", counted)
    return calls


def _count_matmuls(monkeypatch) -> list:
    calls = []
    matmul = IntMatrix.__matmul__

    def counted(self, other):
        calls.append(self)
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return calls


UNIMODULAR_B1 = monoid_document([2, 4, 6, 8]).spec  # B = (-1, -3, -5, -7): rule R1
COPRIME_DETS = monoid_document([3, 4]).spec  # dets -2 and -3, none a unit: rule R3
# Two commuting circulants with dets 0 and -4: no proof, no closed form.
TWO_VERTEX_GCD_4 = spec_from_matrices([[[2, 1], [1, 2]], [[1, 2], [2, 1]]])
# poly-1-363 of seed 1: D = 2, yet B_1 and B_2 side by side have unit divisors, so H_0 = 0.
H0_ZERO = spec_from_matrices([[[13, 14], [14, 20]], [[12, 14], [14, 19]]])
# Its M_1 and M_2 alternated up to rank 16: still D = 2 and H_0 = 0, while its largest
# boundary would have C(16, 7) * C(16, 8) * 2^2 = 588 931 200 dense cells.
H0_ZERO_RANK_16 = spec_from_matrices([[[13, 14], [14, 20]], [[12, 14], [14, 19]]] * 8)


@pytest.mark.parametrize("spec, status", [
    (monoid_document([3, 5, 7]).spec, 0),
    (monoid_document([1, 1]).spec, 0),
    (UNIMODULAR_B1, 0),
    (NON_COMMUTING, 1),
    (COPRIME_DETS, 0),
    (TWO_VERTEX_GCD_4, 0),
    (H0_ZERO, 0),
])
def test_verdict_validates_and_builds_once(spec, status, tmp_path, monkeypatch):
    validations = _count_calls(monkeypatch, validate)
    _refuse_complex_stage(monkeypatch)
    assembled = _count_calls(monkeypatch, evans_boundary)
    coadjacency_builds = _count_calls(monkeypatch, coadjacencies)
    determinants = _count_determinants(monkeypatch)
    commutator_checks = _count_calls(monkeypatch, product_differences)
    assert _json_verdict(spec, tmp_path / "doc.json")[0] == status
    assert len(validations) == 1
    # Commutation is proved once, by validation; no complex is built.  gcd
    # det(B_i) = 1 proves every group zero and a one-vertex page comes from
    # the Künneth closed form: neither assembles a boundary.  H_0 = 0 is read
    # from d_1 alone; otherwise each boundary is assembled once, in order.
    assert len(commutator_checks) == (0 if spec.is_monoid else 1)
    degrees = [1, 2] if spec is TWO_VERTEX_GCD_4 else [1] if spec is H0_ZERO else []
    assert [p for _, p in assembled] == degrees
    # One vertex: the determinants are the loop counts' 1 - m_i, no matrix.
    builds_bs = status == 0 and not spec.is_monoid
    assert len(coadjacency_builds) == (1 if builds_bs else 0)
    assert len(determinants) == (spec.rank if builds_bs else 0)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_h0_zero_answers_past_the_cell_limit_and_complex_is_refused(fmt, tmp_path):
    # H_0 = 0 is read from d_1, a 2 x 32 matrix, before the cell limit is
    # checked; only d_2 .. d_16, and so `complex`, would need the big boundaries.
    path = tmp_path / "h0-zero-rank16.json"
    path.write_text(dumps_document(GraphDocument(spec=H0_ZERO_RANK_16)), encoding="utf-8")
    proc = _run_limited(["verdict", str(path), "--format", fmt])
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "json":
        report = json.loads(proc.stdout)
        assert report["verdict"]["rule"] == "R8"
        assert [g["pretty"] for g in report["e2"]["columns"]] == ["0"] * 17
        assert "complex" not in report["timing"]["seconds"]
    else:
        lines = proc.stdout.splitlines()
        assert lines[0] == "indeterminate; rule R8"
        assert lines[-1] == "E2 columns: " + ", ".join(["0"] * 17)
    proc = _run_limited(["complex", str(path), "--format", fmt])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the largest boundary would have 588931200 dense cells, "
                           f"over the limit of {MAX_BOUNDARY_CELLS}\n")


# A multi-vertex spec with D = gcd det(B_i) = 1 (det B_1 = -1).
TWO_VERTEX_D_1 = spec_from_matrices([[[1, 1], [1, 0]], [[2, 1], [1, 1]]])
PAGE_STAGES = ["validation", "coadjacencies", "determinants", "annihilator"]


@pytest.mark.parametrize("spec, degrees", [
    (TWO_VERTEX_D_1, []),  # the trivial page
    (monoid_document([3, 5, 7]).spec, []),  # g = 2: the Künneth closed form
    (H0_ZERO, [1]),  # d_1's divisors alone: H_0 = 0
    (TWO_VERTEX_GCD_4, [1, 2]),  # Smith normal form of each boundary
], ids=["D=1", "one-vertex", "H0=0", "snf"])
def test_timing_lists_each_stage_run_then_total(spec, degrees, tmp_path, monkeypatch, capsys):
    assert (Analysis(spec).annihilator == 1) == (spec is TWO_VERTEX_D_1)
    path = tmp_path / "doc.json"
    path.write_text(dumps_document(GraphDocument(spec=spec)), encoding="utf-8")
    # One vertex: the determinants are read from the loop counts.
    page = [s for s in PAGE_STAGES if not (spec.is_monoid and s == "coadjacencies")]
    homology_keys = page + ["homology"]
    expected = {
        "validate": (["validation"], []),
        "complex": (["validation", "coadjacencies", "complex"], list(range(1, spec.rank + 1))),
        "homology": (homology_keys, degrees),
        "e2": (homology_keys, degrees),
        "verdict": (homology_keys + ["verdict"], degrees),
    }
    assembled = _count_calls(monkeypatch, evans_boundary)
    for command, (stages, command_degrees) in expected.items():
        assembled.clear()
        assert main([command, str(path), "--format", "json"]) == 0
        seconds = json.loads(capsys.readouterr().out)["timing"]["seconds"]
        assert list(seconds) == stages + ["total"], command
        assert all(t >= 0 for t in seconds.values()), command
        # Each figure is rounded to 1e-6 s, so the sum may gain that much per key.
        assert sum(seconds[s] for s in stages) <= seconds["total"] + 1e-6 * len(seconds)
        assert [p for _, p in assembled] == command_degrees, command


def test_total_counts_reading_the_document(monoid_file, monkeypatch, capsys):
    load = evansk.cli.load_document

    def slow_load(path):
        time.sleep(0.05)
        return load(path)

    monkeypatch.setattr(evansk.cli, "load_document", slow_load)
    assert main(["verdict", monoid_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["timing"]["seconds"]["total"] >= 0.05


@pytest.mark.parametrize("run", [
    lambda: homology(Analysis(monoid_document([3, 5, 7]).spec).complex),
    lambda: Analysis(TWO_VERTEX_GCD_4).verdict,
], ids=["homology", "verdict"])
def test_each_complex_runs_no_dense_product(run, monkeypatch):
    # Validation proves d o d = 0 from the commutators, on packed rows.
    products = _count_calls(monkeypatch, differential_product_witness)
    matmuls = _count_matmuls(monkeypatch)
    run()
    assert (len(products), len(matmuls)) == (0, 0)


@pytest.mark.parametrize("command", ["validate", "homology", "e2", "verdict"])
def test_no_report_behind_the_page_multiplies_matrices(command, tmp_path, monkeypatch, capsys):
    specs = [monoid_document([3, 5, 7]).spec, TWO_VERTEX_GCD_4, TWO_VERTEX_D_1, H0_ZERO,
             NON_COMMUTING, *(doc.spec for doc in random_polynomial_documents(60, seed=1))]
    paths = []
    for i, spec in enumerate(specs):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(dumps_document(GraphDocument(spec=spec)), encoding="utf-8")
    products = _count_calls(monkeypatch, differential_product_witness)
    matmuls = _count_matmuls(monkeypatch)
    _refuse_complex_stage(monkeypatch)
    for path in paths:
        for fmt in ("text", "json"):
            assert main([command, str(path), "--format", fmt]) in (0, 1)
    capsys.readouterr()
    assert (len(products), len(matmuls)) == (0, 0)


@pytest.mark.parametrize("spec, status", [
    (TWO_VERTEX_GCD_4, 0),
    (H0_ZERO, 0),
    (NON_COMMUTING, 1),
    (monoid_document([3, 5, 7]).spec, 0),
], ids=["gcd4", "H0=0", "non-commuting", "one-vertex"])
def test_complex_proves_commutation_once(spec, status, tmp_path, monkeypatch, capsys):
    # Validation's packed comparison of each pair is the one proof of
    # d o d = 0: each boundary is then assembled once, and none is multiplied.
    path = tmp_path / "doc.json"
    path.write_text(dumps_document(GraphDocument(spec=spec)), encoding="utf-8")
    commutator_checks = _count_calls(monkeypatch, product_differences)
    assembled = _count_calls(monkeypatch, evans_boundary)
    products = _count_calls(monkeypatch, differential_product_witness)
    matmuls = _count_matmuls(monkeypatch)
    for fmt in ("text", "json"):
        for calls in (commutator_checks, assembled, products, matmuls):
            calls.clear()
        assert main(["complex", str(path), "--format", fmt]) == status
        capsys.readouterr()
        assert len(commutator_checks) == (0 if spec.is_monoid else 1), fmt
        assert [p for _, p in assembled] == ([] if status else list(range(1, spec.rank + 1))), fmt
        assert (len(products), len(matmuls)) == (0, 0), fmt


@pytest.mark.parametrize("spec", [
    monoid_document([3, 5, 7]).spec,
    monoid_document([1, 1]).spec,
    spec_from_matrices([[[1, 1], [1, 0]], [[2, 1], [1, 1]]]),
    *(doc.spec for doc in random_polynomial_documents(3, seed=5)),
])
def test_library_verdict_builds_coadjacencies_once(spec, monkeypatch):
    coadjacency_builds = _count_calls(monkeypatch, coadjacencies)
    determinants = _count_determinants(monkeypatch)
    k_theory_verdict(spec)
    # One vertex: the determinants are the loop counts' 1 - m_i, no matrix.
    assert len(coadjacency_builds) == (0 if spec.is_monoid else 1)
    assert len(determinants) == (0 if spec.is_monoid else spec.rank)


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps_document(monoid_document([2, 3, 4, 5])), encoding="utf-8")
    target = tmp_path / "d2.txt"
    assert main(["complex", str(path), "--degree", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    written = target.read_text(encoding="utf-8")
    assert "d_2 (" in written and "d_1 (" not in written

    assert main(["complex", str(path)]) == 0
    full = capsys.readouterr().out
    assert all(f"d_{p} (" in full for p in range(1, 5))

    with pytest.raises(SystemExit) as exc:
        main(["complex", str(path), "--degree", "two"])
    assert exc.value.code == 2
    capsys.readouterr()

    assert main(["complex", str(path)]) == 0
    assert capsys.readouterr().out == full


def test_validation_failure_precedes_degree_error(invalid_file, capsys):
    assert main(["complex", invalid_file, "--degree", "9"]) == 1
    captured = capsys.readouterr()
    assert "do not commute" in captured.out
    assert captured.err == ""


PARSE_TABLE = [
    [], ["-h"], ["bogus"], ["verd", "f"], ["verdict"], ["verdict", "f", "extra"],
    ["verdict", "f", "--format", "xml"], ["--format=json"], ["--form", "json"],
    ["verdict", "f", "-h"], ["verdict", "--", "f"], ["-h", "verdict"],
    ["complex", "f", "--degree", "two"], ["gen"], ["gen", "monoid", "--k", "2", "x"],
    ["verdict", "f", "--format", "json"], ["complex", "f", "--degree", "2", "--out", "x"],
    ["gen", "monoid", "--k", "2"],
]
PARSE_TOKENS = sorted({token for argv in PARSE_TABLE for token in argv})


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """(exit code, namespace, stdout, stderr) of one parse; None for what did not happen."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = (None, vars(parse(list(argv))))
        except SystemExit as exc:
            outcome = (exc.code, None)
    return (*outcome, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=" ".join)
def test_one_step_parse_equals_argparse(argv):
    assert _parse_outcome(_parse, argv) == _parse_outcome(_build_parser().parse_args, argv)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_TOKENS), max_size=6))
def test_one_step_parse_equals_argparse_property(argv):
    assert _parse_outcome(_parse, argv) == _parse_outcome(_build_parser().parse_args, argv)
