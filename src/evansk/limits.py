"""Every size limit, each checked from an estimate before the work it guards.

A rank-``k`` complex on ``n`` vertices has ``C(k, p) * n`` generators in degree ``p``, so each
estimate is known before work starts.  Validation, under the spec estimate, proves commutation
once; a complex meets the cell limit alone.  Checks read these globals when run; no flag lifts one."""

import sys
from math import comb

MAX_RANK = 1000  # validation compares every pair of coordinates
MAX_PRODUCT_MADDS = 10**8  # multiply-adds of validation and determinants
MAX_BOUNDARY_CELLS = 10**7  # cells of one dense boundary
MAX_REPORT_TORSION = 10**6  # torsion entries per JSON page; a text page prints powers
MAX_DOCUMENTS = 10**5  # documents per generator call


class LimitError(ValueError):
    """An input over a size limit; the message gives the estimate and the limit."""


def _check(amount: int, limit: int, what: str, hint: str = "") -> None:
    if amount > limit:
        raise LimitError(f"{what}, over the limit of {limit}{hint}")


def spec_madds(k: int, n: int) -> int:
    """Bounds validation's packed products (``k(k-1) n^2`` multiply-adds by ``n``-slot
    integers when ``n > 1``, witnesses included) plus ``k`` determinants."""
    return k * k * n ** 3


def dense_cells(k: int, n: int) -> int:
    """Cells of the largest dense boundary of a rank-``k`` complex on ``n`` vertices."""
    return max(comb(k, p - 1) * comb(k, p) for p in range(1, k + 1)) * n * n


def report_entries(groups) -> int:
    """Torsion entries of ``groups`` once expanded, as a JSON report lists them."""
    return sum(m for g in groups for _, m in g.runs)


def check_spec(k: int, n: int) -> None:
    if k > MAX_RANK:  # first: the work of a huge rank is huge at any n
        raise LimitError(f"rank must be <= {MAX_RANK}, got {k}")
    madds = spec_madds(k, n)
    _check(madds, MAX_PRODUCT_MADDS,
           f"the spec's validation and determinants would take {madds} multiply-adds")


def check_complex(k: int, n: int) -> None:
    cells = dense_cells(k, n)
    _check(cells, MAX_BOUNDARY_CELLS, f"the largest boundary would have {cells} dense cells")


def check_report(groups) -> None:
    entries = report_entries(groups)
    _check(entries, MAX_REPORT_TORSION,
           f"the JSON report would list {entries} torsion entries per page",
           "; --format text prints them as powers")


def check_digits(values) -> None:
    """Every int of ``values`` (each ``>= 0``) has at most ``sys.get_int_max_str_digits()``
    decimal digits (0: no limit), so a report can write it; counted without ``str``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent before Python 3.10.7
    n = max(values, default=0)
    bits = n.bit_length()
    if limit and bits > 3 * limit:  # fewer bits hold at most `limit` digits
        digits = (bits - 1) * 3010299956 // 10**10 + 1  # log10 2 > 0.3010299956: at most one short
        while n >= 10 ** digits:
            digits += 1
        _check(digits, limit, f"the report would write an integer of {digits} digits",
               " digits that Python writes")


def check_documents(values: int, k: int | None = None) -> None:
    """``values`` documents, or ``values ** k``; for ``values >= 2`` a capped ``k`` passes."""
    if k is None:
        return _check(values, MAX_DOCUMENTS, f"would generate {values} documents")
    _check(values ** min(k, MAX_DOCUMENTS.bit_length()), MAX_DOCUMENTS,
           f"would generate {values}^{k} documents")
