"""Expected verdicts for multi-vertex documents, computed independently of
the verdict path.

The oracle builds every boundary by the direct construction (coordinate
deletion, not the block recursion the verdict path uses), takes each one
through the certified Smith normal form (``U @ M @ V == S`` is checked,
and ``U``, ``V`` must have determinant +-1), reads homology off the
divisors, and applies the verdict table of the README by hand.

For ``DEFAULT_SEED`` the keys are stored under ``reference/`` so that the
default run needs no oracle time.  Regenerate them with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from math import comb, gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
STORED = HERE / "reference"
DEFAULT_SEED = 1


class ReferenceError(AssertionError):
    """The oracle's own certificate failed."""


def stored_path(workload: str, seed: int) -> Path:
    return STORED / f"{workload}-seed{seed}.json"


def _product(a, b) -> list[list[int]]:
    """``a @ b`` as lists, skipping the zeros of ``a``: the boundaries and
    transforms are sparse, and the dense product dominated the oracle."""
    out = []
    for i in range(a.rows):
        acc = [0] * b.cols
        for j, x in enumerate(a.row(i)):
            if x:
                acc = [s + x * t for s, t in zip(acc, b.row(j))]
        out.append(acc)
    return out


def certified_divisors(lib, m) -> tuple[int, ...]:
    res = lib.snf.smith_normal_form(m)
    mv = lib.intmat.IntMatrix.from_rows(_product(m, res.right)) if m.rows else m
    if m.rows and m.cols and _product(res.left, mv) != res.matrix.to_lists():
        raise ReferenceError(f"SNF certificate U M V = S fails on a {m.rows}x{m.cols} matrix")
    if abs(res.left.det()) != 1 or abs(res.right.det()) != 1:
        raise ReferenceError("SNF transform is not unimodular")
    s = res.matrix
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j and s[i, j]:
                raise ReferenceError("SNF matrix is not diagonal")
    return res.divisors


def _group_sum(lib, a: list, b: list) -> list:
    """Direct sum, renormalized through the certified SNF of a diagonal."""
    torsion = a[1] + b[1]
    n = len(torsion)
    diag = [[torsion[i] if i == j else 0 for j in range(n)] for i in range(n)]
    divisors = certified_divisors(lib, lib.intmat.IntMatrix(n, n, diag)) if n else ()
    return [a[0] + b[0], [d for d in divisors if d > 1]]


def oracle_key(lib, spec) -> list:
    """``(kind, rule, K0, K1, ses, E2 columns)`` for one spec."""
    k, n = spec.rank, spec.num_vertices
    ranks = [comb(k, p) * n for p in range(k + 1)]
    divisors = [
        certified_divisors(lib, lib.complexes.build_differential_direct(spec, p))
        for p in range(1, k + 1)
    ]
    hs = []
    for p in range(k + 1):
        rank_in = sum(1 for d in divisors[p - 1] if d) if p >= 1 else 0
        out = divisors[p] if p < k else ()
        rank_out = sum(1 for d in out if d)
        hs.append([ranks[p] - rank_in - rank_out, [d for d in out if d > 1]])
    bs = [
        lib.intmat.IntMatrix(n, n, [[(r == c) - m[c, r] for c in range(n)] for r in range(n)])
        for m in spec.adjacency
    ]
    unimodular = any(all(d == 1 for d in certified_divisors(lib, b)) for b in bs)
    return table_key(lib, hs, unimodular, [b[0, 0] for b in bs] if n == 1 else None)


def table_key(lib, hs: list, unimodular: bool, scalars: list[int] | None) -> list:
    """The verdict table of the README, applied by hand to homology ``hs``
    (``[free rank, torsion]`` per degree).  ``unimodular`` says whether some
    co-adjacency matrix is; ``scalars`` are the co-adjacency scalars of a
    one-vertex graph, None for more vertices."""
    k = len(hs) - 1
    zero = [0, []]
    if unimodular:
        return ["trivial", "R1", zero, zero, None, hs]
    if scalars is not None:
        g = gcd(*scalars)
        if g == 0:
            free = [2 ** (k - 1), []]
            return ["determined", "R2", free, free, None, hs]
        if g == 1:
            return ["trivial", "R3", zero, zero, None, hs]
        if k == 3:
            return ["short_exact_sequence", "R4", None, [0, [g, g]], [[0, [g]], [0, [g]]], hs]
    if k == 1:
        return ["determined", "R5", hs[0], hs[1], None, hs]
    if k == 2:
        return ["determined", "R6", _group_sum(lib, hs[0], hs[2]), hs[1], None, hs]
    if k == 3 and zero in (hs[0], hs[3]):
        k1 = _group_sum(lib, hs[1], hs[3])
        if not hs[2][1]:
            return ["determined", "R7", _group_sum(lib, hs[0], hs[2]), k1, None, hs]
        return ["short_exact_sequence", "R7", None, k1, [hs[0], hs[2]], hs]
    return ["indeterminate", "R8", None, None, None, hs]


def expected_keys(lib, workload: str, seed: int, size: str, specs) -> list:
    """Stored keys for the default seed at full size, the oracle otherwise."""
    path = stored_path(workload, seed)
    if size == "full" and seed == DEFAULT_SEED and path.exists():
        keys = json.loads(path.read_text(encoding="utf-8"))
        if len(keys) != len(specs):
            raise ReferenceError(f"{path.name} holds {len(keys)} keys for {len(specs)} documents")
        return keys
    return [oracle_key(lib, s) for s in specs]


def main() -> int:
    import run
    from workloads import WORKLOADS

    lib = run.import_library()
    STORED.mkdir(exist_ok=True)
    for name in ("cyclic-large", "poly-cli"):
        workdir = run.WORK / f"reference-{name}"
        w = WORKLOADS[name](lib, DEFAULT_SEED, "full", workdir)
        try:
            w.generate()
            keys = [oracle_key(lib, s) for s in w.specs]
        finally:
            run.remove_tree(workdir)
        path = stored_path(name, DEFAULT_SEED)
        path.write_text(json.dumps(keys, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {len(keys)} keys to {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
