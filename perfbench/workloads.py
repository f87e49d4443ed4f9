"""The benchmark's four workloads: seeded inputs, the call under test, and
the expected answer for every document.

Each workload turns ``--seed`` into fixed inputs (``data``) and a list of
documents built from them (a *pass*); ``twin`` builds the same documents
for the frozen control copy of the program.  The timed loop checks each
output against an expectation that is computed outside the timed loop:

* monoid workloads are checked against the gcd closed form and the rule
  the verdict table prescribes for the loop counts;
* multi-vertex workloads are checked against a stored reference for
  ``reference.DEFAULT_SEED`` and, for any other seed, against the direct
  construction plus the certified Smith normal form (``reference.py``).

Only ``(kind, rule, K0, K1, ses, E2 columns)`` is compared: the free-text
``justification`` and ``commentary`` fields may change wording freely.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from math import comb, gcd, isqrt
from pathlib import Path

import reference

# Document sizes.  The smoke configuration shrinks every workload so that
# all four run in a few seconds; the full sizes are the benchmark's.
MONOID_K4_LOOPS = {"full": range(1, 10), "smoke": range(1, 4)}
CYCLIC = {"full": (8, 6, 4), "smoke": (4, 3, 2)}  # (cycle length, k, documents)
POLY_CLI_COUNT = {"full": 1000, "smoke": 20}
WIDE_G = {"full": (12, 5.0, 7.0), "smoke": (4, 2.0, 3.0)}  # (strata, log10 lo, log10 hi)


def next_prime(n: int) -> int:
    while n < 2 or any(n % p == 0 for p in range(2, isqrt(n) + 1)):
        n += 1
    return n


def verdict_key(d: dict) -> list:
    """The compared part of a verdict, from its JSON form."""

    def group(g):
        return None if g is None else [g["free_rank"], list(g["torsion"])]

    ses = d["ses"]
    return [
        d["kind"],
        d["rule"],
        group(d["K0"]),
        group(d["K1"]),
        None if ses is None else [group(ses["sub"]), group(ses["quotient"])],
        [group(c) for c in d["e2"]["columns"]],
    ]


def monoid_expected(lib, ms) -> list:
    """Expected verdict key of a one-vertex spec: homology from the gcd
    closed form, the rule from the verdict table."""
    bs = [1 - m for m in ms]
    k = len(bs)
    if any(bs):
        hs = [[g.free_rank, list(g.torsion)] for g in lib.spectral.monoid_closed_form(bs)]
    else:  # the closed form excludes the zero complex: free homology
        hs = [[comb(k, p), []] for p in range(k + 1)]
    return reference.table_key(lib, hs, any(abs(b) == 1 for b in bs), bs)


class Workload:
    """One set of documents and the call that takes each to a verdict."""

    name = ""
    ranks: tuple[int, ...] = ()

    def __init__(self, lib, seed: int, size: str, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.docs: list = []

    def generate(self) -> None:
        """Draw the seeded inputs (``self.data``) and build the documents."""
        raise NotImplementedError

    def build(self) -> list:
        """The documents of ``self.data``, as this workload's library takes them."""
        raise NotImplementedError

    def twin(self, lib) -> "Workload":
        """The same documents, built for another copy of the library."""
        other = type(self)(lib, self.seed, self.size, self.workdir)
        other.data, other.ranks = self.data, self.ranks
        other.docs = other.build()
        return other

    def run_one(self, doc):
        raise NotImplementedError

    def key_of(self, output) -> list:
        raise NotImplementedError

    def expected(self) -> list:
        raise NotImplementedError

    def write(self) -> None:
        """Put the documents where the program reads them, if it reads files."""

    def oracle_expected(self) -> list:
        """Stored reference or oracle keys for the multi-vertex ``specs``."""
        return reference.expected_keys(self.lib, self.name, self.seed, self.size, self.specs)

    def monoid_specs(self) -> list:
        return [self.lib.kgraph.monoid_spec(ms) for ms in self.data]

    def warm_up(self) -> None:
        # Fill lazily built tables (tuple orders per rank) before timing.
        for k in self.ranks:
            self.lib.spectral.k_theory_verdict(self.lib.kgraph.monoid_spec([3] * k))


class LibraryWorkload(Workload):
    """Documents are specs; each goes through ``k_theory_verdict``."""

    def run_one(self, spec):
        return self.lib.spectral.k_theory_verdict(spec)

    def key_of(self, verdict) -> list:
        return verdict_key(verdict.to_dict())


class MonoidK4(LibraryWorkload):
    name = "monoid-k4"
    ranks = (4,)

    def generate(self) -> None:
        loops = list(MONOID_K4_LOOPS[self.size])
        self.data = [(a, b, c, d) for a in loops for b in loops for c in loops for d in loops]
        random.Random(f"{self.name}/{self.seed}").shuffle(self.data)
        self.docs = self.build()

    build = Workload.monoid_specs

    def expected(self) -> list:
        return [monoid_expected(self.lib, ms) for ms in self.data]


class MonoidWideG(LibraryWorkload):
    name = "monoid-wide-g"
    ranks = (3,)

    def generate(self) -> None:
        # One g per equal slice of [lo, hi] in log10, near the slice's middle,
        # so every seed draws the same spread of g.  g is the next prime: the
        # R4 commentary factors g*d for every divisor d of g, so a composite
        # g costs what its divisors dictate, and the slowest spec of a pass
        # varied twofold between seeds.  With g prime the cost is the O(g) scan.
        strata, lo, hi = WIDE_G[self.size]
        rng = random.Random(f"{self.name}/{self.seed}")
        self.data = []
        for j in range(strata):
            g = next_prime(round(10 ** (lo + (hi - lo) * (j + 0.45 + 0.1 * rng.random()) / strata)))
            while True:
                cs = [rng.randint(1, 4) for _ in range(3)]
                if gcd(*cs) == 1:
                    break
            self.data.append(tuple(1 + g * c for c in cs))
        rng.shuffle(self.data)
        self.docs = self.build()

    build = Workload.monoid_specs

    def expected(self) -> list:
        return [monoid_expected(self.lib, ms) for ms in self.data]


class CyclicLarge(LibraryWorkload):
    name = "cyclic-large"

    def generate(self) -> None:
        n, k, count = CYCLIC[self.size]
        self.ranks = (k,)
        rng = random.Random(f"{self.name}/{self.seed}")
        intmat = self.lib.intmat.IntMatrix
        self.data = []
        for idx in range(count):
            mats = []
            while len(mats) < k:
                # q_i is a sum of three seeded powers of P, so q_i(1) = 3: every
                # B_i = I - q_i(P)^T has the factor -2 on the all-ones vector,
                # and homology carries 2-torsion for the checks to compare.
                coeffs = [0] * n
                for _ in range(3):
                    coeffs[rng.randrange(n)] += 1
                # q(P) for the cyclic shift P is the circulant of the coefficients.
                m = [[coeffs[(c - r) % n] for c in range(n)] for r in range(n)]
                b = [[(r == c) - m[c][r] for c in range(n)] for r in range(n)]
                if abs(intmat.from_rows(b).det()) == 1:
                    continue  # unimodular B_i: rule R1 would skip the SNF work
                mats.append(m)
            self.data.append({
                "name": f"{self.name}-{self.seed}-{idx}",
                "k": k,
                "vertices": [f"v{i}" for i in range(n)],
                "adjacency": mats,
            })
        self.docs = self.build()

    def build(self) -> list:
        self.specs = [self.lib.documents.document_from_dict(d).spec for d in self.data]
        return self.specs

    def expected(self) -> list:
        return self.oracle_expected()


class PolyCli(Workload):
    name = "poly-cli"

    def generate(self) -> None:
        lib = self.lib
        gen = lib.corpus.random_polynomial_documents(POLY_CLI_COUNT[self.size], self.seed)
        self.specs = [d.spec for d in gen]
        self.ranks = tuple(sorted({s.rank for s in self.specs}))
        texts = [lib.documents.dumps_document(d) for d in gen]
        self.data = [(str(self.workdir / f"doc-{i:05d}.json"), t) for i, t in enumerate(texts)]
        self.docs = self.build()

    def build(self) -> list:
        return [path for path, _ in self.data]

    def write(self) -> None:
        # The documents of one seed are the same on every set-up, so only
        # the first set-up of a run writes them.
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, text in self.data:
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)

    def run_one(self, path: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.lib.cli.main(["verdict", path, "--format", "json"])
        return status, buf.getvalue()

    def key_of(self, output) -> list:
        status, text = output
        if status != 0:
            return ["exit status", status]
        return verdict_key(json.loads(text)["verdict"])

    def expected(self) -> list:
        return self.oracle_expected()

    def warm_up(self) -> None:
        self.run_one(self.docs[0])


WORKLOADS = {w.name: w for w in (MonoidK4, CyclicLarge, PolyCli, MonoidWideG)}
