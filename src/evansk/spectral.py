"""The E2 page and K-theory verdicts.

The spectral sequence of a row-finite source-free k-graph has E2 entries
equal to the homology of the Evans complex in every even row, zero
elsewhere, and converges to the K-theory of the graph algebra.  The page
itself never determines K-theory on its own; the verdict engine applies
the strongest applicable closed-form or collapse argument and refuses to
guess past it.

Dispatch order (first match wins);
all verdicts carry the full E2 page:

    R1  some co-adjacency unimodular      -> K0 = K1 = 0
    R2  one vertex, all B_i = 0           -> K0 = K1 = Z^(2^(k-1))
    R3  one vertex, gcd of B_i = 1        -> K0 = K1 = 0
    R4  one vertex, k = 3 (g >= 2)        -> K1 = Zg^2, ses Zg -> K0 -> Zg
    R5  k = 1                             -> K0 = H0, K1 = H1
    R6  k = 2                             -> K1 = H1, K0 = H0 + H2
    R7  k = 3, H3 = 0 or H0 = 0           -> K1 = H1 + H3; K0 from H0, H2
    R8  anything else                     -> indeterminate, E2 page only

R5-R7 are collapse arguments (the page has too few nonzero columns for
any later differential to act, and the relevant extensions split off free
groups); they are flagged as derived in the justification text rather
than quoted closed forms.  R4's extension problem is genuinely open: the
candidate middle groups are listed as commentary only.

:class:`Analysis` is the pipeline behind every verdict.  One number
drives it: ``D = gcd(det B_1, ..., det B_k)`` (a zero determinant counts
as in ``gcd(0, x) = |x|``), its ``annihilator`` stage.  By the
Koszul-complex argument of Evans, "On the K-theory of higher rank graph
C*-algebras", NYJM 14 (2008), ``D`` annihilates every ``H_p``: the
adjugate ``adj(B_i)`` is an integer polynomial in ``B_i``, so it commutes
with every ``B_j``, and ``h = adj(B_i)`` placed on the transposed signed
deletions of coordinate ``i`` satisfies ``d h + h d = det(B_i) * 1`` in
every degree.  The homology stage then takes the first route that
applies:

1. ``D = 1`` proves every group zero.
2. A one-vertex spec has ``det B_i = B_i = 1 - m_i``, read straight from
   its loop counts, so ``D`` is the gcd ``g`` of the scalars, and the spec
   is the tensor product of the two-term complexes ``Z --B_i--> Z``.  The
   Künneth theorem gives every group from ``g`` alone
   (:func:`monoid_closed_form`).  This route builds no matrix at all.
3. Otherwise the boundaries are assembled in degree order, each once,
   from the signed-deletion pattern (:func:`~evansk.complexes.evans_boundary`),
   and each goes through Smith normal form as it comes.  ``d_1`` is the
   ``B_i`` side by side.  If its divisors are all 1, then
   ``H_0 = coker [B_1 ... B_k] = 0``, and every group is zero: the Evans
   complex is the Koszul complex of ``M = Z^n`` over ``Z[x_1, ..., x_k]``,
   ``x_i`` acting by ``B_i``; ``M = (x) M`` gives an ``a`` in ``1 + (x)``
   with ``a M = 0`` (Nakayama, Atiyah-Macdonald 2.5), and ``(x)`` kills
   every ``H_p`` (Bruns-Herzog 1.6.5), so ``a`` acts on ``H_p`` as both 0
   and 1.  Only past that exit is the complex's size checked
   (:func:`~evansk.limits.check_complex`) and ``d_2 .. d_k`` assembled.

The third route reads the divisors of each boundary from
:func:`~evansk.snf.two_power_divisors` when ``D = 2**e`` with ``e >= 1``,
and from :func:`~evansk.snf.elementary_divisors` otherwise.  Since
``coker d_(p+1)`` is ``H_p`` plus the free group ``im d_p``, its torsion
is ``H_p``, which ``D`` kills, so every nonzero divisor of ``d_(p+1)``
divides ``D``: then a power of two at most ``2**e``.  Its page is checked
against identities every Evans page keeps: the free ranks' alternating
sum is the complex's Euler characteristic, 0; when ``D != 0`` every group
is finite and ``D`` kills it, and the orders' alternating product is 1 for
``k >= 2`` (each ``B_j`` acts on a Koszul complex of finite homology), while
``|H_0| = D`` and ``H_1 = 0`` for ``k = 1``.  A page that breaks one raises
:class:`PageIdentityError`, a fault of the program, never of the input.

No route builds a :class:`~evansk.complexes.ChainComplex` or proves
commutation again: validation has proved it, and ``d o d = 0`` follows.
The groups are the E2 page's columns, so the page is the ``homology``
tuple itself.  The last stage applies the rules above to it; rules R2-R4
take ``g`` as ``D``, the same gcd of the determinants.
``Analysis.seconds`` times each stage run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import pairwise
from math import comb, gcd, prod
from collections.abc import Sequence
from time import perf_counter

from . import limits
from .complexes import ChainComplex, build_complex, evans_boundary
from .homology import TRIVIAL_GROUP, AbelianGroup, groups_from_divisors
from .intmat import IntMatrix
from .kgraph import KGraphSpec, SpecValidationError, ValidationReport, coadjacencies, validate
from .snf import elementary_divisors, two_power_divisors


def e2_dict(columns: Sequence[AbelianGroup]) -> dict:
    """The JSON form of the E2 page whose columns ``0..k`` are ``columns``.

    Equal columns share one dict, so the result is read-only."""
    return _e2_dict(columns, _group_dicts(columns))


def _group_dicts(groups) -> dict:
    """One ``to_dict()`` per distinct group of ``groups``, keyed by the group; None maps to None."""
    return {g: None if g is None else g.to_dict() for g in set(groups)}


def _e2_dict(columns: Sequence[AbelianGroup], dicts: dict) -> dict:
    return {"k": len(columns) - 1, "columns": [dicts[g] for g in columns]}


class VerdictKind(str, Enum):
    TRIVIAL = "trivial"
    DETERMINED = "determined"
    SHORT_EXACT_SEQUENCE = "short_exact_sequence"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class KTheoryVerdict:
    kind: VerdictKind
    rule: str
    e2: tuple[AbelianGroup, ...]
    k0: AbelianGroup | None = None
    k1: AbelianGroup | None = None
    ses: tuple[AbelianGroup, AbelianGroup] | None = None  # (sub, quotient) for K0
    justification: str = ""
    commentary: str | None = None

    def to_dict(self) -> dict:
        """The JSON form of the verdict.  ``K0``, ``K1``, ``ses`` and the page's
        columns share one dict per distinct group, so the result is read-only."""
        ses = self.ses
        dicts = _group_dicts((*self.e2, *(ses or ()), self.k0, self.k1))
        return {
            "kind": self.kind.value,
            "K0": dicts[self.k0],
            "K1": dicts[self.k1],
            "ses": None if ses is None else {"sub": dicts[ses[0]], "quotient": dicts[ses[1]]},
            "rule": self.rule,
            "justification": self.justification,
            "commentary": self.commentary,
            "e2": _e2_dict(self.e2, dicts),
        }


def monoid_closed_form(b_values: Sequence[int]) -> list[AbelianGroup]:
    """Homology of a one-vertex complex from the gcd ``g`` of its scalars.

    Degree ``p`` is ``(Z_g)^C(k-1, p)`` when ``g != 0``, so a unit gcd
    makes every group trivial; when every scalar is 0 the complex is the
    torus's, with free homology ``Z^C(k, p)``.
    """
    k = len(b_values)
    g = gcd(*b_values)
    if g == 0:
        return [AbelianGroup.free(comb(k, p)) for p in range(k + 1)]
    return [AbelianGroup.cyclic(g, comb(k - 1, p)) for p in range(k)] + [TRIVIAL_GROUP]


class PageIdentityError(RuntimeError):
    """A computed page breaks an identity every Evans page keeps: a fault of
    the program, never of its input."""


def _check_page(hs: tuple[AbelianGroup, ...], d: int) -> None:
    """Raise :class:`PageIdentityError` unless the page ``hs``, degrees ``0..k``,
    with annihilator ``d`` keeps the module notes' identities; O(k) big-integer steps."""
    if sum(g.free_rank for g in hs[0::2]) != sum(g.free_rank for g in hs[1::2]):
        raise PageIdentityError("Euler characteristic: the free ranks' alternating sum is not 0")
    if not d:
        return
    for p, g in enumerate(hs):
        if g.free_rank or (g.runs and d % g.runs[-1][0]):
            raise PageIdentityError(f"annihilator: H_{p} is infinite or not killed by D")
    orders = [prod(t ** m for t, m in g.runs) for g in hs]
    if len(hs) == 2:
        if orders != [d, 1]:
            raise PageIdentityError("rank 1: |H_0| is not D, or H_1 is not 0")
    elif prod(orders[0::2]) != prod(orders[1::2]):
        raise PageIdentityError("multiplicative Euler characteristic: the even and the odd "
                                "groups' orders have different products")


R4_LIST_BOUND = 10**7  # above it, R4's commentary states its family instead of listing it


def _ses_middle_candidates(g: int) -> str:
    """Isomorphism classes fitting 0 -> Zg -> K -> Zg -> 0, for ``g >= 2``.

    Up to :data:`R4_LIST_BOUND` they are listed, ``Z(g*d) x Z(g/d)`` for
    each divisor ``d`` of ``g`` in ascending order (an O(g) scan); above it
    the family is named without factoring ``g``.  Since ``g/d`` divides
    ``g*d``, each sum's invariant factors are ``(g/d, g*d)``, one distinct
    pair per ``d``, written as :class:`AbelianGroup` writes them.
    """
    if g > R4_LIST_BOUND:
        return f"Z(g*d) x Z(g/d) for each divisor d of g = {g}"
    middle = [f"Z{g // d} x Z{g * d}" for d in range(2, g) if g % d == 0]
    return ", ".join([f"Z{g}^2", *middle, f"Z{g * g}"])


class _stage:
    """A pipeline stage: run on first read, timed in the instance's ``_ends``
    and kept in its ``__dict__``, which then shadows this descriptor.
    Unlike ``functools.cached_property`` before Python 3.12, it takes no lock."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        obj._ends.append((self.name, perf_counter()))
        return value


class Analysis:
    """One spec's way to a verdict, in stages that each run at most once
    and only when something reads them:

    ``validation -> [coadjacencies ->] determinants -> annihilator ->
    homology -> verdict``

    Every stage after ``validation`` raises
    :class:`~evansk.kgraph.SpecValidationError` on an invalid spec.  A
    one-vertex spec reads its determinants from its loop counts.  The
    ``homology`` stage takes the first of the module notes' three routes
    that applies; the last reads ``coadjacencies`` and assembles each
    boundary it needs once.  ``verdict`` applies the first matching rule
    and carries ``homology`` as its ``e2``.  No stage of that chain reads
    ``complex``: it is the certified :func:`~evansk.complexes.build_complex`
    of ``coadjacencies``, for ``evansk complex`` and library callers.

    A stage is a non-data descriptor, so a value assigned before the stage
    is read stands in for it, and is not timed: after
    ``analysis.homology = hs``, ``analysis.verdict`` is the rule dispatch
    on ``hs``.  :attr:`seconds` times each stage run, in finishing order:

    >>> from evansk import monoid_spec
    >>> a = Analysis(monoid_spec([3, 5, 7]))
    >>> a.verdict.rule
    'R4'
    >>> list(a.seconds)
    ['validation', 'determinants', 'annihilator', 'homology', 'verdict']
    """

    def __init__(self, spec: KGraphSpec):
        self.spec = spec
        self._ends = [("", perf_counter())]  # (stage, when it finished); first, the creation

    @property
    def seconds(self) -> dict[str, float]:
        """Each stage run's wall time since the previous one ended (or ``__init__`` did)."""
        return {name: end - start for (_, start), (name, end) in pairwise(self._ends)}

    @_stage
    def validation(self) -> ValidationReport:
        return validate(self.spec)

    def _valid_spec(self) -> KGraphSpec:
        """The spec, once ``validation`` has passed it."""
        if not self.validation.ok:
            raise SpecValidationError(self.validation)
        return self.spec

    @_stage
    def coadjacencies(self) -> tuple[IntMatrix, ...]:
        return coadjacencies(self._valid_spec())

    @_stage
    def determinants(self) -> tuple[int, ...]:
        if self.spec.is_monoid:  # the 1x1 B_i = 1 - m_i is its own determinant
            return tuple([1 - m.row(0)[0] for m in self._valid_spec().adjacency])
        return tuple(b.det() for b in self.coadjacencies)

    @_stage
    def annihilator(self) -> int:
        """``gcd(det B_i)``, which annihilates every ``H_p``."""
        return gcd(*self.determinants)

    @_stage
    def complex(self) -> ChainComplex:
        return build_complex(self.coadjacencies)

    @_stage
    def homology(self) -> tuple[AbelianGroup, ...]:
        k, n, g = self.spec.rank, self.spec.num_vertices, self.annihilator
        if g == 1:
            return (TRIVIAL_GROUP,) * (k + 1)
        if n == 1:  # one vertex: det B_i = B_i
            return tuple(monoid_closed_form(self.determinants))
        if g == 0 or g & (g - 1):  # not a power of two
            divisors = elementary_divisors
        else:  # g = 2**e, e >= 1: each nonzero divisor divides g
            divisors = partial(two_power_divisors, e=g.bit_length() - 1)
        found = [divisors(evans_boundary(self.coadjacencies, 1))]
        if found[0][-1] == 1:  # every divisor is 1: H_0 = 0, so every H_p = 0
            return (TRIVIAL_GROUP,) * (k + 1)
        limits.check_complex(k, n)  # only past the H_0 = 0 exit, which needs d_1 alone
        found += (divisors(evans_boundary(self.coadjacencies, p)) for p in range(2, k + 1))
        hs = tuple(groups_from_divisors([comb(k, p) * n for p in range(k + 1)], found))
        _check_page(hs, g)
        return hs

    @_stage
    def verdict(self) -> KTheoryVerdict:
        """The first matching rule of the module notes; its ``e2`` is ``homology``."""
        k, hs = self.spec.rank, self.homology

        for i, det in enumerate(self.determinants, start=1):
            if det in (1, -1):
                return KTheoryVerdict(
                    kind=VerdictKind.TRIVIAL, rule="R1", e2=hs,
                    k0=TRIVIAL_GROUP, k1=TRIVIAL_GROUP,
                    justification=(
                        f"co-adjacency matrix B{i} is unimodular (det = {det}), "
                        "so the whole complex is exact and K-theory vanishes"
                    ),
                )

        if self.spec.is_monoid:  # one vertex: det B_i = B_i, so g is the gcd of the scalars
            g = self.annihilator
            if g == 0:
                size = 2 ** (k - 1)
                return KTheoryVerdict(
                    kind=VerdictKind.DETERMINED, rule="R2", e2=hs,
                    k0=AbelianGroup.free(size), k1=AbelianGroup.free(size),
                    justification=(
                        "single vertex with every co-adjacency zero: the algebra is the "
                        f"k-torus algebra, K0 = K1 = Z^{size}"
                    ),
                )
            if g == 1:
                return KTheoryVerdict(
                    kind=VerdictKind.TRIVIAL, rule="R3", e2=hs,
                    k0=TRIVIAL_GROUP, k1=TRIVIAL_GROUP,
                    justification="single vertex with coprime co-adjacency scalars: "
                                  "every E2 entry vanishes",
                )
            if k == 3:
                limits.check_digits((g,))  # before g is written into the text below
                zg = AbelianGroup.cyclic(g)
                return KTheoryVerdict(
                    kind=VerdictKind.SHORT_EXACT_SEQUENCE, rule="R4", e2=hs,
                    k1=AbelianGroup.cyclic(g, 2), ses=(zg, zg),
                    justification=(
                        f"single vertex, rank 3, g = {g}: the page stabilizes with "
                        "columns Zg, Zg^2, Zg, 0, so K1 = Zg^2 while K0 is only known "
                        "through the extension Zg -> K0 -> Zg"
                    ),
                    commentary=(
                        "possible K0 up to isomorphism (not determined): "
                        + _ses_middle_candidates(g)
                    ),
                )

        if k == 1:
            return KTheoryVerdict(
                kind=VerdictKind.DETERMINED, rule="R5", e2=hs,
                k0=hs[0], k1=hs[1],
                justification="derived collapse: rank 1 leaves single columns in each "
                              "total parity, so K0 = H0 and K1 = H1",
            )
        if k == 2:
            return KTheoryVerdict(
                kind=VerdictKind.DETERMINED, rule="R6", e2=hs,
                k0=hs[0].direct_sum(hs[2]), k1=hs[1],
                justification="derived collapse: rank 2 admits no later differential, "
                              "and the K0 extension splits because H2 is a kernel, "
                              "hence free; K1 = H1, K0 = H0 + H2",
            )
        if k == 3 and (hs[3].is_trivial or hs[0].is_trivial):
            k1 = hs[1].direct_sum(hs[3])
            base = (
                "derived collapse: one end column vanishes, so the page-3 "
                "differential is zero; K1 = H1 + H3 splits since H3 is free"
            )
            if hs[2].is_torsion_free:
                return KTheoryVerdict(
                    kind=VerdictKind.DETERMINED, rule="R7", e2=hs,
                    k0=hs[0].direct_sum(hs[2]), k1=k1,
                    justification=base + "; the K0 extension splits because H2 is torsion-free",
                )
            return KTheoryVerdict(
                kind=VerdictKind.SHORT_EXACT_SEQUENCE, rule="R7", e2=hs,
                k1=k1, ses=(hs[0], hs[2]),
                justification=base + "; K0 is only known through the extension H0 -> K0 -> H2",
            )

        return KTheoryVerdict(
            kind=VerdictKind.INDETERMINATE, rule="R8", e2=hs,
            justification="no applicable closed form or collapse argument: differentials "
                          "on page 3 and beyond may be nonzero, so only the E2 page is reported",
        )


def k_theory_verdict(spec: KGraphSpec) -> KTheoryVerdict:
    """Validate, compute homology, and apply the first matching rule.

    An invalid spec raises :class:`~evansk.kgraph.SpecValidationError`
    before any other work.
    """
    return Analysis(spec).verdict
