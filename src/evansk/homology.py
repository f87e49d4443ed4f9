"""Integer homology of finite free chain complexes.

For a complex with ranks ``r_0..r_k`` and boundaries ``d_1..d_k`` (and the
zero maps ``d_0``, ``d_{k+1}`` at the ends), degree ``p`` homology is

* free rank ``r_p - rank(d_p) - rank(d_{p+1})``,
* torsion given by the elementary divisors of ``d_{p+1}`` exceeding 1.

The top group is always torsion-free (it is the kernel of an integer
matrix).  Groups are reported as a free rank plus a divisibility chain of
torsion orders, never with unit factors:

>>> str(AbelianGroup(2, (2, 4)))
'Z^2 x Z2 x Z4'
>>> str(AbelianGroup())
'0'
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, groupby, repeat

from .complexes import ChainComplex
from .snf import elementary_divisors, invariant_factors


@dataclass(frozen=True, init=False)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    Torsion orders are all >= 2 and each divides the next, so the
    presentation is unique and equality is isomorphism.  They are kept as
    ``runs``, ``(order, multiplicity)`` pairs with strictly increasing
    orders, so a group such as ``Z2^(10**12)`` costs one pair; ``torsion``
    expands them.
    """

    free_rank: int
    runs: tuple[tuple[int, int], ...]

    def __init__(self, free_rank: int = 0, torsion: Sequence[int] = ()):
        self._set(free_rank, tuple((t, sum(1 for _ in same)) for t, same in groupby(torsion)))

    def _set(self, free_rank: int, runs: tuple[tuple[int, int], ...]) -> None:
        if free_rank < 0:
            raise ValueError(f"free rank must be nonnegative, got {free_rank}")
        for t, _ in runs:
            if t < 2:
                raise ValueError(f"torsion orders must be >= 2, got {t}")
        for (a, _), (b, _) in zip(runs, runs[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain: "
                                 f"{_expand(runs)}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "runs", runs)

    @classmethod
    def free(cls, rank: int) -> AbelianGroup:
        return cls(free_rank=rank)

    @classmethod
    def cyclic(cls, order: int, copies: int = 1) -> AbelianGroup:
        """``copies`` summands of Z/order; order 0 means Z, order ±1 is trivial."""
        order = abs(order)
        if order == 0:
            return cls(free_rank=copies)
        if order == 1 or copies <= 0:
            return cls()
        group = object.__new__(cls)
        group._set(0, ((order, copies),))
        return group

    @property
    def torsion(self) -> tuple[int, ...]:
        return _expand(self.runs)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.runs

    @property
    def is_torsion_free(self) -> bool:
        return not self.runs

    def direct_sum(self, other: AbelianGroup) -> AbelianGroup:
        """Direct sum, renormalized back to a divisibility chain."""
        return AbelianGroup(self.free_rank + other.free_rank,
                            invariant_factors(self.torsion + other.torsion))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z{t}" + (f"^{m}" if m > 1 else "") for t, m in self.runs)
        return " x ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "pretty": str(self),
        }


def _expand(runs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(repeat(t, m) for t, m in runs))


TRIVIAL_GROUP = AbelianGroup()


def homology(cc: ChainComplex) -> list[AbelianGroup]:
    """Homology groups in degrees ``0..length``, always from the
    elementary divisors of every boundary.

    ``cc`` squares to zero: its constructor, or the validation behind
    ``Analysis.complex``, proved that.  The verdict path
    (:class:`evansk.spectral.Analysis`) takes no complex: it assembles each
    boundary it needs once with :func:`~evansk.complexes.evans_boundary`,
    and passes their divisors to :func:`groups_from_divisors`, unless the
    determinants of the ``B_i``, the one-vertex closed form or ``H_0 = 0``
    settles the page first.
    """
    return groups_from_divisors(cc.ranks, [elementary_divisors(b) for b in cc.boundaries])


def groups_from_divisors(ranks: Sequence[int],
                         divisors: Sequence[tuple[int, ...]]) -> list[AbelianGroup]:
    """Homology in degrees ``0..len(ranks) - 1`` of a complex with these ranks
    whose boundary ``d_p`` has the elementary divisors ``divisors[p - 1]``."""
    # divisors[p] and rank_d[p] belong to d_p; d_0 and d_(length+1) are zero.
    divisors = [(), *divisors, ()]
    rank_d = [sum(1 for d in ds if d) for ds in divisors]
    return [AbelianGroup(ranks[p] - rank_d[p] - rank_d[p + 1],
                         tuple(d for d in divisors[p + 1] if d > 1))
            for p in range(len(ranks))]
