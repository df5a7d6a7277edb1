"""Elements and words in the semidirect product of a finitely presented
Laurent module Y with the lattice Z^n, plus the wreath-product front-end that
converts a finite metabelian presentation into an equivalent instance here.

Multiplication twists the module part by the lattice action:
(y, a) * (y', a') = (y + X^a y', a + a'),   (y, a)^-1 = (-X^-a y, -a).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from semizn import linalg
from semizn.algebra import ModulePresentation
from semizn.laurent import LaurentPoly


class GroupElement:
    """Pair (y, a); y is a coset representative vector, a in Z^n."""

    __slots__ = ("presentation", "y", "a")

    def __init__(self, presentation: ModulePresentation, y: Sequence[LaurentPoly],
                 a: Sequence[int]):
        if len(y) != presentation.d:
            raise ValueError("module part has wrong rank")
        if len(a) != presentation.n:
            raise ValueError("lattice part has wrong length")
        self.presentation = presentation
        self.y = tuple(y)
        self.a = tuple(int(v) for v in a)

    def _same(self, other: "GroupElement"):
        if self.presentation is not other.presentation:
            raise ValueError("elements of different instances")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        y = [p + q.shift(self.a) for p, q in zip(self.y, other.y)]
        a = tuple(u + v for u, v in zip(self.a, other.a))
        return GroupElement(self.presentation, y, a)

    def inverse(self) -> "GroupElement":
        neg_a = tuple(-v for v in self.a)
        y = [(-p).shift(neg_a) for p in self.y]
        return GroupElement(self.presentation, y, neg_a)

    def is_neutral(self) -> bool:
        return all(v == 0 for v in self.a) and self.presentation.is_zero(list(self.y))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._same(other)
        if self.a != other.a:
            return False
        return self.presentation.is_zero([p - q for p, q in zip(self.y, other.y)])

    def __repr__(self):
        return f"GroupElement(y={list(self.y)!r}, a={self.a})"


def neutral(presentation: ModulePresentation) -> GroupElement:
    return GroupElement(presentation, presentation.zero_vector(), (0,) * presentation.n)


class GeneratorSet:
    """The fixed finite set of generators of the sub-semigroup under study."""

    def __init__(self, presentation: ModulePresentation, elements: Sequence[GroupElement]):
        if not elements:
            raise ValueError("at least one generator is required")
        for g in elements:
            if g.presentation is not presentation:
                raise ValueError("generator over a different presentation")
        self.presentation = presentation
        self.elements = list(elements)

    @property
    def K(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return self.presentation.n

    @property
    def steps(self) -> list[tuple]:
        return [g.a for g in self.elements]

    @property
    def ys(self) -> list[tuple]:
        return [g.y for g in self.elements]

    def subset(self, indices: Sequence[int]) -> "GeneratorSet":
        """Sub-generating-set on 1-based indices (order preserved); an index
        outside 1..K is refused with ValueError."""
        if not all(1 <= i <= self.K for i in indices):
            raise ValueError(f"subset indices {list(indices)} out of range 1..{self.K}")
        return GeneratorSet(self.presentation, [self.elements[i - 1] for i in indices])


def evaluate_word(gens: GeneratorSet, word: Sequence[int]) -> GroupElement:
    """Left-to-right product of the 1-based letters of `word`; the empty word
    evaluates to the neutral element."""
    acc = neutral(gens.presentation)
    for idx in word:
        if not 1 <= idx <= gens.K:
            raise ValueError(f"letter {idx} out of range 1..{gens.K}")
        acc = acc * gens.elements[idx - 1]
    return acc


# ---------------------------------------------------------------------------
# Metabelian front-end
# ---------------------------------------------------------------------------

@dataclass
class MetabelianPresentation:
    """Quotient of the free metabelian group on s generators by the normal
    closure of the given relator words (letters are signed 1-based indices)."""

    s: int
    relators: list

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("a metabelian presentation needs s >= 2 generators")
        for r in self.relators:
            for letter in r:
                if letter == 0 or abs(letter) > self.s:
                    raise ValueError(f"relator letter {letter} out of range")


def _free_letter(pres_free: ModulePresentation, i: int, sign: int) -> GroupElement:
    """Image of the i-th free generator (or its inverse) under x_i -> a_i t_i
    in the wreath product with free module part."""
    s = pres_free.n
    y = pres_free.zero_vector()
    a = [0] * s
    y[i - 1] = LaurentPoly.one(s)
    a[i - 1] = 1
    g = GroupElement(pres_free, y, a)
    return g if sign > 0 else g.inverse()


def _abelianized(word: Sequence[int], s: int) -> tuple:
    a = [0] * s
    for letter in word:
        a[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(a)


def magnus_frontend(pres: MetabelianPresentation, gen_words: Sequence[Sequence[int]]):
    """Instance over Y x| Z^n equivalent (for the Group Problem) to the input
    presentation with the given generating words.

    Contract: the words must generate the presented group as a group; only
    then is the constructed generator set equivalent.  Construction: n = s;
    H = lattice of abelianized relators; Y = (Z[X^±]^s) / N where N is
    generated by the torus relations (X^h - 1)e_j for a basis h of H together
    with the wreath-product images of the relators; the generator set is the
    images of the input words plus (0, ±h) for each basis vector of H.
    """
    if not gen_words:
        raise ValueError("empty generator list")
    s = pres.s
    free = ModulePresentation(n=s, d=s, rels_N=[])

    def word_image(word, target: ModulePresentation) -> GroupElement:
        acc = neutral(free)
        for letter in word:
            acc = acc * _free_letter(free, abs(letter), 1 if letter > 0 else -1)
        return GroupElement(target, list(acc.y), acc.a)

    h_basis = linalg.hermite_row_basis([_abelianized(r, s) for r in pres.relators])

    rels = []
    for h in h_basis:
        factor = LaurentPoly.monomial(tuple(h)) - LaurentPoly.one(s)
        for j in range(s):
            vec = [LaurentPoly.zero(s) for _ in range(s)]
            vec[j] = factor
            rels.append(vec)
    for r in pres.relators:
        img = word_image(r, free)
        # the relator abelianizes into H, so its module part is the whole content
        if not all(p.is_zero() for p in img.y):
            rels.append(list(img.y))

    quotient = ModulePresentation(n=s, d=s, rels_N=rels)
    elements = [word_image(w, quotient) for w in gen_words]
    for h in h_basis:
        elements.append(GroupElement(quotient, quotient.zero_vector(), tuple(h)))
        elements.append(GroupElement(quotient, quotient.zero_vector(), tuple(-v for v in h)))
    return quotient, GeneratorSet(quotient, elements)
