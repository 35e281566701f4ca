"""Exact symbolic Cuntz-Krieger algebra.

Elements are rational combinations of monomials S_mu S_nu^* over a fixed
adjacency model.  Multiplication reduces every inner S_nu^* S_mu' by prefix
comparison, expanding S_nu^* S_nu through the Cuntz-Krieger relation, so
products stay exact.  The diagonal dichotomy extracts the cylinder-sum
diagonal of a monomial chain, which is what the trace engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import (
    AdjacencyModel,
    BoundaryPoint,
    Vertex,
    Word,
    is_admissible,
    vertex_boundary,
    vertex_from_boundary,
)


@dataclass(frozen=True)
class Monomial:
    """Partial isometry S_mu S_nu^*: strip ``in_word``, write ``out_word``."""

    out_word: Word
    in_word: Word


def monomial(out_word: Word, in_word: Word, model: AdjacencyModel) -> Monomial:
    """Validated monomial; raises when the operator would be zero or the
    words are not admissible."""
    if not is_admissible(out_word, model) or not is_admissible(in_word, model):
        raise ValueError("monomial words must be admissible")
    mono = Monomial(tuple(out_word), tuple(in_word))
    if not _has_common_continuation(mono, model):
        raise ValueError("monomial has no common continuation letter and is zero")
    return mono


def _has_common_continuation(mono: Monomial, model: AdjacencyModel) -> bool:
    return any(
        _continues(mono.out_word, k, model) and _continues(mono.in_word, k, model)
        for k in range(model.size)
    )


def _continues(word: Word, letter: int, model: AdjacencyModel) -> bool:
    return not word or model.allows(word[-1], letter)


@dataclass(frozen=True)
class CKElement:
    """Finite rational combination of monomials, zero coefficients dropped."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_terms(entries: dict[Monomial, Fraction]) -> CKElement:
        kept = {m: c for m, c in entries.items() if c != 0}
        ordered = sorted(kept.items(), key=lambda mc: (mc[0].out_word, mc[0].in_word))
        return CKElement(tuple(ordered))

    @staticmethod
    def zero() -> CKElement:
        return CKElement(())

    @staticmethod
    def unit() -> CKElement:
        return CKElement(((Monomial((), ()), Fraction(1)),))

    @staticmethod
    def of(mono: Monomial, coefficient: Fraction | int = 1) -> CKElement:
        return CKElement.from_terms({mono: Fraction(coefficient)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, factor: Fraction | int) -> CKElement:
        factor = Fraction(factor)
        return CKElement.from_terms({m: c * factor for m, c in self.terms})

    def plus(self, other: CKElement) -> CKElement:
        total: dict[Monomial, Fraction] = dict(self.terms)
        for mono, coeff in other.terms:
            total[mono] = total.get(mono, Fraction(0)) + coeff
        return CKElement.from_terms(total)


def generator(letter: int, model: AdjacencyModel) -> CKElement:
    """The generator S_letter as an element."""
    return CKElement.of(monomial((letter,), (), model))


def adjoint(x: CKElement) -> CKElement:
    """Term-wise adjoint; rational coefficients are their own conjugates."""
    return CKElement.from_terms(
        {Monomial(m.in_word, m.out_word): c for m, c in x.terms}
    )


def _mono_product(a: Monomial, b: Monomial, model: AdjacencyModel) -> list[Monomial]:
    """Normal form of S_{a.out}S_{a.in}^* S_{b.out}S_{b.in}^*.

    Returns the resulting monomials, each with coefficient one; an empty
    list is the zero product.
    """
    inner, outer = a.in_word, b.out_word
    if len(inner) < len(outer) and outer[: len(inner)] == inner:
        rest = outer[len(inner) :]
        if not _continues(a.out_word, rest[0], model):
            return []
        return _keep(Monomial(a.out_word + rest, b.in_word), model)
    if len(outer) < len(inner) and inner[: len(outer)] == outer:
        rest = inner[len(outer) :]
        if not _continues(b.in_word, rest[0], model):
            return []
        return _keep(Monomial(a.out_word, b.in_word + rest), model)
    if inner != outer:
        return []
    if not inner:
        return _keep(Monomial(a.out_word, b.in_word), model)
    joint = [
        Monomial(a.out_word + (k,), b.in_word + (k,))
        for k in range(model.size)
        if model.allows(inner[-1], k)
        and _continues(a.out_word, k, model)
        and _continues(b.in_word, k, model)
    ]
    return joint


def _keep(mono: Monomial, model: AdjacencyModel) -> list[Monomial]:
    return [mono] if _has_common_continuation(mono, model) else []


def multiply(x: CKElement, y: CKElement, model: AdjacencyModel) -> CKElement:
    """Exact product in expansion normal form."""
    total: dict[Monomial, Fraction] = {}
    for left, cl in x.terms:
        for right, cr in y.terms:
            coeff = cl * cr
            for mono in _mono_product(left, right, model):
                total[mono] = total.get(mono, Fraction(0)) + coeff
    return CKElement.from_terms(total)


def _admissible_extensions(model: AdjacencyModel, mono: Monomial, length: int):
    """Common extensions of both words of a monomial, depth-first."""
    if length == 0:
        yield ()
        return
    stack: list[Word] = [()]
    while stack:
        ext = stack.pop()
        if len(ext) == length:
            yield ext
            continue
        anchor_out = mono.out_word + ext
        anchor_in = mono.in_word + ext
        for k in range(model.size - 1, -1, -1):
            if _continues(anchor_out, k, model) and _continues(anchor_in, k, model):
                stack.append(ext + (k,))


def refine_to_depth(
    x: CKElement, depth: int, model: AdjacencyModel
) -> dict[Monomial, Fraction]:
    """Rewrite every monomial so that all stripped words have one length.

    Splitting S_mu S_nu^* into the sum of S_{mu e} S_{nu e}^* over common
    continuation words ``e`` leaves the operator unchanged; once every
    strip length equals ``depth`` the monomials are linearly independent,
    so this is a canonical form.
    """
    refined: dict[Monomial, Fraction] = {}
    for mono, coeff in x.terms:
        need = depth - len(mono.in_word)
        if need < 0:
            raise ValueError("depth is shorter than a stored strip word")
        for ext in _admissible_extensions(model, mono, need):
            target = Monomial(mono.out_word + ext, mono.in_word + ext)
            updated = refined.get(target, Fraction(0)) + coeff
            if updated:
                refined[target] = updated
            else:
                refined.pop(target, None)
    return refined


def elements_equal(x: CKElement, y: CKElement, model: AdjacencyModel) -> bool:
    """Operator equality through refinement to a common strip depth."""
    depth = max(
        [len(m.in_word) for m, _ in x.terms + y.terms],
        default=0,
    )
    return refine_to_depth(x, depth, model) == refine_to_depth(y, depth, model)


@dataclass(frozen=True)
class CylinderSum:
    """Diagonal of a chain product as a combination of cylinder functions.

    Cylinder words are pairwise distinct, none a prefix of another.
    """

    cylinders: tuple[tuple[Word, Fraction], ...]


@dataclass(frozen=True)
class ZeroDiagonal:
    """Marker: every diagonal matrix entry of the chain product vanishes."""


DichotomyResult = CylinderSum | ZeroDiagonal


def chain_product(
    chain: list[Monomial] | tuple[Monomial, ...], model: AdjacencyModel
) -> CKElement:
    """Product of the monomials of a chain, left to right."""
    if not chain:
        raise ValueError("chain must be nonempty")
    result = CKElement.unit()
    for mono in chain:
        result = multiply(result, CKElement.of(mono), model)
    return result


def diagonal_dichotomy(
    chain: list[Monomial] | tuple[Monomial, ...],
    model: AdjacencyModel,
    common_length: int,
) -> DichotomyResult:
    """Cylinder-sum diagonal of a monomial chain, or the zero marker.

    The product is reduced to normal form; monomials with distinct words
    never touch the diagonal, while each S_rho S_rho^* contributes its
    cylinder.  Cylinders are refined to a common length of at least
    ``common_length`` and exact cancellations are discarded.
    """
    product = chain_product(chain, model)
    diagonal = [
        (mono, coeff) for mono, coeff in product.terms if mono.out_word == mono.in_word
    ]
    if not diagonal:
        return ZeroDiagonal()
    length = max(common_length, max(len(m.out_word) for m, _ in diagonal))
    refined: dict[Word, Fraction] = {}
    for mono, coeff in diagonal:
        for ext in _admissible_extensions(model, mono, length - len(mono.out_word)):
            word = mono.out_word + ext
            updated = refined.get(word, Fraction(0)) + coeff
            if updated:
                refined[word] = updated
            else:
                refined.pop(word, None)
    refined = _merge_siblings(refined, model, common_length)
    if not refined:
        return ZeroDiagonal()
    return CylinderSum(tuple(sorted(refined.items())))


def _merge_siblings(
    cylinders: dict[Word, Fraction], model: AdjacencyModel, floor: int
) -> dict[Word, Fraction]:
    """Collapse complete sibling families back to their parent cylinder.

    A family may merge only when the parent stays at least ``floor`` long,
    so callers that need a uniform refinement level keep it.
    """
    merged = dict(cylinders)
    while True:
        by_parent: dict[Word, list[Word]] = {}
        for word in merged:
            if word and len(word) - 1 >= floor:
                by_parent.setdefault(word[:-1], []).append(word)
        done = True
        for parent, children in by_parent.items():
            if parent in merged:
                continue
            if parent:
                allowed = [k for k in range(model.size) if model.allows(parent[-1], k)]
            else:
                allowed = list(range(model.size))
            family = [parent + (k,) for k in allowed]
            if any(member not in merged for member in family):
                continue
            coefficients = {merged[member] for member in family}
            if len(coefficients) != 1:
                continue
            for member in family:
                del merged[member]
            merged[parent] = coefficients.pop()
            done = False
        if done:
            return merged


def act_on_vertex(
    x: CKElement, v: Vertex, tail: BoundaryPoint, model: AdjacencyModel
) -> dict[Vertex, Fraction]:
    """Image of a vertex basis vector under an element.

    A monomial strips its in-word from the boundary word of the vertex and
    writes its out-word in front, when the junctions allow it; the offset
    moves by the length difference.
    """
    model.require_free_group()
    boundary = vertex_boundary(v, tail, model)
    image: dict[Vertex, Fraction] = {}
    for mono, coeff in x.terms:
        stripped = len(mono.in_word)
        if boundary.prefix(stripped) != mono.in_word:
            continue
        shifted = boundary.shift(stripped)
        if mono.out_word and not model.allows(mono.out_word[-1], shifted.letter_at(1)):
            continue
        landed = BoundaryPoint(
            mono.out_word + shifted.preperiod, shifted.period
        )
        offset = v.offset + len(mono.out_word) - stripped
        target = vertex_from_boundary(landed, offset, tail, model)
        updated = image.get(target, Fraction(0)) + coeff
        if updated:
            image[target] = updated
        else:
            image.pop(target, None)
    return image
