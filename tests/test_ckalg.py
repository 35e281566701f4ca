"""Tests for the symbolic Cuntz-Krieger layer."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_words import (
    T,
    VertexKey,
    enumerate_admissible,
    is_admissible,
    prefix,
    vertex_boundary,
    vertex_from_group_word,
    word_key,
)

from twistzeta.ckalg import (
    CKElement,
    Monomial,
    _continues,
    _has_common_continuation,
    chain_product,
    cylinder_census,
    multiply,
)
from twistzeta.words import FreeGroup, Word

F2 = FreeGroup(2)
F3 = FreeGroup(3)

A1, B1, A2, B2 = 0, 1, 2, 3


# Validated monomials, sums, generators, adjoints and the action of an
# element on the vertices over the anchor's fixed point: the general algebra
# that the oracles of test_cochain and test_traces are written in.

def monomial(out_word: Word, in_word: Word, model: FreeGroup) -> Monomial:
    """Validated monomial; raises when the operator would be zero or the
    words are not admissible."""
    if not is_admissible(out_word, model) or not is_admissible(in_word, model):
        raise ValueError("monomial words must be admissible")
    mono = Monomial(tuple(out_word), tuple(in_word))
    if not _has_common_continuation(mono, model):
        raise ValueError("monomial has no common continuation letter and is zero")
    return mono


def element_sum(x: CKElement, y: CKElement) -> CKElement:
    total: dict[Monomial, Fraction] = dict(x.terms)
    for mono, coeff in y.terms:
        total[mono] = total.get(mono, Fraction(0)) + coeff
    return CKElement.from_terms(total)


def generator(letter: int, model: FreeGroup) -> CKElement:
    """The generator S_letter as an element."""
    return CKElement.of(monomial((letter,), (), model))


def adjoint(x: CKElement) -> CKElement:
    """Term-wise adjoint; rational coefficients are their own conjugates."""
    return CKElement.from_terms(
        {Monomial(m.in_word, m.out_word): c for m, c in x.terms}
    )


def act_on_vertex(
    x: CKElement, vertex: VertexKey, anchor: int, model: FreeGroup
) -> dict[VertexKey, Fraction]:
    """Image of a vertex basis vector under an element.

    The vertex has the boundary word head + anchor^inf.  A monomial strips
    its in-word from that word and writes its out-word in front, when the
    junction allows it; trailing anchor letters of the landed head are
    trimmed, and the offset moves by the length difference.
    """
    head, offset = vertex
    settled = len(head)
    image: dict[VertexKey, Fraction] = {}
    for mono, coeff in x.terms:
        strip, out = mono.in_word, mono.out_word
        cut = len(strip)
        if cut <= settled:
            if head[:cut] != strip:
                continue
            rest = head[cut:]
        elif head != strip[:settled] or any(k != anchor for k in strip[settled:]):
            continue
        else:
            rest = ()
        if out and not model.allows(out[-1], rest[0] if rest else anchor):
            continue
        landed = out + rest
        if not rest:
            while landed and landed[-1] == anchor:
                landed = landed[:-1]
        target = (landed, offset + len(out) - cut)
        if target not in image:
            image[target] = coeff
        elif updated := image[target] + coeff:
            image[target] = updated
        else:
            del image[target]
    return image


# Operator equality by refinement to a common strip depth, the oracle that
# the multiplication tests compare products with.

def _admissible_extensions(model: FreeGroup, mono: Monomial, length: int):
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
    x: CKElement, depth: int, model: FreeGroup
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


def elements_equal(x: CKElement, y: CKElement, model: FreeGroup) -> bool:
    """Operator equality through refinement to a common strip depth."""
    depth = max(
        [len(m.in_word) for m, _ in x.terms + y.terms],
        default=0,
    )
    return refine_to_depth(x, depth, model) == refine_to_depth(y, depth, model)


# Independent oracle of the cylinder census in twistzeta.ckalg: the diagonal
# of a chain refined to one length word by word.

@dataclass(frozen=True)
class CylinderSum:
    """Diagonal of a chain product as a combination of cylinder functions.

    Cylinder words are pairwise distinct, none a prefix of another.
    """

    cylinders: tuple[tuple[Word, Fraction], ...]


@dataclass(frozen=True)
class ZeroDiagonal:
    """Marker: every diagonal matrix entry of the chain product vanishes."""


def refine_diagonal(
    diagonal: list[tuple[Word, Fraction]], model: FreeGroup, common_length: int
) -> CylinderSum | ZeroDiagonal:
    """Diagonal words refined to a common length of at least
    ``common_length`` by listing every extension; exact cancellations are
    discarded."""
    if not diagonal:
        return ZeroDiagonal()
    length = max(common_length, max(len(word) for word, _ in diagonal))
    # Integer sums over the common denominator, divided once at the end.
    scale = math.lcm(*(coeff.denominator for _, coeff in diagonal))
    sums: dict[Word, int] = {}
    for word, coeff in diagonal:
        numerator = coeff.numerator * (scale // coeff.denominator)
        mono = Monomial(word, word)
        for ext in _admissible_extensions(model, mono, length - len(word)):
            target = word + ext
            sums[target] = sums.get(target, 0) + numerator
    refined = _merge_siblings({w: c for w, c in sums.items() if c}, model, common_length)
    if not refined:
        return ZeroDiagonal()
    return CylinderSum(tuple(sorted((w, Fraction(c, scale)) for w, c in refined.items())))


def diagonal_dichotomy(
    chain: list[Monomial] | tuple[Monomial, ...],
    model: FreeGroup,
    common_length: int,
) -> CylinderSum | ZeroDiagonal:
    """Cylinder-sum diagonal of a monomial chain, or the zero marker.

    The product is reduced to normal form; monomials with distinct words
    never touch the diagonal, while each S_rho S_rho^* contributes its
    cylinder.
    """
    product = chain_product(chain, model)
    diagonal = [
        (mono.out_word, coeff)
        for mono, coeff in product.terms
        if mono.out_word == mono.in_word
    ]
    return refine_diagonal(diagonal, model, common_length)


def _merge_siblings(
    cylinders: dict[Word, Fraction], model: FreeGroup, floor: int
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


def element(out_word, in_word) -> CKElement:
    return CKElement.of(monomial(tuple(out_word), tuple(in_word), F2))


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial((A1, B1), (), F2)
    z2 = FreeGroup(1)
    with pytest.raises(ValueError):
        monomial((0,), (1,), z2)


def test_multiply_prefix_contractions():
    got = multiply(element((), (A1,)), element((A1, A2), ()), F2)
    assert got == element((A2,), ())
    assert multiply(element((), (A1,)), element((B1,), ()), F2).terms == ()
    reversed_case = multiply(element((A2,), (A1, B2)), element((A1,), ()), F2)
    assert reversed_case == element((A2,), (B2,))


def test_multiply_expands_full_relation():
    got = multiply(element((), (A1,)), element((A1,), ()), F2)
    expected = {
        Monomial((k,), (k,)): Fraction(1) for k in (A1, A2, B2)
    }
    assert dict(got.terms) == expected


def test_multiply_checks_junctions():
    # S_{a1} chi_{C_{b1}} = 0 because a1 b1 is not admissible
    got = multiply(element((A1,), ()), element((B1,), (B1,)), F2)
    assert got.terms == ()


def test_unit_is_neutral():
    unit = CKElement.unit()
    sample = element((A1, A2), (B2, A1))
    assert multiply(unit, sample, F2) == sample
    assert multiply(sample, unit, F2) == sample


def test_adjoint_examples():
    assert adjoint(element((A1,), (B1,))) == element((B1,), (A1,))
    assert adjoint(CKElement.unit()) == CKElement.unit()


def random_monomial(rng: random.Random) -> Monomial:
    while True:
        words = []
        for _ in range(2):
            length = rng.randrange(0, 4)
            pool = enumerate_admissible(F2, length)
            words.append(pool[rng.randrange(len(pool))])
        try:
            return monomial(words[0], words[1], F2)
        except ValueError:
            continue


def test_adjoint_antihomomorphism_on_random_products():
    rng = random.Random(7)
    for _ in range(60):
        x = CKElement.of(random_monomial(rng))
        y = CKElement.of(random_monomial(rng))
        left = adjoint(multiply(x, y, F2))
        right = multiply(adjoint(y), adjoint(x), F2)
        assert elements_equal(left, right, F2)


def test_multiply_associative_on_random_triples():
    rng = random.Random(21)
    for _ in range(60):
        x = CKElement.of(random_monomial(rng))
        y = CKElement.of(random_monomial(rng))
        z = CKElement.of(random_monomial(rng))
        left = multiply(multiply(x, y, F2), z, F2)
        right = multiply(x, multiply(y, z, F2), F2)
        assert elements_equal(left, right, F2)


def full_range_sum() -> CKElement:
    total = CKElement(())
    for k in range(F2.size):
        total = element_sum(total, element((k,), (k,)))
    return total


def test_range_projections_sum_to_unit():
    rng = random.Random(3)
    total = full_range_sum()
    assert elements_equal(total, CKElement.unit(), F2)
    for _ in range(30):
        sample = CKElement.of(random_monomial(rng))
        assert elements_equal(multiply(total, sample, F2), sample, F2)
        assert elements_equal(multiply(sample, total, F2), sample, F2)
    long_sample = element((A1, A2), (B2,))
    assert multiply(full_range_sum(), long_sample, F2) == long_sample


def test_dichotomy_projection_squared():
    chain = [Monomial((A1,), (A1,)), Monomial((A1,), (A1,))]
    got = diagonal_dichotomy(chain, F2, 1)
    assert got == CylinderSum((((A1,), Fraction(1)),))


def test_dichotomy_expanded_inverse_pair():
    chain = [Monomial((A1,), (B1,)), Monomial((B1,), (A1,))]
    got = diagonal_dichotomy(chain, F2, 1)
    assert isinstance(got, CylinderSum)
    assert dict(got.cylinders) == {
        (A1, A2): Fraction(1),
        (A1, B2): Fraction(1),
    }
    # same operator as chi_{C_{a1}} - chi_{C_{a1 a1}}
    difference = element_sum(
        element((A1,), (A1,)), CKElement.of(Monomial((A1, A1), (A1, A1)), -1)
    )
    assert elements_equal(chain_product(chain, F2), difference, F2)


def test_dichotomy_zero_diagonal():
    assert diagonal_dichotomy([Monomial((A1,), (A2,))], F2, 1) == ZeroDiagonal()
    shifted = [Monomial((A1,), ())]
    assert diagonal_dichotomy(shifted, F2, 2) == ZeroDiagonal()


def test_dichotomy_respects_common_length():
    chain = [Monomial((A1,), (A1,))]
    got = diagonal_dichotomy(chain, F2, 3)
    assert isinstance(got, CylinderSum)
    words = [w for w, _ in got.cylinders]
    assert all(len(w) == 3 for w in words)
    assert len(words) == 9
    assert all(c == 1 for _, c in got.cylinders)


def test_act_on_vertex_examples():
    # Keys (head, offset) over the tail a1^inf: the empty word is ((), 0),
    # a1 is ((), 1), b1 is ((), -1) and a2 is ((a2,), 1).
    v_empty = ((), 0)
    unit_image = act_on_vertex(CKElement.unit(), v_empty, A1, F2)
    assert unit_image == {v_empty: Fraction(1)}

    image = act_on_vertex(generator(A1, F2), v_empty, A1, F2)
    assert image == {((), 1): Fraction(1)}
    assert act_on_vertex(generator(A2, F2), v_empty, A1, F2) == {((A2,), 1): Fraction(1)}

    v_b1 = ((), -1)
    dropped = act_on_vertex(adjoint(generator(A1, F2)), v_b1, A1, F2)
    assert dropped == {((), -2): Fraction(1)}

    blocked = act_on_vertex(adjoint(generator(A2, F2)), v_b1, A1, F2)
    assert blocked == {}

    # Stripping a2 from a2 a2 a1^inf leaves a2 a1^inf; writing a1 in front
    # keeps the head length and the offset.
    swapped = Monomial((A1,), (A2,))
    assert act_on_vertex(CKElement.of(swapped), ((A2, A2), 2), A1, F2) == {
        ((A1, A2), 2): Fraction(1)
    }


def test_act_on_vertex_respects_junctions():
    # S_{b1} cannot land on a vertex whose boundary word starts with a1
    v_empty = ((), 0)
    assert act_on_vertex(generator(B1, F2), v_empty, A1, F2) == {}


def diagonal_entry(product: CKElement, word, model) -> Fraction:
    v = word_key(word, T, model)
    return act_on_vertex(product, v, A1, model).get(v, Fraction(0))


def cylinder_value(result, word, model) -> Fraction:
    x = vertex_boundary(vertex_from_group_word(word, T, model), T, model)
    total = Fraction(0)
    for rho, coeff in result.cylinders:
        if prefix(x, len(rho)) == rho:
            total += coeff
    return total


def test_dichotomy_matches_vertex_action_on_sampled_chains():
    rng = random.Random(11)
    letters = [(), (A1,), (B1,), (A2,), (B2,)]
    basis = [w for n in range(7) for w in enumerate_admissible(F2, n)]
    for _ in range(40):
        chain = []
        for _ in range(rng.randrange(1, 4)):
            out_word = letters[rng.randrange(len(letters))]
            in_word = letters[rng.randrange(len(letters))]
            chain.append(Monomial(out_word, in_word))
        product = chain_product(chain, F2)
        verdict = diagonal_dichotomy(chain, F2, 2)
        for word in basis:
            direct = diagonal_entry(product, word, F2)
            if isinstance(verdict, ZeroDiagonal):
                assert direct == 0
            else:
                assert direct == cylinder_value(verdict, word, F2)


def draw_word(draw, model: FreeGroup, prefix: Word, grow: int) -> Word:
    """``prefix`` extended by ``grow`` admissible letters."""
    word = prefix
    for _ in range(grow):
        allowed = [
            k for k in range(model.size) if not word or model.allows(word[-1], k)
        ]
        word += (draw(st.sampled_from(allowed)),)
    return word


@st.composite
def signed_diagonals(draw, model: FreeGroup, length: int):
    """Distinct diagonal words of at most ``length`` letters with signed
    coefficients, some nested below others with the opposite sign."""
    words: dict[Word, Fraction] = {}
    for _ in range(draw(st.integers(1, 4))):
        base = draw_word(draw, model, (), draw(st.integers(0, min(3, length))))
        coeff = Fraction(draw(st.sampled_from((-2, -1, 1, 2))))
        words[base] = coeff
        if len(base) < length and draw(st.booleans()):
            grow = draw(st.integers(1, length - len(base)))
            child = draw_word(draw, model, base, grow)
            other = Fraction(draw(st.integers(-2, 2)))
            words[child] = -coeff if draw(st.booleans()) else other
    return [(word, coeff) for word, coeff in words.items() if coeff]


@st.composite
def census_cases(draw):
    model = draw(st.sampled_from((F2, F3)))
    length = draw(st.integers(2, 6 if model is F2 else 5))
    return model, length, draw(signed_diagonals(model, length))


@settings(max_examples=150, deadline=None)
@given(case=census_cases())
def test_cylinder_census_groups_the_refined_cylinders(case):
    model, length, diagonal = case
    expected: dict[tuple[int, int], Fraction] = {}
    refined = refine_diagonal(diagonal, model, length)
    if isinstance(refined, CylinderSum):
        for word, weight in refined.cylinders:
            run = 0
            while run < len(word) and word[-1 - run] == A1:
                run += 1
            key = (word[-1], run)
            expected[key] = expected.get(key, Fraction(0)) + weight
    assert cylinder_census(diagonal, model, length) == expected


def test_cylinder_census_keeps_cancelled_classes_and_nets_nested_words():
    # chi_{a1} - chi_{a1 a1}: the words below a1 a1 weigh zero and are gone
    diagonal = [((A1,), Fraction(1)), ((A1, A1), Fraction(-1))]
    assert cylinder_census(diagonal, F2, 2) == {
        (A2, 0): Fraction(1),
        (B2, 0): Fraction(1),
    }
    # +1 and -1 on two classes of one letter: the class stays at weight zero
    opposite = [((A2, A1), Fraction(1)), ((B2, A1), Fraction(-1))]
    assert cylinder_census(opposite, F2, 2) == {(A1, 1): Fraction(0)}
    with pytest.raises(ValueError, match="longer"):
        cylinder_census([((A1, A1, A1), Fraction(1))], F2, 2)
