"""Tests for the symbolic Cuntz-Krieger layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from twistzeta.ckalg import (
    CKElement,
    CylinderSum,
    Monomial,
    ZeroDiagonal,
    act_on_vertex,
    adjoint,
    chain_product,
    diagonal_dichotomy,
    elements_equal,
    generator,
    monomial,
    multiply,
)
from twistzeta.words import (
    enumerate_admissible,
    fixed_point,
    free_group,
    vertex_boundary,
    vertex_from_group_word,
)

F2 = free_group(2)
T = fixed_point(0)

A1, B1, A2, B2 = 0, 1, 2, 3


def element(out_word, in_word) -> CKElement:
    return CKElement.of(monomial(tuple(out_word), tuple(in_word), F2))


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial((A1, B1), (), F2)
    z2 = free_group(1)
    with pytest.raises(ValueError):
        monomial((0,), (1,), z2)


def test_multiply_prefix_contractions():
    got = multiply(element((), (A1,)), element((A1, A2), ()), F2)
    assert got == element((A2,), ())
    assert multiply(element((), (A1,)), element((B1,), ()), F2).is_zero
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
    assert got.is_zero


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
    total = CKElement.zero()
    for k in range(F2.size):
        total = total.plus(element((k,), (k,)))
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
    difference = element((A1,), (A1,)).plus(element((A1, A1), (A1, A1)).scaled(-1))
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
    v_empty = vertex_from_group_word((), T, F2)
    unit_image = act_on_vertex(CKElement.unit(), v_empty, T, F2)
    assert unit_image == {v_empty: Fraction(1)}

    image = act_on_vertex(generator(A1, F2), v_empty, T, F2)
    assert image == {vertex_from_group_word((A1,), T, F2): Fraction(1)}

    v_b1 = vertex_from_group_word((B1,), T, F2)
    dropped = act_on_vertex(adjoint(generator(A1, F2)), v_b1, T, F2)
    assert dropped == {vertex_from_group_word((B1, B1), T, F2): Fraction(1)}

    blocked = act_on_vertex(adjoint(generator(A2, F2)), v_b1, T, F2)
    assert blocked == {}


def test_act_on_vertex_respects_junctions():
    # S_{b1} cannot land on a vertex whose boundary word starts with a1
    v_empty = vertex_from_group_word((), T, F2)
    assert act_on_vertex(generator(B1, F2), v_empty, T, F2) == {}


def diagonal_entry(product: CKElement, word, model) -> Fraction:
    v = vertex_from_group_word(word, T, model)
    return act_on_vertex(product, v, T, model).get(v, Fraction(0))


def cylinder_value(result, word, model) -> Fraction:
    x = vertex_boundary(vertex_from_group_word(word, T, model), T, model)
    total = Fraction(0)
    for rho, coeff in result.cylinders:
        if x.prefix(len(rho)) == rho:
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
