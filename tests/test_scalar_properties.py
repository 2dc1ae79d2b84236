"""Property tests of packed `Scalar`s against the ring on exponent tuples,
and of the laws of the structure maps: coproduct, counit, tensor
embedding and bar.

Examples are derandomized and few, so the suite stays deterministic and
fast; hypothesis shrinks any failure to a small pair of elements.
"""

from math import comb

import pytest

from skeinlab import scalars as S

import isotopy

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                               database=None)


@st.composite
def elements(draw, arity: int):
    """(Scalar, its tuple terms, its den_pow) for a numerator times
    (q - q^-1)^j over (q - q^-1)^(den + j), so that the canonical form has
    something to divide out."""
    expo = st.tuples(*[st.integers(-4, 4)] * (arity + 1))
    terms = draw(st.dictionaries(expo, st.integers(-5, 5), max_size=5))
    j = draw(st.integers(0, 2))
    den_pow = draw(st.integers(0, 2)) + j
    terms = isotopy.ref_product(terms, isotopy.ref_s_power(j, arity))
    packed = S.Scalar(arity, {S.pack(e): c for e, c in terms.items()}, den_pow)
    return packed, terms, den_pow


def triples(draw):
    arity = draw(st.integers(0, 2))
    return arity, [draw(elements(arity)) for _ in range(3)]


@SETTINGS
@hypothesis.given(st.data())
def test_canonical_form_and_operations_match_the_tuple_ring(data):
    arity, [(x, tx, dx), (y, ty, dy), _] = triples(data.draw)
    canon_x, canon_y = isotopy.ref_canonical(tx, dx), isotopy.ref_canonical(ty, dy)
    assert (isotopy.ref_terms(x), x.den_pow) == canon_x
    assert (isotopy.ref_terms(x * y), (x * y).den_pow) == isotopy.ref_mul(canon_x, canon_y)
    assert (isotopy.ref_terms(x + y), (x + y).den_pow) == \
        isotopy.ref_add(canon_x, canon_y, arity)
    assert sorted(x.terms) == [S.pack(e) for e in sorted(canon_x[0])]


@SETTINGS
@hypothesis.given(st.data())
def test_ring_axioms(data):
    arity, [(x, _, _), (y, _, _), (z, _, _)] = triples(data.draw)
    zero, one = S.Scalar.zero(arity), S.Scalar.one(arity)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) == S.add_all([x, y, z], arity)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and (x * zero).is_zero()
    assert (x + (-x)).is_zero() and x - y == x + (-y)
    assert hash(x * y) == hash(y * x)


@SETTINGS
@hypothesis.given(st.data())
def test_coproduct_is_a_coassociative_counital_ring_map(data):
    (x, _, _), (y, _, _) = data.draw(elements(1)), data.draw(elements(1))
    cop = S.scalar_coproduct
    assert cop(x * y) == cop(x) * cop(y)
    assert cop(x + y) == cop(x) + cop(y)
    assert S.coproduct_slot(cop(x), 1) == S.coproduct_slot(cop(x), 2)
    assert S.counit_slot(cop(x), 1) == x == S.counit_slot(cop(x), 2)


@SETTINGS
@hypothesis.given(st.data())
def test_tensor_embed_is_multiplicative_in_each_slot(data):
    (x, _, _), (y, _, _) = data.draw(elements(1)), data.draw(elements(1))
    for n in (1, 2, 3):
        for slot in range(1, n + 1):
            assert S.tensor_embed(x * y, slot, n) == \
                S.tensor_embed(x, slot, n) * S.tensor_embed(y, slot, n)


@SETTINGS
@hypothesis.given(st.data())
def test_bar_is_an_involutive_ring_map(data):
    (x, _, _), (y, _, _) = data.draw(elements(1)), data.draw(elements(1))
    bar = isotopy.bar
    assert bar(bar(x)) == x
    assert bar(x * y) == bar(x) * bar(y)
    assert bar(x + y) == bar(x) + bar(y)


@st.composite
def loop_polynomials(draw):
    """Loop polynomials keyed by (e_q, e_a, k), for c * q^e_q * a^e_a * d^k:
    a few terms in d-degrees 0 to 3, plus multiples of the relation
    (q - q^-1) d^(k+1) - (a - a^-1) d^k, whose terms sum to zero."""
    expo = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3))
    poly = draw(st.dictionaries(expo, st.integers(-5, 5), max_size=6))
    for (e_q, e_a, k), c in draw(st.lists(st.tuples(expo, st.integers(-3, 3)), max_size=3)):
        for key, sign in (((e_q + 1, e_a, k + 1), 1), ((e_q - 1, e_a, k + 1), -1),
                          ((e_q, e_a + 1, k), -1), ((e_q, e_a - 1, k), 1)):
            poly[key] = poly.get(key, 0) + sign * c
    return poly


@SETTINGS
@hypothesis.given(loop_polynomials())
@hypothesis.example({})
def test_from_loop_polynomial_matches_the_tuple_ring(poly):
    # the part of d-degree k is (a - a^-1)^k * part / (q - q^-1)^k
    value = ({}, 0)
    for k in {key[2] for key in poly}:
        part = {key[:2]: c for key, c in poly.items() if key[2] == k}
        numerator = {(0, k - 2 * j): (-1) ** j * comb(k, j) for j in range(k + 1)}
        value = isotopy.ref_add(value, (isotopy.ref_product(part, numerator), k), 1)
    got = S.from_loop_polynomial({S.pack(key): c for key, c in poly.items()})
    assert (isotopy.ref_terms(got), got.den_pow) == isotopy.ref_canonical(*value)
