import itertools
import random

import pytest

from skeinlab import cli
from skeinlab import scalars as S

import isotopy


def rand_scalar(rng, arity, nterms=5, den=2):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        key = S.pack(rng.randint(-3, 3) for _ in range(arity + 1))
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return S.Scalar(arity, terms, rng.randint(0, den))


def test_delta_defining_relation():
    d = S.delta(1, 1)
    assert d.den_pow == 1
    assert d * S.q_minus_qinv(1) == S.a_power(1, 1, 1) - S.a_power(1, -1, 1)


def test_delta_specializations():
    d = S.delta(1, 1)
    assert S.specialize(d, [2]) == isotopy.q_power(1, 0) + isotopy.q_power(-1, 0)
    assert S.specialize(d, [1]) == S.Scalar.one(0)
    assert S.specialize(d, [0]).is_zero()
    assert S.specialize(d * d, [1]) == S.Scalar.one(0)
    assert S.specialize(S.a_power(1, 1, 1), [3]) == isotopy.q_power(3, 0)


def test_delta_slot_range():
    with pytest.raises(S.ArityError):
        S.delta(2, 1)
    with pytest.raises(S.ArityError):
        S.delta(0, 3)


def test_ring_basics():
    d = S.delta(1, 1)
    assert d * S.Scalar.one(1) == d
    assert (d + (-d)).is_zero()
    s = S.q_minus_qinv(1)
    assert S.specialize(s * d, [4]) == S.specialize(
        S.a_power(1, 1, 1) - S.a_power(1, -1, 1), [4])
    with pytest.raises(S.ArityError):
        d + S.delta(1, 2)


def test_pow_and_neg():
    d = S.delta(1, 1)
    assert d ** 3 == d * d * d
    assert d ** 0 == S.Scalar.one(1)
    with pytest.raises(ValueError):
        d ** -1


def test_coproduct_on_generators():
    a = S.a_power(1, 1, 1)
    assert S.scalar_coproduct(a) == S.a_power(1, 1, 2) * S.a_power(2, 1, 2)
    d = S.delta(1, 1)
    want = S.delta(1, 2) * S.a_power(2, 1, 2) + S.a_power(1, -1, 2) * S.delta(2, 2)
    assert S.scalar_coproduct(d) == want


def test_coproduct_is_ring_hom_and_coassociative():
    rng = random.Random(11)
    D = S.scalar_coproduct
    for _ in range(100):
        x, y = rand_scalar(rng, 1), rand_scalar(rng, 1)
        assert D(x * y) == D(x) * D(y)
        assert D(x + y) == D(x) + D(y)
        assert S.coproduct_slot(D(x), 1) == S.coproduct_slot(D(x), 2)


def test_counit_values_and_laws():
    d = S.delta(1, 1)
    a = S.a_power(1, 1, 1)
    assert isotopy.scalar_counit(a) == S.Scalar.one(0)
    assert isotopy.scalar_counit(d).is_zero()
    rng = random.Random(12)
    for _ in range(50):
        x = rand_scalar(rng, 1)
        Dx = S.scalar_coproduct(x)
        assert S.counit_slot(Dx, 1) == x
        assert S.counit_slot(Dx, 2) == x


def test_counit_undefined():
    # q^t / (q - q^-1) has a genuine pole at the counit
    bad = S.Scalar(1, {S.pack((0, 1)): 1}, 1)
    with pytest.raises(isotopy.CounitUndefinedError):
        isotopy.scalar_counit(bad)


def test_specialize_not_polynomial():
    bad = S.Scalar(1, {S.pack((0, 1)): 1}, 1)
    with pytest.raises(S.SpecializeError):
        S.specialize(bad, [2])
    with pytest.raises(S.ArityError):
        S.specialize(S.delta(1, 1), [1, 2])


def test_specialize_splits_over_coproduct():
    rng = random.Random(13)
    for _ in range(60):
        x = rand_scalar(rng, 1, den=1)
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        try:
            lhs = S.specialize(x, [n1 + n2])
        except S.SpecializeError:
            continue
        assert lhs == S.specialize(S.scalar_coproduct(x), [n1, n2])


def test_tensor_embed():
    d = S.delta(1, 1)
    assert S.tensor_embed(d, 1, 2) == S.delta(1, 2)
    assert S.tensor_embed(S.Scalar.one(1), 2, 3) == S.Scalar.one(3)
    assert S.tensor_embed(S.a_power(1, 1, 1), 2, 2) == S.a_power(2, 1, 2)
    assert S.tensor_embed(S.delta(2, 2), 2, 3) == S.delta(3, 3)
    # an arity-2 element fills two neighbouring slots
    x = S.a_power(1, 1, 2) * S.a_power(2, -1, 2)
    assert S.tensor_embed(x, 2, 4) == S.monomial(4, a=[0, 1, -1, 0])
    with pytest.raises(S.ArityError):
        S.tensor_embed(x, 2, 2)


def test_canonical_equality_matches_cross_multiplication():
    # x == y iff num_x * s^{k_y} - num_y * s^{k_x} vanishes as a raw polynomial
    rng = random.Random(14)
    s = S.q_minus_qinv(1)
    for _ in range(120):
        x = rand_scalar(rng, 1)
        y = rand_scalar(rng, 1) if rng.random() < 0.5 else \
            S.Scalar(1, (S.Scalar(1, x.terms, 0) * s).terms, x.den_pow + 1)
        lhs = S.Scalar(1, x.terms, 0) * s ** y.den_pow
        rhs = S.Scalar(1, y.terms, 0) * s ** x.den_pow
        assert (x == y) == ((lhs - rhs).is_zero())
        assert (x == y) == ((x - y).is_zero())


def test_unreduced_representations_canonicalize():
    rng = random.Random(15)
    s = S.q_minus_qinv(1)
    for _ in range(40):
        x = rand_scalar(rng, 1)
        numerator = S.Scalar(1, x.terms, 0) * s * s
        blown = S.Scalar(1, numerator.terms, x.den_pow + 2)
        assert blown == x


def test_bar_involution():
    rng = random.Random(16)
    for _ in range(40):
        x = rand_scalar(rng, 1)
        y = rand_scalar(rng, 1)
        assert isotopy.bar(isotopy.bar(x)) == x
        assert isotopy.bar(x * y) == isotopy.bar(x) * isotopy.bar(y)
    assert isotopy.bar(S.q_minus_qinv(1)) == -S.q_minus_qinv(1)
    assert isotopy.bar(S.delta(1, 1)) == S.delta(1, 1)


def test_json_round_trip_and_ordering():
    rng = random.Random(17)
    for _ in range(40):
        x = rand_scalar(rng, rng.randint(0, 3))
        data = S.to_json(x)
        keys = [(t["q"], tuple(t["a"])) for t in data["terms"]]
        assert keys == sorted(keys)
        assert isotopy.from_json(data) == x


def test_pretty_forms():
    assert S.pretty(S.Scalar.zero(2)) == "0"
    assert S.pretty(S.Scalar.one(1)) == "1"
    d = S.delta(1, 1)
    assert S.pretty(d) == "(-q^-1t + q^t) / (q - q^-1)"
    assert "q^t1" in S.pretty(S.a_power(1, 1, 2))


def test_packed_fields_hold_their_extreme_exponents():
    top, bottom = S.EXP_MAX, S.EXP_MIN
    for arity in range(4):
        for expo in itertools.product((top, bottom, 0), repeat=arity + 1):
            assert S.unpack(S.pack(expo), arity) == expo
    x = S.monomial(1, 3, q=top, a=[bottom])
    y = S.monomial(1, 1, q=bottom, a=[top])
    assert x * S.Scalar.one(1) == x
    assert isotopy.ref_terms(x * y) == {(-1, -1): 3}
    assert isotopy.ref_terms(x + x) == {(top, bottom): 6}
    assert isotopy.ref_terms(x + y) == {(bottom, top): 1, (top, bottom): 3}
    assert S.tensor_embed(x, 2, 3) == S.monomial(3, 3, q=top, a=[0, bottom, 0])
    assert S.coproduct_slot(x, 1) == S.monomial(2, 3, q=top, a=[bottom, bottom])
    assert S.coproduct_slot(S.tensor_embed(x, 2, 2), 2) == \
        S.monomial(3, 3, q=top, a=[0, bottom, bottom])
    assert S.to_json(x)["terms"] == [{"c": "3", "q": top, "a": [bottom]}]


def test_exponents_past_their_field_raise():
    top, bottom = S.EXP_MAX, S.EXP_MIN
    for bad in (top + 1, bottom - 1):
        with pytest.raises(S.ExponentRangeError, match=r"packed field \[-16384, 16383\]"):
            S.pack((0, bad, 0))
        with pytest.raises(S.ExponentRangeError):
            S.monomial(2, 1, q=bad)
    # every field, both directions, at arities 0 to 3: a product one past
    # the range raises instead of carrying into its neighbour
    for arity in range(4):
        for i in range(arity + 1):
            for edge, step in ((top, 1), (bottom, -1)):
                expo = [0] * (arity + 1)
                expo[i] = edge
                unit = [0] * (arity + 1)
                unit[i] = step
                x = S.Scalar(arity, {S.pack(expo): 1})
                assert isotopy.ref_terms(x * S.Scalar.one(arity)) == {tuple(expo): 1}
                with pytest.raises(S.ExponentRangeError):
                    x * S.Scalar(arity, {S.pack(unit): 1})
    # lifting a summand to a common denominator multiplies too
    with pytest.raises(S.ExponentRangeError):
        S.monomial(1, 1, q=top) + S.delta(1, 1)
    with pytest.raises(S.ExponentRangeError):
        S.specialize(S.a_power(1, 2, 1), [top])


def test_field_overflow_is_one_cli_error(tmp_path, capsys):
    path = tmp_path / "trefoil.mw"
    path.write_text("braid 2: 1 1 1 ; close\n", encoding="utf-8")
    assert cli.main(["eval", str(path), "--t", "20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("skeinlab: error: an exponent left its packed field "
                            "[-16384, 16383]\n")
