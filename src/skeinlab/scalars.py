"""Exact arithmetic in the interpolation ring and its tensor powers.

The ground ring is generated over the rational functions in q by the
invertible elements a_1, ..., a_n (one per tensor slot, a_i standing for
q^{t_i}) together with the loop values d_i subject to

    (q - q^-1) * d_i = a_i - a_i^-1.

Every quantity produced by skein evaluation, state sums and box rewriting
lies in the localization of Z[q^{+-1}, a_i^{+-1}] at powers of (q - q^-1),
so a ring element is stored as an integer Laurent polynomial `num` together
with a denominator exponent `den_pow`, meaning num / (q - q^-1)^den_pow.
The canonical form divides out (q - q^-1) exactly as often as possible,
which makes equality structural.

Exponent keys are tuples (e_q, e_a1, ..., e_an) with integer entries.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Mapping


class ArityError(ValueError):
    """Operands live in tensor powers of different sizes."""


class CounitUndefinedError(ValueError):
    """Counit applied to an element with a genuine (q - q^-1) pole."""


class SpecializeError(ValueError):
    """Integer specialization did not produce a Laurent polynomial in q."""


Expo = tuple  # (e_q, e_a1, ..., e_an)


def _divide_q_laurent(poly: dict, lo: int, hi: int):
    """Divide a Laurent polynomial in q (dict exp -> coeff) by q^2 - 1.

    Returns the quotient dict, or None if the division is not exact.
    Ascending synthetic division; the divisor's lowest term is -1.
    """
    acc = dict(poly)
    quo = {}
    for m in range(lo, hi - 1):
        c = acc.get(m, 0)
        if c:
            quo[m] = -c
            acc[m] = 0
            acc[m + 2] = acc.get(m + 2, 0) + c
    if any(acc.values()):
        return None
    return quo


def _divide_once(terms: dict):
    """Exact division of a term dict by (q - q^-1); None if not divisible.

    Works a-monomial by a-monomial: f / (q - q^-1) = (f * q) / (q^2 - 1),
    and q^2 - 1 has unit lowest coefficient, so the division is exact
    integer arithmetic with no heuristics.
    """
    if not terms:
        return {}
    groups: dict = {}
    for expo, c in terms.items():
        apart = expo[1:]
        groups.setdefault(apart, {})[expo[0] + 1] = c  # shift by one: times q
    out = {}
    for apart, qpoly in groups.items():
        lo = min(qpoly)
        hi = max(qpoly)
        quo = _divide_q_laurent(qpoly, lo, hi)
        if quo is None:
            return None
        for e, c in quo.items():
            out[(e,) + apart] = c
    return out


class Scalar:
    """An element num / (q - q^-1)^den_pow of the arity-n ring, canonical.

    Instances are immutable and hashable.
    """

    __slots__ = ("arity", "den_pow", "terms", "_hash")

    def __init__(self, arity: int, terms: Mapping, den_pow: int = 0, _canonical: bool = False):
        clean = {k: v for k, v in terms.items() if v} if not _canonical else dict(terms)
        if not _canonical:
            while den_pow > 0 and clean:
                quo = _divide_once(clean)
                if quo is None:
                    break
                clean = quo
                den_pow -= 1
            if not clean:
                den_pow = 0
        self.arity = arity
        self.den_pow = den_pow
        self.terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Scalar":
        return Scalar(arity, {}, 0, _canonical=True)

    @staticmethod
    def one(arity: int) -> "Scalar":
        return integer(1, arity)

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations -------------------------------------------------

    def _require_same(self, other: "Scalar") -> None:
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, int):
            other = integer(other, self.arity)
        self._require_same(other)
        k = max(self.den_pow, other.den_pow)
        out: dict = {}
        for src in (self, other):
            terms = src.terms
            if src.den_pow < k:
                terms = _mul_terms(terms, _s_power_terms(k - src.den_pow, self.arity))
            for e, c in terms.items():
                out[e] = out.get(e, 0) + c
        return Scalar(self.arity, out, k)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.arity, {e: -c for e, c in self.terms.items()},
                      self.den_pow, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = integer(other, self.arity)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Scalar(self.arity, {e: c * other for e, c in self.terms.items()},
                          self.den_pow)
        self._require_same(other)
        return Scalar(self.arity, _mul_terms(self.terms, other.terms),
                      self.den_pow + other.den_pow)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in this ring")
        result = Scalar.one(self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.arity == other.arity and self.den_pow == other.den_pow
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, self.den_pow,
                               frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Scalar({pretty(self)!r})"

    def __str__(self):
        return pretty(self)


def _mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def _s_power_terms(k: int, arity: int) -> dict:
    """Terms of (q - q^-1)^k by the binomial theorem. The dict is shared
    between callers, so it must never be mutated."""
    zero = (0,) * arity
    return {(k - 2 * j,) + zero: (-1) ** j * comb(k, j) for j in range(k + 1)}


# -- named elements -----------------------------------------------------


def integer(c: int, arity: int) -> Scalar:
    if c == 0:
        return Scalar.zero(arity)
    return Scalar(arity, {(0,) * (arity + 1): c}, 0, _canonical=True)


def monomial(arity: int, coeff: int = 1, q: int = 0, a=()) -> Scalar:
    """coeff * q^q * a_1^{a[0]} * ... with missing a-exponents zero."""
    exps = tuple(a) + (0,) * (arity - len(a))
    if len(exps) != arity:
        raise ArityError("too many a-exponents for the requested arity")
    return Scalar(arity, {(q,) + exps: coeff})


def q_power(e: int, arity: int) -> Scalar:
    return monomial(arity, 1, q=e)


def a_power(slot: int, e: int, arity: int) -> Scalar:
    """The generator a_slot^e, 1-based slot."""
    if not 1 <= slot <= arity:
        raise ArityError(f"slot {slot} out of range for arity {arity}")
    exps = [0] * arity
    exps[slot - 1] = e
    return monomial(arity, 1, a=exps)


def q_minus_qinv(arity: int) -> Scalar:
    return Scalar(arity, _s_power_terms(1, arity), 0, _canonical=True)


def delta(slot: int, arity: int) -> Scalar:
    """The loop value d_slot = (a_slot - a_slot^-1) / (q - q^-1)."""
    if not 1 <= slot <= arity:
        raise ArityError(f"slot {slot} out of range for arity {arity}")
    plus = [0] * arity
    plus[slot - 1] = 1
    minus = [0] * arity
    minus[slot - 1] = -1
    terms = {(0,) + tuple(plus): 1, (0,) + tuple(minus): -1}
    return Scalar(arity, terms, 1, _canonical=True)


@lru_cache(maxsize=None)
def _delta_num_terms(k: int) -> dict:
    """Terms of (a - a^-1)^k at arity 1; shared, so never mutated."""
    return {(0, k - 2 * j): (-1) ** j * comb(k, j) for j in range(k + 1)}


def from_loop_polynomial(poly: Mapping) -> Scalar:
    """The arity-1 element sum of c * q^e_q * a^e_a * d^k over the entries
    {(e_q, e_a, k): c} of poly, with d = (a - a^-1) / (q - q^-1).

    Over (q - q^-1)^top, for the top power of d present, the part of
    d-degree k contributes (a - a^-1)^k * (q - q^-1)^(top - k); the
    constructor then divides out what it can.
    """
    if not poly:
        return Scalar.zero(1)
    parts: dict = {}
    for (eq, ea, k), c in poly.items():
        parts.setdefault(k, {})[(eq, ea)] = c
    top = max(parts)
    num: dict = {}
    for k, part in parts.items():
        lifted = _mul_terms(_mul_terms(part, _delta_num_terms(k)),
                            _s_power_terms(top - k, 1))
        for e, c in lifted.items():
            num[e] = num.get(e, 0) + c
    return Scalar(1, num, top)


# -- structure maps ------------------------------------------------------


def tensor_embed(s: Scalar, slot: int, arity: int) -> Scalar:
    """Rename the single a of an arity-1 element into the given slot."""
    if s.arity != 1:
        raise ArityError("tensor_embed expects an arity-1 element")
    if not 1 <= slot <= arity:
        raise ArityError(f"slot {slot} out of range for arity {arity}")
    out = {}
    for (eq, ea), c in s.terms.items():
        exps = [0] * arity
        exps[slot - 1] = ea
        out[(eq,) + tuple(exps)] = c
    return Scalar(arity, out, s.den_pow, _canonical=True)


def coproduct_slot(s: Scalar, slot: int) -> Scalar:
    """Apply the ring coproduct to one tensor slot, a_slot -> a_slot a_{slot+1}.

    This is the C(q)-algebra map determined by D(q^t) = q^{t_1} q^{t_2} and
    D(d) = d_1 q^{t_2} + q^{-t_1} d_2 on the affected slot; on our
    representation it simply duplicates the slot exponent.
    """
    if not 1 <= slot <= s.arity:
        raise ArityError(f"slot {slot} out of range for arity {s.arity}")
    out = {}
    for expo, c in s.terms.items():
        rest = list(expo[1:])
        rest.insert(slot, rest[slot - 1])
        out[(expo[0],) + tuple(rest)] = c
    return Scalar(s.arity + 1, out, s.den_pow, _canonical=True)


def scalar_coproduct(s: Scalar) -> Scalar:
    if s.arity != 1:
        raise ArityError("scalar_coproduct expects an arity-1 element")
    return coproduct_slot(s, 1)


def counit_slot(s: Scalar, slot: int) -> Scalar:
    """Set a_slot to 1 and drop the slot, re-reducing the canonical form.

    The remaining slots may legitimately keep a (q - q^-1) denominator,
    so unlike scalar_counit this never raises.
    """
    if not 1 <= slot <= s.arity:
        raise ArityError(f"slot {slot} out of range for arity {s.arity}")
    out: dict = {}
    for expo, c in s.terms.items():
        key = expo[:slot] + expo[slot + 1:]
        out[key] = out.get(key, 0) + c
    return Scalar(s.arity - 1, out, s.den_pow)


def scalar_counit(s: Scalar) -> Scalar:
    """Evaluate at t = 0: a -> 1, d -> 0. Exact on all skein values."""
    if s.arity != 1:
        raise ArityError("scalar_counit expects an arity-1 element")
    out = counit_slot(s, 1)
    if out.den_pow:
        raise CounitUndefinedError("counit undefined on this element")
    return out


def specialize(s: Scalar, values: Iterable) -> Scalar:
    """Substitute a_i = q^{N_i}; exact, result an arity-0 Laurent polynomial."""
    ns = list(values)
    if len(ns) != s.arity:
        raise ArityError(f"expected {s.arity} integer{'s' * (s.arity != 1)}, got {len(ns)}")
    out: dict = {}
    for expo, c in s.terms.items():
        key = (expo[0] + sum(n * ea for n, ea in zip(ns, expo[1:])),)
        out[key] = out.get(key, 0) + c
    value = Scalar(0, out, s.den_pow)
    if value.den_pow:
        raise SpecializeError("not polynomial at this specialization")
    return value


def rename_slots(s: Scalar, target: Iterable, arity: int) -> Scalar:
    """Send slot i of s to slot target[i-1] of a fresh arity-n element."""
    tgt = list(target)
    if len(tgt) != s.arity:
        raise ArityError("one target slot per source slot required")
    out: dict = {}
    for expo, c in s.terms.items():
        exps = [0] * arity
        for i, e in enumerate(expo[1:]):
            exps[tgt[i] - 1] += e
        key = (expo[0],) + tuple(exps)
        out[key] = out.get(key, 0) + c
    return Scalar(arity, out, s.den_pow)


# -- rendering -----------------------------------------------------------


def _mono_str(expo: Expo, coeff: int, arity: int) -> str:
    bits = []
    if expo[0]:
        bits.append("q" if expo[0] == 1 else f"q^{expo[0]}")
    for i in range(arity):
        e = expo[1 + i]
        if e:
            t = "t" if arity == 1 else f"t{i + 1}"
            if e == 1:
                bits.append(f"q^{t}")
            else:
                bits.append(f"q^{e}{t}")
    mag = abs(coeff)
    if mag != 1 or not bits:
        bits.insert(0, str(mag))
    return "*".join(bits)


def pretty(s: Scalar) -> str:
    """Deterministic human-readable form, numerator over (q - q^-1)^k."""
    if not s.terms:
        return "0"
    parts = []
    for expo in sorted(s.terms):
        c = s.terms[expo]
        text = _mono_str(expo, c, s.arity)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    num = " ".join(parts)
    if s.den_pow == 0:
        return num
    den = "(q - q^-1)" if s.den_pow == 1 else f"(q - q^-1)^{s.den_pow}"
    return f"({num}) / {den}"


def to_json(s: Scalar) -> dict:
    return {
        "arity": s.arity,
        "den_pow": s.den_pow,
        "terms": [
            {"c": str(s.terms[e]), "q": e[0], "a": list(e[1:])}
            for e in sorted(s.terms)
        ],
    }
