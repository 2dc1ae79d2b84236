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

The monomial q^e_q a_1^e_1 ... a_n^e_n is keyed by one int: n + 1 16-bit
fields, e_q in the most significant and e_n in the least, each holding its
exponent plus 2^14. Legal exponents lie in [EXP_MIN, EXP_MAX] = [-2^14,
2^14 - 1], so each field's top (guard) bit is clear and sorted keys follow
the tuples (e_q, e_1, ..., e_n). A product of monomials is ka + kb minus
the key of 1. Two legal exponents sum to less than 2^15 in magnitude, so
a product that leaves the legal range sets that field's guard bit (or a
bit above the top field, or the sign) and raises ExponentRangeError;
nothing wraps. `pack` and `unpack` convert keys to and from exponent
tuples, for printing and for tests.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Iterable, Mapping


class ArityError(ValueError):
    """Operands live in tensor powers of different sizes."""


class SpecializeError(ValueError):
    """Integer specialization did not produce a Laurent polynomial in q."""


class ExponentRangeError(OverflowError):
    """An exponent outside [EXP_MIN, EXP_MAX], the range of a key field."""


_W = 16                     # bits per field
_B = 1 << (_W - 2)          # the bias of a field
_F = (1 << _W) - 1          # one field's mask
EXP_MIN, EXP_MAX = -_B, _B - 1
_RANGE = f"an exponent left its packed field [{EXP_MIN}, {EXP_MAX}]"


def pack(expo: Iterable) -> int:
    """The key of the exponent vector (e_q, e_1, ..., e_n)."""
    key = 0
    for e in expo:
        if not EXP_MIN <= e <= EXP_MAX:
            raise ExponentRangeError(_RANGE)
        key = (key << _W) | (e + _B)
    return key


def unpack(key: int, arity: int) -> tuple:
    """The exponent vector (e_q, e_1, ..., e_arity) of a key."""
    return tuple([((key >> (_W * i)) & _F) - _B for i in range(arity, -1, -1)])


@lru_cache(maxsize=None)
def _layout(arity: int) -> tuple:
    """(key of 1, the bits no legal key sets) at this arity."""
    ones = ((1 << (_W * (arity + 1))) - 1) // _F  # a 1 in each field
    return _B * ones, ~((_F >> 1) * ones)


def _in_field(terms: dict, arity: int) -> dict:
    """`terms`, after checking every key's fields are legal."""
    if terms and reduce(or_, terms) & _layout(arity)[1]:
        raise ExponentRangeError(_RANGE)
    return terms


def _divide_once(terms: dict, arity: int):
    """Exact division of a term dict by (q - q^-1); None if not divisible.

    Terms fall into chains by their a-fields and the parity of e_q, which
    one mask of the key selects. From f = (q - q^-1) g, the coefficient of
    q^m in g is the sum of f's coefficients at q^(m+1), q^(m+3), ... in
    its chain, so f is divisible exactly when every chain sums to zero, and
    g is then filled in down each chain from its top, gaps included.
    """
    q = 1 << (_W * arity)
    mask = (q << 1) - 1
    sums: dict = {}
    for key, c in terms.items():
        chain = key & mask
        sums[chain] = sums.get(chain, 0) + c
    if any(sums.values()):
        return None
    chains: dict = {}
    for key in sorted(terms, reverse=True):
        chains.setdefault(key & mask, []).append(key)
    out = {}
    for keys in chains.values():
        run = 0
        for hi, lo in zip(keys, keys[1:]):
            run += terms[hi]
            if run:
                for k in range(hi - q, lo, -2 * q):
                    out[k] = run
    return out


class Scalar:
    """An element num / (q - q^-1)^den_pow of the arity-n ring, canonical.

    `terms` maps keys (see the module docstring) to nonzero integers.
    Instances are immutable and hashable.
    """

    __slots__ = ("arity", "den_pow", "terms", "_hash")

    def __init__(self, arity: int, terms: Mapping, den_pow: int = 0, _canonical: bool = False):
        clean = {k: v for k, v in terms.items() if v} if not _canonical else dict(terms)
        if not _canonical:
            while den_pow > 0 and clean:
                quo = _divide_once(clean, arity)
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
        return add_all((self, other), self.arity)

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
        return Scalar(self.arity, _mul_terms(self.terms, other.terms, self.arity),
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


def add_all(values: Iterable, arity: int) -> Scalar:
    """The sum of arity-n Scalars."""
    return _lifted_sum(((v.terms, v.den_pow) for v in values), arity)


def _lifted_sum(fractions: Iterable, arity: int) -> Scalar:
    """The sum of num / (q - q^-1)^den_pow over (num terms, den_pow) pairs:
    each numerator lifted to the largest denominator met so far and added,
    with one canonical form at the end."""
    num: dict = {}
    den = 0
    for terms, den_pow in fractions:
        if den_pow > den:
            num = _mul_terms(num, _s_power_terms(den_pow - den, arity), arity)
            den = den_pow
        elif den_pow < den:
            terms = _mul_terms(terms, _s_power_terms(den - den_pow, arity), arity)
        for e, c in terms.items():
            num[e] = num.get(e, 0) + c
    return Scalar(arity, num, den)


def _mul_terms(a: dict, b: dict, arity: int) -> dict:
    """The product of two term dicts of arity-n keys (n + 1 fields)."""
    out: dict = {}
    get = out.get
    one = _layout(arity)[0]
    shifted = [(kb - one, cb) for kb, cb in b.items()]
    for ka, ca in a.items():
        for kb, cb in shifted:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return _in_field(out, arity)


@lru_cache(maxsize=None)
def _s_power_terms(k: int, arity: int) -> dict:
    """Terms of (q - q^-1)^k by the binomial theorem. The dict is shared
    between callers, so it must never be mutated."""
    zero = (0,) * arity
    return {pack((k - 2 * j,) + zero): (-1) ** j * comb(k, j) for j in range(k + 1)}


# -- named elements -----------------------------------------------------


def integer(c: int, arity: int) -> Scalar:
    if c == 0:
        return Scalar.zero(arity)
    return Scalar(arity, {_layout(arity)[0]: c}, 0, _canonical=True)


def monomial(arity: int, coeff: int = 1, q: int = 0, a=()) -> Scalar:
    """coeff * q^q * a_1^{a[0]} * ... with missing a-exponents zero."""
    exps = tuple(a) + (0,) * (arity - len(a))
    if len(exps) != arity:
        raise ArityError("too many a-exponents for the requested arity")
    return Scalar(arity, {pack((q,) + exps): coeff})


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
    num = a_power(slot, 1, arity) - a_power(slot, -1, arity)
    return Scalar(arity, num.terms, 1, _canonical=True)


@lru_cache(maxsize=None)
def _delta_num_terms(k: int) -> dict:
    """Terms of (a - a^-1)^k at arity 1; shared, so never mutated."""
    return {pack((0, k - 2 * j)): (-1) ** j * comb(k, j) for j in range(k + 1)}


def from_loop_polynomial(poly: Mapping) -> Scalar:
    """The arity-1 element sum of c * q^e_q * a^e_a * d^k over the entries
    of poly, keyed `pack((e_q, e_a, k))`, with d = (a - a^-1) / (q - q^-1).
    Dropping a key's low field leaves the arity-1 key of q^e_q a^e_a. The
    part of d-degree k is (a - a^-1)^k * part / (q - q^-1)^k; the parts are
    summed from the top degree down, so each is lifted once.
    """
    parts: dict = {}
    for key, c in _in_field(poly, 2).items():
        parts.setdefault((key & _F) - _B, {})[key >> _W] = c
    return _lifted_sum(((_mul_terms(parts[k], _delta_num_terms(k), 1), k)
                        for k in sorted(parts, reverse=True)), 1)


def from_cut_terms(terms: Mapping, arity: int) -> Scalar:
    """The arity-n element sum of c * (q - q^-1)^s * a-monomial over the
    entries of terms, each keyed as an arity-n key whose q field holds s."""
    top = _W * arity
    amask = (1 << top) - 1
    out: dict = {}
    for key, c in terms.items():
        apart = key & amask
        for sq, b in _s_power_terms((key >> top) - _B, arity).items():
            k = (sq & ~amask) | apart
            out[k] = out.get(k, 0) + c * b
    return Scalar(arity, out)


# -- structure maps ------------------------------------------------------


def tensor_embed(s: Scalar, slot: int, arity: int) -> Scalar:
    """Rename the single a of an arity-1 element into the given slot."""
    if s.arity != 1:
        raise ArityError("tensor_embed expects an arity-1 element")
    if not 1 <= slot <= arity:
        raise ArityError(f"slot {slot} out of range for arity {arity}")
    top, sh = _W * arity, _W * (arity - slot)
    rest = _layout(arity)[0] - (_B << top) - (_B << sh)  # the other a-fields at 0
    out = {((k >> _W) << top) + ((k & _F) << sh) + rest: c for k, c in s.terms.items()}
    return Scalar(arity, out, s.den_pow, _canonical=True)


def coproduct_slot(s: Scalar, slot: int) -> Scalar:
    """Apply the ring coproduct to one tensor slot, a_slot -> a_slot a_{slot+1}.

    This is the C(q)-algebra map determined by D(q^t) = q^{t_1} q^{t_2} and
    D(d) = d_1 q^{t_2} + q^{-t_1} d_2 on the affected slot; on our
    representation it simply duplicates the slot's field.
    """
    if not 1 <= slot <= s.arity:
        raise ArityError(f"slot {slot} out of range for arity {s.arity}")
    sh = _W * (s.arity - slot)
    low = (1 << sh) - 1
    out = {}
    for k, c in s.terms.items():
        high = k >> sh  # the fields q, a_1, ..., a_slot
        out[(((high << _W) | (high & _F)) << sh) | (k & low)] = c
    return Scalar(s.arity + 1, out, s.den_pow, _canonical=True)


def scalar_coproduct(s: Scalar) -> Scalar:
    if s.arity != 1:
        raise ArityError("scalar_coproduct expects an arity-1 element")
    return coproduct_slot(s, 1)


def counit_slot(s: Scalar, slot: int) -> Scalar:
    """Set a_slot to 1 and drop the slot, re-reducing the canonical form.

    The remaining slots may legitimately keep a (q - q^-1) denominator,
    so this never raises.
    """
    if not 1 <= slot <= s.arity:
        raise ArityError(f"slot {slot} out of range for arity {s.arity}")
    sh = _W * (s.arity - slot)
    low = (1 << sh) - 1
    out: dict = {}
    for k, c in s.terms.items():
        key = ((k >> (sh + _W)) << sh) | (k & low)
        out[key] = out.get(key, 0) + c
    return Scalar(s.arity - 1, out, s.den_pow)


def specialize(s: Scalar, values: Iterable) -> Scalar:
    """Substitute a_i = q^{N_i}; exact, result an arity-0 Laurent polynomial."""
    ns = list(values)
    if len(ns) != s.arity:
        raise ArityError(f"expected {s.arity} integer{'s' * (s.arity != 1)}, got {len(ns)}")
    out: dict = {}
    for k, c in s.terms.items():
        expo = unpack(k, s.arity)
        key = pack((expo[0] + sum(n * ea for n, ea in zip(ns, expo[1:])),))
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
    for k, c in s.terms.items():
        expo = unpack(k, s.arity)
        exps = [expo[0]] + [0] * arity
        for t, e in zip(tgt, expo[1:]):
            exps[t] += e
        key = pack(exps)
        out[key] = out.get(key, 0) + c
    return Scalar(arity, out, s.den_pow)


# -- rendering -----------------------------------------------------------


def _mono_str(expo: tuple, coeff: int, arity: int) -> str:
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
    for key in sorted(s.terms):
        c = s.terms[key]
        text = _mono_str(unpack(key, s.arity), c, s.arity)
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
            {"c": str(s.terms[k]), "q": e[0], "a": list(e[1:])}
            for k in sorted(s.terms) for e in (unpack(k, s.arity),)
        ],
    }
