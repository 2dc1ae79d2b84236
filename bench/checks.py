"""Correctness checks on the program's outputs, apart from its arithmetic.

Expected values are computed here in exact rational arithmetic
(`fractions.Fraction`) at a few rational points (q, a1, a2), or as exact
integer Laurent polynomials, never with `skeinlab.scalars`. The loop
value is d = (a - 1/a) / z with z = q - 1/q, and the ring coproduct sends
a to a1*a2 and d to d1*a2 + d2/a1.

Each check returns None when the output is right, or one line saying
what is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from functools import lru_cache
from math import comb

POINTS = (
    (F(2), F(3), F(5, 2)),
    (F(-3, 2), F(2, 7), F(3)),
    (F(5, 3), F(-4), F(7, 5)),
)


def z_of(q):
    return q - 1 / q


def d_of(q, a):
    return (a - 1 / a) / z_of(q)


def scalar_at(data: dict, q, avals) -> F:
    """Value of a scalar in the program's JSON form at q and a_i = avals[i]."""
    if len(avals) != data["arity"]:
        raise ValueError("arity does not match the point")
    total = F(0)
    for t in data["terms"]:
        v = F(int(t["c"])) * q ** t["q"]
        for a, e in zip(avals, t["a"]):
            v *= a ** e
        total += v
    return total / z_of(q) ** data["den_pow"]


def torus_recursion(n: int, z, a, d):
    """Framed invariant of the closure of sigma_1^n: P_n = z P_(n-1) + P_(n-2),
    P_0 = d^2, P_1 = a d, run backwards for negative n."""
    prev, cur = d * d, a * d          # P_0, P_1
    if n >= 0:
        for _ in range(n):
            prev, cur = cur, z * cur + prev
        return prev
    for _ in range(-n):                # P_(m-1) = P_(m+1) - z P_m
        prev, cur = cur - z * prev, prev
    return prev


def torus_value(n: int, q, a):
    return torus_recursion(n, z_of(q), a, d_of(q, a))


def torus_coproduct_value(n: int, q, a1, a2):
    """The ring coproduct of P_n: a -> a1 a2 and d -> d1 a2 + d2 / a1."""
    return torus_recursion(n, z_of(q), a1 * a2, d_of(q, a1) * a2 + d_of(q, a2) / a1)


class CheckError(Exception):
    pass


def _load(out: str):
    try:
        return json.loads(out)
    except ValueError as err:
        raise CheckError(f"output is not JSON: {err}") from None


# -- braid-eval ---------------------------------------------------------------


def check_torus(out: str, n: int):
    """eval of T(2,n) against the recursion at each point."""
    data = _load(out)
    for q, a, _ in POINTS:
        got, want = scalar_at(data, q, [a]), torus_value(n, q, a)
        if got != want:
            return f"T(2,{n}) at q={q}, a={a}: got {got}, expected {want}"
    return None


def check_collapse(out: str, writhe: int):
    """At t = 1 (a = q) every closed diagram evaluates to q^writhe, exactly:
    the numerator equals q^writhe (q - 1/q)^den_pow as a Laurent polynomial."""
    data = _load(out)
    if data["arity"] != 1:
        return f"arity {data['arity']} for a one-colour closure"
    num: dict = {}
    for t in data["terms"]:
        e = t["q"] + t["a"][0]
        num[e] = num.get(e, 0) + int(t["c"])
    num = {e: c for e, c in num.items() if c}
    m = data["den_pow"]
    want = {writhe + m - 2 * i: comb(m, i) * (-1) ** i for i in range(m + 1)}
    if num != want:
        return f"t=1 collapse: numerator {sorted(num.items())} is not q^{writhe}(q - q^-1)^{m}"
    return None


# -- split-coproduct ------------------------------------------------------------


@lru_cache(maxsize=4096)
def morse_components(doc: str):
    """(components, crossings) of a rendered diagram, traced here."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    strands, crossings, fresh = [], 0, 0
    for raw in doc.splitlines():
        toks = raw.split()
        if not toks or toks[0] in ("surface", "framing", "profile"):
            continue
        pos = int(toks[1])
        if toks[0] == "cup":
            a, b = fresh, fresh + 1
            fresh += 2
            parent[a], parent[b] = a, a
            strands[pos - 1:pos - 1] = [a, b]
        elif toks[0] == "cap":
            parent[find(strands[pos - 1])] = find(strands[pos])
            del strands[pos - 1:pos + 1]
        elif toks[0] == "x":
            crossings += 1
            strands[pos - 1], strands[pos] = strands[pos], strands[pos - 1]
        else:
            raise CheckError(f"unknown line {raw!r}")
    if strands:
        raise CheckError("diagram is not closed")
    return len({find(x) for x in parent}), crossings


def evaluated_coproduct(data: dict, q, a1, a2, slot_value) -> F:
    """Sum of coefficient times slot values; crossingless slots evaluate to
    d^(circles) here, the rest through slot_value(doc, q, a)."""
    if data.get("slots") != 2:
        raise CheckError(f"expected two slots, got {data.get('slots')}")
    total = F(0)
    for term in data["terms"]:
        v = scalar_at(term["coeff"], q, [a1, a2])
        for doc, a in zip(term["diagrams"], (a1, a2)):
            circles, crossings = morse_components(doc)
            v *= d_of(q, a) ** circles if crossings == 0 else slot_value(doc, q, a)
        total += v
    return total


def _no_crossings(doc, q, a):
    raise CheckError("a split unlink produced a slot diagram with crossings")


def check_unlink(out: str, k: int, ccw: bool):
    """Evaluated output against (d1 a2 + d2/a1)^k; for counterclockwise
    circles also the k+1 terms C(k,j) a1^-(k-j) a2^j, j circles in slot 1."""
    data = _load(out)
    for q, a1, a2 in POINTS:
        got = evaluated_coproduct(data, q, a1, a2, _no_crossings)
        want = (d_of(q, a1) * a2 + d_of(q, a2) / a1) ** k
        if got != want:
            return f"unlink-{k} at {(q, a1, a2)}: got {got}, expected {want}"
    if not ccw:
        return None
    if len(data["terms"]) != k + 1:
        return f"unlink-{k}: {len(data['terms'])} terms, expected {k + 1}"
    seen = set()
    for term in data["terms"]:
        j = morse_components(term["diagrams"][0])[0]
        if morse_components(term["diagrams"][1])[0] != k - j:
            return f"unlink-{k}: a term loses circles"
        want = {"arity": 2, "den_pow": 0,
                "terms": [{"c": str(comb(k, j)), "q": 0, "a": [j - k, j]}]}
        if term["coeff"] != want:
            return f"unlink-{k}: coefficient of j={j} is {term['coeff']}"
        seen.add(j)
    if seen != set(range(k + 1)):
        return f"unlink-{k}: slot-1 circle counts {sorted(seen)}"
    return None


def check_union(out: str, n: int, unknots: int, slot_value):
    """Evaluated output of T(2,n) with unknots against the ring coproduct of
    its invariant, P_n d^unknots, computed by the recursion."""
    data = _load(out)
    for q, a1, a2 in POINTS:
        got = evaluated_coproduct(data, q, a1, a2, slot_value)
        dd = d_of(q, a1) * a2 + d_of(q, a2) / a1
        want = torus_coproduct_value(n, q, a1, a2) * dd ** unknots
        if got != want:
            return f"T(2,{n}) + {unknots} unknots at {(q, a1, a2)}: got {got}, expected {want}"
    return None


# -- verify-fuzz ------------------------------------------------------------------


def expected_checks(plane: int, framings: int) -> int:
    """jaeger, coassoc and counit check each plane entry, mult each ordered
    pair plus powers 2 and 3 per annulus framing, framing-remark twice."""
    return 3 * plane + plane * plane + 2 * framings + 2


def check_verify(rc, out: str, plane: int, framings: int):
    n = expected_checks(plane, framings)
    lines = [line for line in out.splitlines() if line.strip()]
    if rc != 0:
        return f"verify exited {rc}"
    if not lines or lines[-1] != f"ok: {n} checks, 0 failures":
        return f"verify summary {lines[-1] if lines else '(none)'!r}, expected 'ok: {n} checks, 0 failures'"
    body = lines[:-1]
    if len(body) != n or any(not line.startswith("pass ") for line in body):
        return f"verify printed {len(body)} report lines, expected {n} passes"
    return None


def check(case, rc, out: str, slot_value):
    """Dispatch on the case's expectation; output of the wrong shape is a
    failed check, not a crash of the benchmark."""
    try:
        return _check(case.expect, rc, out, slot_value)
    except (CheckError, KeyError, IndexError, TypeError, ValueError) as err:
        return f"malformed output: {type(err).__name__}: {err}"


def _check(e, rc, out, slot_value):
    if e["kind"] == "verify":
        return check_verify(rc, out, e["plane"], e["framings"])
    if rc != 0:
        return f"exit {rc}"
    if e["kind"] == "torus":
        return check_torus(out, e["n"]) or check_collapse(out, e["n"])
    if e["kind"] == "closure":
        return check_collapse(out, e["writhe"])
    if e["kind"] == "unlink":
        return check_unlink(out, e["k"], e["ccw"])
    if e["kind"] == "union":
        return check_union(out, e["n"], e["unknots"], slot_value)
    raise CheckError(f"unknown check kind {e['kind']!r}")
