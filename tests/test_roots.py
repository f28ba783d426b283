"""The univariate core of algcert.roots: division, gcd, evaluation and roots."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from algcert.certify import certify
from algcert.constructions import univariate_quotient_algebra
from algcert.errors import UnfactoredInteger
from algcert.fields import GF, QQ, is_prime
from algcert.roots import factor_integer, poly_divmod, poly_eval, poly_gcd, roots_in_field

GF_BIG = GF(2**31 - 1)


def _mul(a, b, field):
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _trim(a, field):
    a = list(a)
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def _add(a, b, field):
    n = max(len(a), len(b))
    a, b = a + [field.zero] * (n - len(a)), b + [field.zero] * (n - len(b))
    return _trim([field.add(x, y) for x, y in zip(a, b)], field)


def _irreducible_quadratic(rng, p):
    # t^2 + b t + c is irreducible over GF(p) iff b^2 - 4c is a non-square
    while True:
        b, c = rng.randrange(p), rng.randrange(p)
        disc = (b * b - 4 * c) % p
        if disc and pow(disc, (p - 1) // 2, p) == p - 1:
            return [c, b, 1]


@pytest.mark.parametrize("p", [4099, 65537, 2**31 - 1])
def test_large_prime_roots_of_seeded_products(p):
    # above p = 4096 the roots come from gcd(t^p - t, f) and the
    # equal-degree split, not from a scan of the field
    field = GF(p)
    rng = random.Random(p)
    for trial in range(12):
        roots = set(rng.sample(range(p), rng.randint(0, 5)))
        if trial % 3 == 0:
            roots.add(0)
        f = [field.coerce(rng.randrange(1, p))]
        for r in roots:
            for _ in range(rng.randint(1, 3)):
                f = _mul(f, [field.neg(r), field.one], field)
        for _ in range(rng.randint(0, 2)):
            f = _mul(f, _irreducible_quadratic(rng, p), field)
        assert roots_in_field(f, field) == sorted(roots)


def test_scan_and_split_agree_near_the_switch():
    # GF(4091) is scanned and GF(4099) is split; both see t(t - 1)(t^2 + 1)
    # with t^2 + 1 irreducible (both primes are 3 mod 4)
    f = [0, -1, 1, -1, 1]
    assert roots_in_field(f, GF(4091)) == [0, 1]
    assert roots_in_field(f, GF(4099)) == [0, 1]


def test_rational_roots():
    # 2 (t - 1/2)^2 (t + 3) t (t^2 + 1)
    f = [Fraction(2)]
    for factor in ([Fraction(-1, 2), 1], [Fraction(-1, 2), 1], [3, 1], [0, 1], [1, 0, 1]):
        f = _mul(f, [QQ.coerce(c) for c in factor], QQ)
    assert roots_in_field(f, QQ) == [-3, 0, Fraction(1, 2)]
    assert roots_in_field([0, 0, 5], QQ) == [0]
    assert roots_in_field([7], QQ) == []
    with pytest.raises(ValueError):
        roots_in_field([0, 0], QQ)


# two primes just above the trial-division bound of factor_integer
P, Q = 1000003, 1000033
MERSENNE_89 = 2**89 - 1  # prime, above the range where is_prime is a proof


def test_rational_roots_behind_a_composite_cofactor():
    assert roots_in_field([P * Q, -(P + Q), 1], QQ) == [P, Q]


def test_split_quotient_behind_a_composite_cofactor():
    # Q[t]/((t - P)(t - Q)) is Q x Q, certified as Q[t]/((t - 2)(t - 3)) is
    certs = [certify(univariate_quotient_algebra(QQ, [a * b, -(a + b), 1])).to_dict()
             for a, b in ((2, 3), (P, Q))]
    assert certs[0] == certs[1]
    assert "R-SEMI" in {v["rule"] for v in certs[1]["verdicts"]}


@pytest.mark.parametrize("n, factors", [
    (1, {}),
    (-12, {2: 2, 3: 1}),
    (P * Q, {P: 1, Q: 1}),
    (P**2 * Q * 10, {2: 1, 5: 1, P: 2, Q: 1}),
    (1000000007 * 10000000019, {1000000007: 1, 10000000019: 1}),
    (2**61 - 1, {2**61 - 1: 1}),
])
def test_factor_integer(n, factors):
    assert factor_integer(n) == factors


def test_unproved_cofactor_is_refused_and_certify_records_it():
    with pytest.raises(UnfactoredInteger, match=str(MERSENNE_89)):
        factor_integer(MERSENNE_89)
    cert = certify(univariate_quotient_algebra(QQ, [MERSENNE_89, -(MERSENNE_89 + 1), 1]))
    # one cause, one unknown: the refusal's reason, with no generic one beside it
    assert [u for u in cert.to_dict()["unknowns"] if u.get("invariant") == "splitness"] == [
        {"invariant": "splitness",
         "reason": f"cofactor {MERSENNE_89} could be neither split nor proved prime"}]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 3000), max_size=6))
def test_factor_integer_multiplies_back_to_primes(ks):
    n = 1
    for k in ks:
        n *= k
    factors = factor_integer(n)
    assert all(is_prime(p) for p in factors)
    assert n == prod(p**e for p, e in factors.items())


_FIELDS = [
    (QQ, st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    (GF(2), st.integers(0, 1)),
    (GF(5), st.integers(0, 4)),
    (GF_BIG, st.integers(0, 2**31 - 2)),
]


def _polys(entry, max_size=6):
    return st.lists(entry, max_size=max_size)


@pytest.mark.parametrize("field, entry", _FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divmod_reconstructs(field, entry, data):
    a = [field.coerce(x) for x in data.draw(_polys(entry, 8))]
    b = [field.coerce(x) for x in data.draw(_polys(entry))]
    if not any(b):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b, field)
        return
    q, r = poly_divmod(a, b, field)
    assert _add(_mul(q, b, field), r, field) == _trim(a, field)
    deg_b = max(i for i, c in enumerate(b) if not field.is_zero(c))
    assert len(r) - 1 < deg_b
    assert not r or not field.is_zero(r[-1])
    assert not q or not field.is_zero(q[-1])


@pytest.mark.parametrize("field, entry", _FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gcd_is_monic_common_divisor(field, entry, data):
    a, b, c = ([field.coerce(x) for x in data.draw(_polys(entry, 4))] for _ in range(3))
    ac, bc = _mul(a, c, field), _mul(b, c, field)
    g = poly_gcd(ac, bc, field)
    if not _trim(ac, field) and not _trim(bc, field):
        assert g == []
        return
    assert g[-1] == field.one
    for x in (ac, bc):
        assert poly_divmod(x, g, field)[1] == []
    c = _trim(c, field)
    if c:    # every common divisor divides the gcd
        assert poly_divmod(g, c, field)[1] == []


@pytest.mark.parametrize("field, entry", _FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_matches_term_sum(field, entry, data):
    f = [field.coerce(x) for x in data.draw(_polys(entry, 8))]
    x = field.coerce(data.draw(entry))
    want = field.zero
    for i, c in enumerate(f):
        term = c
        for _ in range(i):
            term = field.mul(term, x)
        want = field.add(want, term)
    assert poly_eval(f, x, field) == want
