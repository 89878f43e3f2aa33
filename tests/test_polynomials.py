from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bruhat_cubulator.polynomials import (
    ONE,
    ZERO,
    IntPoly,
    euler_exponents,
    is_palindromic,
    quantum_factorizations,
    quantum_poly,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


class TestIntPoly:
    def test_trimming_and_zero(self):
        assert IntPoly((0, 0)).is_zero()
        assert IntPoly((1, 2, 0)).coeffs == (1, 2)
        assert not ZERO
        assert ONE.coeffs == (1,)

    def test_arithmetic_spot(self):
        p = IntPoly((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero()
        assert (p + ONE).coeffs == (2, 1)
        with pytest.raises(TypeError):
            p + 1
        assert (3 * p).coeffs == (3, 3)

    def test_eval(self):
        p = IntPoly((1, 0, 2))
        assert p(3) == 19

    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)

    @given(coeff_lists, coeff_lists)
    def test_divmod_identity(self, a, b):
        divisor = IntPoly(b + [1])  # unit leading coefficient
        p = IntPoly(a)
        q, r = divmod(p, divisor)
        assert q * divisor + r == p
        assert r.degree < divisor.degree

    def test_divmod_requires_unit_lead(self):
        with pytest.raises(ValueError):
            divmod(IntPoly((1, 1)), IntPoly((1, 2)))

    def test_exact_div(self):
        p = quantum_poly(2) * quantum_poly(3)
        assert p.exact_div(quantum_poly(3)) == quantum_poly(2)
        with pytest.raises(ValueError):
            p.exact_div(IntPoly((1, 1, 1, 1)))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.coeffs = (2,)


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic(IntPoly((1, 3, 3, 1)))
        assert is_palindromic(ONE)
        assert not is_palindromic(IntPoly((1, 2)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_palindromic(ZERO)

    @given(coeff_lists.filter(lambda a: any(a)))
    def test_mirror_invariance(self, a):
        p = IntPoly(a)
        assert is_palindromic(p) == (p.coeffs == p.coeffs[::-1])


class TestQuantum:
    def test_quantum_poly(self):
        assert quantum_poly(1) == ONE
        assert quantum_poly(4).coeffs == (1, 1, 1, 1)
        with pytest.raises(ValueError):
            quantum_poly(0)

    def test_factorizations_examples(self):
        assert quantum_factorizations(ONE) == {()}
        assert quantum_factorizations(quantum_poly(2)) == {(2,)}
        p = quantum_poly(2) * quantum_poly(3)
        assert quantum_factorizations(p) == {(2, 3)}
        assert quantum_factorizations(quantum_poly(6)) == {(6,)}
        assert quantum_factorizations(IntPoly((1, 1, 2))) == set()
        # (1 - z) p has exponents c_6 = 1 and c_7 = -2 through its degree
        assert quantum_factorizations(quantum_poly(6) * IntPoly((1,) + (0,) * 6 + (2,))) == set()

    def test_factorizations_reject_bad_constant(self):
        with pytest.raises(ValueError):
            quantum_factorizations(IntPoly((2, 1)))

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3))
    def test_factorizations_complete(self, shape):
        shape = tuple(sorted(shape))
        p = ONE
        for a in shape:
            p = p * quantum_poly(a)
        found = quantum_factorizations(p)
        assert shape in found
        for s in found:
            q = ONE
            for a in s:
                q = q * quantum_poly(a)
            assert q == p

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=6), max_size=4),
        st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=-2, max_value=2)),
        ),
    )
    def test_factorizations_match_trial_division(self, shape, perturb):
        p = ONE
        for a in shape:
            p = p * quantum_poly(a)
        if perturb is not None:
            i, delta = perturb
            coeffs = list(p.coeffs) + [0] * (i + 1 - len(p.coeffs))
            coeffs[i] += delta
            p = IntPoly(coeffs)
        found = quantum_factorizations(p)
        assert found == oracles.trial_division_factorizations(p)
        assert len(found) <= 1


def _euler_product(exps, order):
    """prod (1 - z^a)^(c_a) through z^order, as a coefficient list.

    Each factor is expanded by the binomial series, whose coefficient of
    z^(am) is (-1)^m c (c - 1) ... (c - m + 1) / m!, for any integer c.
    """
    out = [1] + [0] * order
    for a, c in enumerate(exps, 1):
        factor = [0] * (order + 1)
        binom = 1
        for m in range(order // a + 1):
            factor[a * m] = binom
            binom = binom * -(c - m) // (m + 1)
        out = [sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return out


class TestEulerExponents:
    def test_examples(self):
        assert euler_exponents((1, -1), 3) == [1, 0, 0]
        assert euler_exponents((1,), 2) == [0, 0]
        # 1 / (1 - z) = 1 + z + z^2 + ...
        assert euler_exponents((1, 1, 1, 1), 3) == [-1, 0, 0]
        # (1 - z^2)(1 - z^3)
        assert euler_exponents((1, 0, -1, -1, 0, 1), 5) == [0, 1, 1, 0, 0]

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            euler_exponents((2, 1), 3)

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=8))
    def test_recovers_exponents(self, exps):
        order = len(exps)
        assert euler_exponents(_euler_product(exps, order), order) == exps

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=8))
    def test_product_reproduces_series(self, tail):
        coeffs = [1] + tail
        order = len(tail)
        assert _euler_product(euler_exponents(coeffs, order), order) == coeffs

