from __future__ import annotations

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruhat_cubulator.coxeter import build_system
from bruhat_cubulator.polynomials import IntPoly
from bruhat_cubulator.rings import (
    CosRing,
    cos_multiple,
    cyclotomic,
    minimal_poly_two_cos,
    scalar_sign,
)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(2).coeffs == (1, 1)
        assert cyclotomic(3).coeffs == (1, 1, 1)
        assert cyclotomic(4).coeffs == (1, 0, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)
        assert cyclotomic(10).coeffs == (1, -1, 1, -1, 1)

    @given(st.integers(min_value=1, max_value=40))
    def test_product_over_divisors(self, n):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


class TestCosMultiple:
    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=0.1, max_value=3.0))
    def test_trig_identity(self, k, t):
        value = cos_multiple(k)(mpmath.mpf(2) * mpmath.cos(t))
        assert abs(value - 2 * mpmath.cos(k * t)) < 1e-9


class TestMinimalPoly:
    def test_golden_ratio_case(self):
        # 2 cos(pi/5) is the golden ratio, a root of x^2 - x - 1
        assert minimal_poly_two_cos(5).coeffs == (-1, -1, 1)

    def test_known_degrees(self):
        # degree is phi(2L)/2
        assert minimal_poly_two_cos(3).degree == 1
        assert minimal_poly_two_cos(4).degree == 2
        assert minimal_poly_two_cos(7).degree == 3
        assert minimal_poly_two_cos(12).degree == 4

    @given(st.integers(min_value=3, max_value=24))
    def test_root_numerically(self, L):
        c = 2 * mpmath.cos(mpmath.pi / L)
        assert abs(minimal_poly_two_cos(L)(c)) < 1e-8


class TestCosRing:
    def test_rejects_small_L(self):
        with pytest.raises(ValueError):
            CosRing(2)

    def test_scalar_coercion_and_arithmetic(self):
        ring = CosRing(5)
        c = ring.two_cos_pi_over(5)
        # golden ratio: c^2 = c + 1
        assert c * c == c + ring.one
        assert (c - c) == ring.zero
        assert ring.scalar(3) == ring.one + ring.one + ring.one
        assert not ring.zero
        assert bool(c)

    def test_two_cos_requires_divisor(self):
        ring = CosRing(10)
        assert ring.two_cos_pi_over(5) is not None
        with pytest.raises(ValueError):
            ring.two_cos_pi_over(4)

    def test_two_cos_pi_over_2_is_zero(self):
        ring = CosRing(4)
        assert ring.two_cos_pi_over(2) == ring.zero

    def test_sign(self):
        ring = CosRing(7)
        c = ring.two_cos_pi_over(7)
        assert c.sign() == 1
        assert (-c).sign() == -1
        assert ring.zero.sign() == 0
        # a value numerically tiny but nonzero still gets a definite sign
        tight = c * c * c - ring.scalar(3) * c * c + ring.one  # arbitrary nonzero combination
        assert tight.sign() in (-1, 1)
        # 13 - 8c is about 0.056 at c = 2cos(pi/5), but -3 at the fresh bracket's
        # top 2: the derivative bound must keep (0, 2) from deciding the sign
        assert CosRing(5).sign((13, -8)) == 1

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
    def test_sign_matches_float(self, a, b):
        ring = CosRing(7)
        x = ring.scalar(a) + ring.scalar(b) * ring.two_cos_pi_over(7)
        approx = a + b * 2 * mpmath.cos(mpmath.pi / 7)
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)

    def test_fibonacci_signs(self):
        # F_(n+1) - F_n * phi = (1 - phi)^n, and 1 - phi < 0
        ring = CosRing(5)
        phi = ring.two_cos_pi_over(5)
        power = ring.one
        fib = [0, 1]
        for n in range(201):
            assert power.coeffs == (fib[n + 1], -fib[n])
            assert power.sign() == (-1) ** n
            power = power * (ring.one - phi)
            fib.append(fib[-1] + fib[-2])

    @pytest.mark.parametrize("L", [3, 4, 5, 7, 30])
    def test_sign_rejects_unreduced(self, L):
        ring = CosRing(L)
        # psi(c) = 0, so a tuple as long as psi has no sign to find
        with pytest.raises(ValueError):
            ring.sign(ring.minpoly.coeffs)

    @pytest.mark.parametrize("tag", ["H3", "H4", "I2(7)", "I2(8)", "I2(12)", "I2(30)"])
    def test_root_signs_match_reference(self, tag):
        system = build_system(tag)
        w0 = system.longest_element()
        system.reflections_up_to(w0.length)
        ring = system.ring
        assert len(ring._sign_cache) >= 4
        with mpmath.workprec(400):
            c = 2 * mpmath.cos(mpmath.pi / ring.L)
            for coeffs, sign in ring._sign_cache.items():
                value = sum(a * c**i for i, a in enumerate(coeffs))
                assert abs(value) > mpmath.mpf(2) ** -300
                assert sign == (1 if value > 0 else -1), coeffs

    def test_no_int_mixing(self):
        ring = CosRing(5)
        with pytest.raises(TypeError):
            ring.one + 1
        with pytest.raises(TypeError):
            2 * ring.one
        assert ring.one != 1

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            CosRing(5).one + CosRing(7).one

    def test_scalar_sign_ints(self):
        assert scalar_sign(5) == 1
        assert scalar_sign(-2) == -1
        assert scalar_sign(0) == 0

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CosRing(5).one.coeffs = ()
