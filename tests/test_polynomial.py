"""Integer polynomials in t: arithmetic and rendering."""

from __future__ import annotations

import pickle

import pytest

from coxbruhat import IntPolynomial


def test_construction_trims_zeros():
    p = IntPolynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert IntPolynomial.from_coeffs([]).coeffs == ()
    assert IntPolynomial.from_coeffs([0, 0]) == IntPolynomial.zero()


@pytest.mark.parametrize("coeffs", [[0.5, 1.7], [1, 2.5], [1, 0.25, 0], ["1"]])
def test_non_integral_coefficients_raise(coeffs):
    # int() once truncated or parsed these: [0.5, 1.7] gave t
    with pytest.raises(ValueError, match="must be integers"):
        IntPolynomial.from_coeffs(coeffs)


@pytest.mark.parametrize("coeffs, want", [
    ([True, 2.0, 0.0], (1, 2)),
    ((c for c in [1.0, False, True, 0]), (1, 0, 1)),
])
def test_bools_and_integral_floats_become_ints(coeffs, want):
    p = IntPolynomial.from_coeffs(coeffs)
    assert p.coeffs == want
    assert all(type(c) is int for c in p.coeffs)


def test_degree_and_coefficients():
    p = IntPolynomial.from_coeffs([1, 0, 3])
    assert p.degree == 2
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 3
    assert p.coefficient(99) == 0
    assert IntPolynomial.zero().degree == -1


def test_arithmetic():
    one = IntPolynomial.one()
    t = IntPolynomial.t_power(1)
    p = (one + t) * (one + t)
    assert p.coeffs == (1, 2, 1)
    assert p(1) == 4
    assert p(2) == 9
    assert (p + IntPolynomial.zero()) == p
    assert (p * IntPolynomial.zero()) == IntPolynomial.zero()
    assert p.shifted(2).coeffs == (0, 0, 1, 2, 1)
    assert (IntPolynomial.one() + IntPolynomial.t_power(3)).coeffs == (1, 0, 0, 1)
    assert (p + IntPolynomial.from_coeffs([0, -2, -1])).coeffs == (1,)  # trailing zeros trimmed


@pytest.mark.parametrize("op", [lambda p: p + 1, lambda p: 1 + p, lambda p: p * 2, lambda p: 2 * p],
                         ids=["p+1", "1+p", "p*2", "2*p"])
def test_arithmetic_with_an_int_raises_type_error(op):
    # p + 1 and p * 2 once raised AttributeError from reading 1.coeffs
    with pytest.raises(TypeError):
        op(IntPolynomial.from_coeffs([1, 2]))


def test_zero_shifts_are_the_identity():
    p = IntPolynomial.from_coeffs([1, 2])
    assert p.shifted(0) == p
    assert IntPolynomial.zero().shifted(3) == IntPolynomial.zero()
    assert IntPolynomial.t_power(0) == IntPolynomial.one()


@pytest.mark.parametrize("k", [-1, -3])
def test_negative_exponents_raise(k):
    # t^k with k < 0 is no integer polynomial; these once returned 1+2t and 1
    with pytest.raises(ValueError, match="k >= 0"):
        IntPolynomial.from_coeffs([1, 2]).shifted(k)
    with pytest.raises(ValueError, match="k >= 0"):
        IntPolynomial.zero().shifted(k)
    with pytest.raises(ValueError, match="k >= 0"):
        IntPolynomial.t_power(k)


def test_bool_and_iter():
    assert not IntPolynomial.zero()
    assert IntPolynomial.one()
    assert list(IntPolynomial.from_coeffs([1, 2])) == [1, 2]


def test_str_ascending():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.one()) == "1"
    assert str(IntPolynomial.t_power(1)) == "t"
    assert str(IntPolynomial.t_power(3)) == "t^3"
    assert str(IntPolynomial.from_coeffs([1, 2, 2, 1])) == "1+2t+2t^2+t^3"
    assert str(IntPolynomial.from_coeffs([0, 1, 0, 5])) == "t+5t^3"
    assert str(IntPolynomial((1, -1))) == "1-t"
    assert str(IntPolynomial.from_coeffs([-1, 0, -1, -3])) == "-1-t^2-3t^3"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_slotted_polynomial_pickles(protocol):
    p = IntPolynomial.from_coeffs([1, 2, 0, 3])
    assert not hasattr(p, "__dict__")
    q = pickle.loads(pickle.dumps(p, protocol))
    assert q == p and q.coeffs == (1, 2, 0, 3) and str(q) == "1+2t+3t^3"
