"""Letters and generator indices must be ints (not bools) in range."""

from __future__ import annotations

import pytest

from coxbruhat import coxeter_system
from coxbruhat.core import demazure_word, element_from_permutation
from coxbruhat.oracle import braid_equal

MESSAGE = r"generator index .* out of range for rank 3"


@pytest.fixture
def b3():
    return coxeter_system("B3")


@pytest.mark.parametrize("letter", [1.0, "1", True])
def test_normalize_rejects_non_int_letters(b3, letter):
    with pytest.raises(ValueError, match=MESSAGE):
        b3.normalize([letter])


def test_demazure_word_rejects_float_letters(b3):
    with pytest.raises(ValueError, match=MESSAGE):
        demazure_word(b3, [1.0])


def test_check_genset_rejects_bools(b3):
    with pytest.raises(ValueError, match=MESSAGE):
        b3.check_genset([True])


@pytest.mark.parametrize("i", [-1, 3])
def test_generator_rejects_indices_out_of_range(b3, i):
    # generator(-1) once gave s3, and generator(3) raised IndexError
    with pytest.raises(ValueError, match=MESSAGE):
        b3.generator(i)


@pytest.mark.parametrize("max_length", [-1, -5, True, False, 2.5, 2.0, "2"])
def test_elements_rejects_a_negative_max_length(b3, max_length):
    # no element has negative length; -1 and -5 once gave [e], True gave the
    # elements of length <= 1 and 2.5 a bare TypeError from range
    with pytest.raises(ValueError, match="max_length >= 0"):
        b3.elements(max_length)
    assert b3.elements(0) == [b3.identity]


def test_int_letters_still_accepted(b3):
    assert str(b3.normalize([1, 0])) == "s2 s1"
    assert b3.check_genset([0, 2]) == {0, 2}
    assert demazure_word(b3, [1, 1]) is b3.generator(1)


@pytest.mark.parametrize("letter", [True, 1.0, "1"])
def test_braid_equal_rejects_non_int_letters(b3, letter):
    with pytest.raises(ValueError, match=MESSAGE):
        braid_equal(b3, [letter], [1])


@pytest.mark.parametrize("entry", [1.5, True])
def test_element_from_permutation_rejects_non_int_entries(entry):
    a3 = coxeter_system("A3")
    with pytest.raises(ValueError, match="not an integer"):
        element_from_permutation(a3, [entry, 2, 3, 4])
