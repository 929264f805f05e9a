import inspect
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from nilorbit.errors import MixedFieldError
from nilorbit.exactmath import QuadExt, is_integral, parse_scalar, quad_parts, scalars
from nilorbit.torus import relative_order


def test_construction_rejects_non_square_free():
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 4)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 1)
    QuadExt(F(1), F(1), 10)  # 10 = 2*5 is fine


def test_basic_identities():
    r2 = QuadExt.sqrt(2)
    assert r2 * r2 == 2
    assert (1 + r2) * (1 - r2) == -1
    assert (r2 / r2) == 1
    assert (1 / r2) * r2 == 1
    x = QuadExt(F(3, 4), F(-2, 7), 2)
    assert x - x == 0
    assert x + (-x) == 0
    assert x / x == 1


def test_field_axioms_randomized():
    rng = random.Random(7)

    def rand():
        return QuadExt(
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            3,
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if b != 0:
            assert (a / b) * b == a


def test_is_rational_consistent_with_components():
    rng = random.Random(11)
    for _ in range(200):
        a = QuadExt(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)), 2)
        b = QuadExt(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)), 2)
        prod = a * b
        # by components: (a1 + b1 s)(a2 + b2 s) has sqrt coefficient a1 b2 + b1 a2
        expected_irr = a.a * b.b + a.b * b.a
        assert prod.is_rational == (expected_irr == 0)
        assert quad_parts(prod)[1] == expected_irr


def test_mixed_fields_rejected():
    r2 = QuadExt.sqrt(2)
    r3 = QuadExt.sqrt(3)
    with pytest.raises(MixedFieldError):
        r2 + r3
    # rational elements are field-agnostic
    assert QuadExt.rational(F(1, 2), 2) + r3 == QuadExt(F(1, 2), F(1), 3)


def test_rational_collapse_and_equality():
    assert QuadExt(F(1, 2), F(0), 2) == F(1, 2)
    assert hash(QuadExt(F(1, 2), F(0), 2)) == hash(F(1, 2))
    assert QuadExt.sqrt(2) != F(1)


def test_integrality_and_parsing():
    assert is_integral(F(4, 2))
    assert not is_integral(F(1, 2))
    assert is_integral(QuadExt.rational(3, 5))
    assert not is_integral(QuadExt.sqrt(5))
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    v = parse_scalar({"a": "1/2", "b": "-1/3", "d": 2})
    assert v == QuadExt(F(1, 2), F(-1, 3), 2)


def test_powers():
    r2 = QuadExt.sqrt(2)
    assert (1 + r2) ** 2 == 3 + 2 * r2
    assert (1 + r2) ** 0 == 1
    assert (1 + r2) ** -1 == -1 + r2  # (1+s)(-1+s) = 1


def test_denominator_lcm_leaves_no_block_behind():
    # lcm(*generator) left one tuple per call in CPython's tuple free list,
    # up to 2000 of each size, all still allocated at the lcm line
    lines, first = inspect.getsourcelines(scalars.denominator_lcm)
    line = first + next(i for i, text in enumerate(lines) if "return lcm(" in text)
    q = (F(1, 3), F(2, 5), F(3, 7))
    for _ in range(10):
        relative_order(q)
    tracemalloc.start()
    try:
        for _ in range(3000):
            assert relative_order(q) == 105
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert not snapshot.filter_traces([tracemalloc.Filter(True, scalars.__file__, line)]).traces
