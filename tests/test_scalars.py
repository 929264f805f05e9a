import inspect
import random
import threading
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from nilorbit.errors import MixedFieldError, UnsupportedInputError
from nilorbit.exactmath import QuadExt, is_integral, parse_scalar, quad_parts, scalars
from nilorbit.exactmath.scalars import SQUARE_FREE_TRIAL_BOUND
from nilorbit.torus import relative_order


def test_construction_rejects_non_square_free():
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 4)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 1)
    QuadExt(F(1), F(1), 10)  # 10 = 2*5 is fine


def test_square_factor_rejected_without_factoring():
    """4p, with p = 10**39 + 3 the first prime above 10**39, is rejected at
    its square factor 4; factoring p by trial division would not finish."""
    d = 4 * (10**39 + 3)
    errors = []

    def build():
        try:
            QuadExt(F(1), F(1), d)
        except ValueError as exc:
            errors.append(exc)

    worker = threading.Thread(target=build, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "is_square_free is factoring d"
    assert len(errors) == 1 and "square-free" in str(errors[0])


def test_square_free_undecided_past_trial_bound():
    """p = 10**39 + 3 is prime, so no square factor turns up below the trial
    bound, and deciding it by trial division would not finish: it is refused
    with a typed error that names the bound.  Trial division up to 10**6 takes
    about 0.2 s; the wall-clock bound leaves room for a loaded machine."""
    errors = []

    def build():
        try:
            QuadExt.sqrt(10**39 + 3)
        except UnsupportedInputError as exc:
            errors.append(exc)

    start = time.perf_counter()
    worker = threading.Thread(target=build, daemon=True)
    worker.start()
    worker.join(timeout=10)
    elapsed = time.perf_counter() - start
    assert not worker.is_alive(), "is_square_free trial-divides past its bound"
    assert len(errors) == 1 and str(SQUARE_FREE_TRIAL_BOUND) in str(errors[0])
    assert elapsed < 5, elapsed
    # a product of two primes near the bound is still decided
    assert QuadExt.sqrt(999983 * 1000003).d == 999983 * 1000003


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
