"""Orders of roots of unity that can occur as eigenvalues in dimension n."""

from __future__ import annotations

from functools import lru_cache

from .scalars import prime_support


def euler_totient(d: int) -> int:
    if d < 1:
        raise ValueError("totient needs a positive integer")
    out = d
    for p in prime_support(d):
        out -= out // p
    return out


def root_of_unity_orders(n: int) -> tuple[int, ...]:
    """All d >= 1 with euler_totient(d) <= n, in increasing order.

    A primitive d-th root of unity has degree euler_totient(d) over Q, so an
    n x n rational matrix can only have root-of-unity eigenvalues of these
    orders.  totient(d) >= sqrt(d/2) bounds the enumeration by 2*n^2.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    return tuple(d for d in range(1, 2 * n * n + 1) if euler_totient(d) <= n)


@lru_cache(maxsize=64)
def maximal_root_of_unity_orders(n: int) -> tuple[int, ...]:
    """The orders in root_of_unity_orders(n) that divide no other one: (2,)
    for n = 1, (4, 6) for n = 2 and 3, (8, 10, 12) for n = 4 and 5.

    Every order divides one of these, so a root of unity that can be an
    eigenvalue in dimension n is a d-th root of unity for one of them.
    """
    orders = root_of_unity_orders(n)
    return tuple(d for d in orders if not any(e != d and e % d == 0 for e in orders))
