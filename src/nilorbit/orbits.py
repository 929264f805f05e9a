"""Cycle detection on finite orbit spaces and the classification records.

Every dynamical state space in this library is finite once a starting point
is fixed (denominators cannot grow), so a hash map from state to step index
gives exact preperiods and periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

State = TypeVar("State", bound=Hashable)


def iterate_orbit(step: Callable[[State], State], start: State):
    """Walk start, step(start), ... to the first repeat.

    Returns (preperiod, period, path) where path lists the preperiod tail
    followed by one full cycle; all listed states are distinct.
    """
    index: dict = {}
    path = []
    x = start
    while x not in index:
        index[x] = len(path)
        path.append(x)
        x = step(x)
    mu = index[x]
    return mu, len(path) - mu, path


def classify_orbit(system, start):
    """Classify the orbit of the state `start` under a finite system.

    `system.step(state)` is the map on states, `system.order(state)` the
    relative order of the point a state stands for and `system.decode(state)`
    that point.  Returns (Classification, OrbitResult).
    """
    mu, lam, path = iterate_orbit(system.step, start)
    trace = tuple(system.order(s) for s in path)
    points = tuple(system.decode(s) for s in path)
    return Classification(mu, lam, trace), OrbitResult(mu, lam, points[:mu], points[mu:])


def sweep_orbits(step: Callable[[State], State], states: Iterable[State]):
    """(preperiod, period) for every given state, sharing work across orbits.

    Classic functional-graph walk with memoization: each state is visited a
    bounded number of times, so classifying a whole denominator grid costs
    O(#states) steps instead of one full orbit per point.
    """
    memo: dict = {}
    for start in states:
        if start in memo:
            continue
        path = []
        index = {}
        x = start
        while x not in memo and x not in index:
            index[x] = len(path)
            path.append(x)
            x = step(x)
        if x in index:
            mu = index[x]
            lam = len(path) - mu
            for i, s in enumerate(path):
                memo[s] = (max(0, mu - i), lam) if i < mu else (0, lam)
        else:
            pre, lam = memo[x]
            dist = len(path) + pre
            for i, s in enumerate(path):
                memo[s] = (dist - i, lam)
    return memo


@dataclass(frozen=True)
class OrbitResult(Generic[State]):
    """Exact orbit decomposition: `tail` (length = preperiod) then `cycle`."""

    preperiod: int
    period: int
    tail: tuple
    cycle: tuple

    def __post_init__(self):
        if len(self.tail) != self.preperiod or len(self.cycle) != self.period:
            raise ValueError("orbit lengths inconsistent with preperiod/period")

    @property
    def points(self) -> tuple:
        return self.tail + self.cycle


@dataclass(frozen=True)
class Classification:
    """Verdict for one starting point: periodic iff the preperiod is zero.

    `relative_order_trace` lists the relative order of every orbit point,
    tail first, then the cycle.
    """

    preperiod: int
    period: int
    relative_order_trace: tuple[int, ...] = ()

    @property
    def periodic(self) -> bool:
        return self.preperiod == 0

    @property
    def verdict(self) -> str:
        if self.periodic:
            return f"Periodic(period={self.period})"
        return f"EventuallyPeriodic(preperiod={self.preperiod}, period={self.period})"

    def __str__(self):
        return self.verdict
