"""Cycle detection on finite orbit spaces and the classification records.

Every dynamical state space in this library is finite once a starting point
is fixed (denominators cannot grow), so a walk to the first repeated state
gives exact preperiods and periods.  iterate_orbit and sweep_orbits find
the repeat with a map from state to step index.  A system may bring its own
walk, and a torus grid its own compiled sweep (TorusGrid.sweep).  Both
sweeps return (memo, succ), each state's (preperiod, period) and its
successor, so a scan reads a successor without stepping again;
sweep_orbits serves nil grids and is the torus sweep's oracle in the tests.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

State = TypeVar("State", bound=Hashable)


def iterate_orbit(step: Callable[[State], State], start: State):
    """Walk start, step(start), ... to the first repeat.

    Returns (preperiod, period, path) where path lists the preperiod tail
    followed by one full cycle; all listed states are distinct.
    """
    # insertion-ordered: the keys are the path, the values its indices
    index: dict = {}
    x = start
    while x not in index:
        index[x] = len(index)
        x = step(x)
    mu = index[x]
    return mu, len(index) - mu, list(index)


def classify_orbit(system, start):
    """Classify the orbit of the state `start` under a finite system.

    `system.walk(start)` returns (preperiod, period, path): the path lists
    the preperiod tail, then one full cycle, in whatever form the system's
    `transcript` reads (a list of states for iterate_orbit, one column of
    coordinates per dimension for a torus grid).  `system.transcript(path)`
    returns the relative orders of the points the path stands for and
    those points, as two tuples.  Returns (Classification, OrbitResult).

    Cyclic GC is paused while the transcript is built: it holds only
    acyclic objects (ints, Fractions, tuples and points), so a collection
    in the middle of it could free nothing and would only rescan it.
    """
    mu, lam, path = system.walk(start)
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace, points = system.transcript(path)
    finally:
        if enabled:
            gc.enable()
    return Classification(mu, lam, trace), OrbitResult(mu, lam, points[:mu], points[mu:])


def orbit_verdict(walk, orders, start) -> Classification:
    """Classify the orbit of the state `start` without building its points.

    `walk(start)` returns (preperiod, period, path) as for classify_orbit,
    and `orders(path)` the relative orders of the points the path stands
    for, as a tuple; that tuple is the whole transcript kept.
    """
    mu, lam, path = walk(start)
    return Classification(mu, lam, orders(path))


def sweep_orbits(step: Callable[[State], State], states: Iterable[State]):
    """(memo, succ) for the given states, sharing work across orbits.

    memo[x] is (preperiod, period) and succ[x] = step(x), for every state x
    reached from the starts.  Classic functional-graph walk with
    memoization: each state is stepped once, so classifying a whole
    denominator grid costs O(#states) steps instead of one full orbit per
    point.
    """
    memo: dict = {}
    succ: dict = {}
    for start in states:
        if start in memo:
            continue
        index: dict = {}
        x = start
        while x not in memo and x not in index:
            index[x] = len(index)
            # targets bind left to right: succ[old x], then x
            succ[x] = x = step(x)
        if x in index:
            mu = index[x]
            lam = len(index) - mu
            path = list(index)
            for i in range(mu):
                memo[path[i]] = (mu - i, lam)
            memo.update(dict.fromkeys(path[mu:], (0, lam)))
        else:
            pre, lam = memo[x]
            dist = len(index) + pre
            for s, i in index.items():
                memo[s] = (dist - i, lam)
    return memo, succ


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
