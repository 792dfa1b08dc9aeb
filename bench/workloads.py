"""Workload definitions and seeded schedules.

This module imports nothing from the package, so run.py can build
schedules without paying the package's import cost.

Each workload draws from a fixed domain of (lambda, n) pairs.  A seed picks
an ordering of the whole domain; a run works through that ordering from the
start, so within one worker process no pair repeats and no library cache can
hit across items.  The ordering ranks the domain by a cost estimate and
sorts the ranks j by frac(u + j * phi), with u drawn from the seed and phi
the golden ratio.  By the three-distance property of that sequence, every
prefix of the schedule is spread evenly over the cost ranks, so a run that
stops after any number of items sees nearly the same cost distribution
whatever the seed.  That keeps the median and tail latencies steady from
run to run while the inputs still change with the seed.  The estimates only
order the domain; they need not be accurate, and they stay fixed when the
package gets faster, so two versions run the same items for a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

Pair = Tuple[int, int]

_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lambdas: range
    ns: range
    #: Relative cost estimate of a pair, used only to order the domain.
    cost: Callable[[int, int], float]
    #: Pair outside the domain used for the untimed warm-up item.
    warmup: Pair
    #: Items in a traced run: a fixed schedule prefix, so that span counts
    #: repeat exactly for a seed whatever the speed of the program.
    trace_items: int
    #: Percentile reported as latency_tail_ms: the highest with at least
    #: ten items beyond it at the item counts this workload reaches.
    tail_pct: int

    def domain(self) -> List[Pair]:
        return [(lam, n) for lam in self.lambdas for n in self.ns]


def _faa_di_bruno_terms(lam: int, n: int) -> int:
    """Partition terms the faa-di-bruno route sums for (lam, n), weighted by
    m, plus a quadratic floor for the other routes."""
    total = 0
    for m in range(1, n + lam + 1):
        terms = m
        for j in range(3, lam):
            terms *= m // j + 1
        total += terms
    return total + 20 * (n + lam) ** 2


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="exact-large",
            why="single normalized entropy through the CLI as JSON at "
                "lambda 1..16, n 20..80: exact assembly dominates, no "
                "quadrature",
            lambdas=range(1, 17), ns=range(20, 81),
            cost=lambda lam, n: lam * n * n, warmup=(4, 12),
            trace_items=48, tail_pct=90),
        Workload(
            name="oracle-verify",
            why="verify at its defaults for one pair, lambda 1..5, n 0..9: "
                "zero finding and tanh-sinh panels dominate, exact work is "
                "about 1%",
            lambdas=range(1, 6), ns=range(0, 10),
            cost=lambda lam, n: n, warmup=(6, 6),
            trace_items=50, tail_pct=80),
        Workload(
            name="route-crosscheck",
            why="verify --skip-quadrature plus the integrals CSV for one "
                "pair, lambda 1..8, n 0..24: many small rationals, "
                "faa-di-bruno dominates",
            lambdas=range(1, 9), ns=range(0, 25),
            cost=_faa_di_bruno_terms, warmup=(9, 3),
            trace_items=200, tail_pct=95),
    )
}


def schedule(workload: Workload, seed: int) -> List[Pair]:
    """The seed's ordering of the workload's whole domain (see module doc)."""
    ranked = sorted(workload.domain(), key=lambda p: (workload.cost(*p), p))
    u = random.Random(f"{workload.name}:{seed}").random()
    order = sorted(range(len(ranked)), key=lambda j: ((u + j * _PHI) % 1.0, j))
    return [ranked[j] for j in order]
