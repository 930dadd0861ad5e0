"""The seeded operation list every benchmark run executes.

Pure Python with no ``repro`` import: the list is a function of the
workload, ``--seed`` and ``--seconds`` only, so the program under test
receives nothing but generated inputs.

The work mix is fixed and the seed only changes order, pairing and
tree contents. Each program's spec pool has evenly spread sizes; a serve
block gives every program one repeat request and one mixed request per
forest size, pairs the repeat requests so that every spec serves the
same number of trees, and deals the mixed requests' trees from a
shuffled deck that also hands every spec the same count. Ten seeds then
do the same amount of work, which is what lets their figures agree
within the metric bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PROGRAMS = ("render", "astlang", "kdtree", "fmm")

# inclusive size knob per program: render pages, astlang functions,
# kdtree depth, fmm particles
SIZE_RANGE = {
    "render": (1, 8),
    "astlang": (4, 16),
    "kdtree": (4, 7),
    "fmm": (64, 256),
}

POOL_SIZE = 8  # distinct tree specs per program
MAX_FOREST = 16  # trees per serve request: 1..MAX_FOREST
RESTART_FOREST = 4  # trees per request a restarted process serves
EDIT_VALUES = tuple(range(2, 10))  # the literal a seeded edit writes

# p95 needs ten samples beyond it (see hostclock.percentile)
MIN_REQUESTS = 200
BLOCK_REQUESTS = 2 * MAX_FOREST * len(PROGRAMS)
SERVE_SECONDS_PER_BLOCK = 5
# Arrivals per program in each round. Fresh-process compiles scatter by
# 0.10-0.14 in log units within a run after scaling, so each program's
# median needs several: fmm's ~25 ms compile scatters most and arrives
# most often, while astlang's ~1.5 s compile scatters least (0.06) and
# costs most, so it arrives twice.
ARRIVALS_PER_ROUND = {"render": 4, "astlang": 2, "kdtree": 4, "fmm": 6}
COLD_SECONDS_PER_ROUND = 8  # a round of arrivals with its restarts
SERVE_ROUNDS = 2

WORKLOADS = ("serve-object", "serve-pooled", "cold-start")


@dataclass(frozen=True, order=True)
class Spec:
    """One tree: its program, the size knob of its tree maker, a seed."""

    program: str
    size: int
    seed: int


@dataclass(frozen=True)
class Request:
    """One ``Session.run`` forest, one tree spec per tree."""

    program: str
    specs: tuple


@dataclass(frozen=True)
class Arrival:
    """A program arriving at a fresh process: its first forest, the
    literal its seeded edit writes, and the requests the restarted
    process serves afterwards (cold-start only)."""

    program: str
    forest: tuple
    edit: int
    requests: tuple = ()


@dataclass(frozen=True)
class OpList:
    pools: dict
    requests: tuple  # served by the main process (serve-*)
    arrivals: tuple

    def all_requests(self) -> list:
        out = list(self.requests)
        for arrival in self.arrivals:
            out.extend(arrival.requests)
        return out

    def distinct_specs(self) -> list:
        seen = set()
        for request in self.all_requests():
            seen.update(request.specs)
        for arrival in self.arrivals:
            seen.update(arrival.forest)
        return sorted(seen)

    def repeat_share(self) -> float:
        """Share of served trees whose spec occurs more than once in
        their own request."""
        trees = repeated = 0
        for request in self.all_requests():
            for spec in request.specs:
                trees += 1
                repeated += request.specs.count(spec) > 1
        return repeated / trees if trees else 0.0


def _deck(rng: random.Random, items):
    """Endless draws: a shuffled copy of ``items``, then another."""
    items = list(items)
    while True:
        batch = items[:]
        rng.shuffle(batch)
        yield from batch


def spec_pool(rng: random.Random, program: str) -> list:
    """``POOL_SIZE`` specs with sizes spread evenly over the program's
    range and seeded contents."""
    lo, hi = SIZE_RANGE[program]
    return [
        Spec(
            program,
            lo + round(i * (hi - lo) / (POOL_SIZE - 1)),
            rng.randrange(1, 10**6),
        )
        for i in range(POOL_SIZE)
    ]


def _serve_block(rng, program: str, pool: list) -> list:
    """One block of ``2 * MAX_FOREST`` requests for one program.

    Repeat requests use one spec for every tree (the ``/submit
    {"trees": N}`` shape); forest sizes ``n`` and ``MAX_FOREST + 1 - n``
    share a spec, so each of the ``MAX_FOREST / 2`` pairs serves the same
    number of trees. Mixed requests: one per forest size, trees dealt
    from a deck of the pool."""
    out = []
    specs = rng.sample(pool, len(pool))
    for index, spec in enumerate(specs):
        for count in (index + 1, MAX_FOREST - index):
            out.append(Request(program, (spec,) * count))
    deck = _deck(rng, pool)
    for count in range(1, MAX_FOREST + 1):
        out.append(
            Request(program, tuple(next(deck) for _ in range(count)))
        )
    rng.shuffle(out)
    return out


def serve_blocks(seconds: int) -> int:
    """Blocks in a serve list: about ``seconds`` of work on the
    reference host, never below the p95 floor."""
    wanted = max(MIN_REQUESTS, seconds * BLOCK_REQUESTS
                 // SERVE_SECONDS_PER_BLOCK)
    return -(-wanted // BLOCK_REQUESTS)


def _serve_requests(rng, pools, blocks: int) -> list:
    """Blocks interleaved across programs, one request of each program
    per round in seeded order."""
    queues = {
        p: [r for _ in range(blocks) for r in _serve_block(rng, p, pools[p])]
        for p in PROGRAMS
    }
    out = []
    for _ in range(len(queues[PROGRAMS[0]])):
        for program in rng.sample(PROGRAMS, len(PROGRAMS)):
            out.append(queues[program].pop())
    return out


def _arrivals(rng, pools, rounds: int, restart_requests: int) -> list:
    """``rounds`` rounds of ``ARRIVALS_PER_ROUND`` arrivals in seeded
    order. An arrival's first forest pairs the i-th smallest spec with
    the i-th largest, so every first forest holds the same total size."""
    pair_decks = {
        p: _deck(rng, [(pools[p][i], pools[p][-1 - i])
                       for i in range(POOL_SIZE // 2)])
        for p in PROGRAMS
    }
    spec_decks = {p: _deck(rng, pools[p]) for p in PROGRAMS}
    size_decks = {p: _deck(rng, range(1, RESTART_FOREST + 1))
                  for p in PROGRAMS}
    round_programs = [
        p for p in PROGRAMS for _ in range(ARRIVALS_PER_ROUND[p])]
    out = []
    for _ in range(rounds):
        for program in rng.sample(round_programs, len(round_programs)):
            specs, sizes = spec_decks[program], size_decks[program]
            forest = next(pair_decks[program])
            requests = []
            for _ in range(restart_requests):
                trees = tuple(next(specs) for _ in range(next(sizes)))
                requests.append(Request(program, trees))
            out.append(
                Arrival(program, forest, rng.choice(EDIT_VALUES),
                        tuple(requests))
            )
    return out


def cold_rounds(seconds: int) -> int:
    return max(2, math.ceil(seconds / COLD_SECONDS_PER_ROUND))


def build(workload: str, seed: int, seconds: int) -> OpList:
    """The operation list for one run (see the module doc)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "cold-start":
        rng = random.Random(f"cold-start:{seed}")
        pools = {p: spec_pool(rng, p) for p in PROGRAMS}
        rounds = cold_rounds(seconds)
        arrivals = rounds * sum(ARRIVALS_PER_ROUND.values())
        # as many requests as a serve list, spread over the restarts
        served = serve_blocks(seconds) * BLOCK_REQUESTS
        per_arrival = -(-served // arrivals)
        return OpList(
            pools, (), tuple(_arrivals(rng, pools, rounds, per_arrival)))
    # both serve workloads draw the identical list for one seed
    rng = random.Random(f"serve:{seed}")
    pools = {p: spec_pool(rng, p) for p in PROGRAMS}
    requests = _serve_requests(rng, pools, serve_blocks(seconds))
    arrivals = _arrivals(rng, pools, SERVE_ROUNDS, 0)
    return OpList(pools, tuple(requests), tuple(arrivals))
