"""The Magus benchmark workloads: inputs, set-up, tickets and checks.

A *ticket* is one upgrade to mitigate: one ``Magus.plan_mitigation``
call (followed by ``gradual_schedule`` on the packed workloads).  Each
workload builds its inputs from the workload seed before timing starts
and hands the program only the ticket list.

``sweep``
    The Table-1 / Fig-13 sweep: markets A-C x {rural, suburban, urban} x
    scenarios (a)(b)(c) x {power, tilt, joint, naive} = 108 tickets on
    the default laptop-scale areas (dict path-loss backend, unclipped),
    one Magus per area.  The seed orders the markets and area types.
``packed`` / ``packed-2w``
    Two urban markets, each packed to a ``magus.plossdb`` file clipped
    at -115 dB and loaded through ``build_area(plossdb=...)``; every
    tuning-region site gives one full-site ticket and one ticket per
    sector (32 in all), drawn in seeded order without replacement (a
    repeated ticket would run on warm caches), each planned by a fresh
    Magus.
    ``packed-2w`` plans the same tickets with a 2-worker pool and must
    match ``packed`` bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from conftest import area_seed
from hostspeed import HostSpeed

from repro.core.evaluation import Evaluator
from repro.core.magus import Magus
from repro.core.planning import PlanningSettings
from repro.obs import MetricsRegistry, use_registry
from repro.synthetic.market import (MARKET_NAMES, AreaDimensions,
                                    build_area, pack_area_database)
from repro.synthetic.placement import AreaType
from repro.upgrades.scenario import UpgradeScenario, select_targets

SWEEP_TUNINGS = ("power", "tilt", "joint", "naive")

#: One offline planning pass: the default eight took 102 s on the
#: packed market and dominate every area build.
PLANNING = PlanningSettings(max_passes=1)

#: The packed markets: urban seeds 0 and 1, each a 1 km tuning square
#: inside a 3.2 km analysis square at 50 m cells (64x64 grid, 117
#: sectors, 25 tilts) whose 4 tuning-region sites give 16 tickets.  Two
#: markets double the timed work at the cost of a second set-up, which
#: ``setup_s`` needs anyway; host speed drifts by tens of percent within
#: seconds, and a longer timed phase averages more of it.
PACKED_MARKET_SEEDS = (0, 1)
PACKED_DIMS = AreaDimensions(tuning_side_m=1_000.0, margin_m=1_100.0,
                             cell_size_m=50.0)
#: At the -150 dB default, footprints cover nearly the whole grid and
#: ROI scoring falls back on every candidate.
PACKED_CLIP_FLOOR_DB = -115.0


@dataclass(frozen=True)
class Ticket:
    label: str
    targets: Tuple[int, ...]
    tuning: str
    gradual: bool


@dataclass
class Outcome:
    ticket: Ticket
    start: float                  # perf_counter() around the plan
    end: float
    plan: object = None           # MitigationResult
    schedule: object = None       # GradualResult
    error: Optional[str] = None


Interval = Tuple[float, float]        # perf_counter() start, end


@dataclass
class RunResult:
    """What one run measured (all passes, all areas).

    Times are kept as intervals, so that they read in wall seconds or,
    through :attr:`speed`, in reference seconds.
    """

    #: One list per ``setup_s`` value: the intervals it adds up.
    setups: List[List[Interval]] = field(default_factory=list)
    #: The measured (in trace mode: recorded) tickets' wall time, Magus
    #: construction and pool shutdown included.
    timed: List[Interval] = field(default_factory=list)
    untraced_timed_wall_s: float = 0.0  # trace mode: their plain twins
    outcomes: List[Outcome] = field(default_factory=list)
    measured: List[Outcome] = field(default_factory=list)
    grid_cells: int = 0
    workers: int = 1
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def failed(self) -> int:
        return sum(o.error is not None for o in self.outcomes)

    def seconds(self, interval: Interval, reference: bool) -> float:
        start, end = interval
        return (self.speed.reference_seconds(start, end) if reference
                else end - start)

    def setup_s(self, reference: bool) -> List[float]:
        return [sum(self.seconds(iv, reference) for iv in entry)
                for entry in self.setups]

    def timed_wall_s(self, reference: bool) -> float:
        return sum(self.seconds(iv, reference) for iv in self.timed)


def run_ticket(magus: Magus, ticket: Ticket) -> Outcome:
    t0 = time.perf_counter()
    try:
        plan = magus.plan_mitigation(ticket.targets, tuning=ticket.tuning)
        schedule = magus.gradual_schedule(plan) if ticket.gradual else None
    except Exception:       # a failing ticket is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Outcome(ticket, t0, time.perf_counter(),
                       error=traceback.format_exc(limit=1).strip())
    return Outcome(ticket, t0, time.perf_counter(), plan, schedule)


def run_fresh_ticket(area, magus_kwargs: dict, ticket: Ticket) -> Outcome:
    """One ticket on its own :class:`Magus`, as one ``repro mitigate``
    call plans it: a cold evaluator cache and, with workers, a pool
    forked for this ticket.  The pool shutdown counts in the pass's
    wall time but not in the ticket's latency: the plan is ready
    before it."""
    with Magus.from_area(area, **magus_kwargs) as magus:
        return run_ticket(magus, ticket)


def check_outcome(area, outcome: Outcome) -> None:
    """Fail ``outcome`` unless a fresh full evaluator reproduces it.

    ``roi`` stays unset: passing ``roi=False`` would flip the shared
    engine's flag for everything that follows.
    """
    if outcome.error is not None:
        return
    plan = outcome.plan
    fresh = Evaluator(area.engine, area.ue_density, plan.utility_name,
                      strategy="full")
    f_check = fresh.utility_of(plan.c_after)
    if f_check != plan.f_after:
        outcome.error = (f"{outcome.ticket.label}: re-scored f(C_after) "
                         f"{f_check!r} != reported {plan.f_after!r}")
    elif (outcome.schedule is not None
          and outcome.schedule.final_config != plan.c_after):
        outcome.error = (f"{outcome.ticket.label}: gradual schedule does "
                         f"not end at C_after")


def check_parity(reference: List[Outcome], outcomes: List[Outcome]) -> None:
    """Fail every outcome whose plan differs from its ticket's plan in
    ``reference``."""
    expected = {o.ticket: o for o in reference}
    for out in outcomes:
        ref = expected[out.ticket]
        if out.error is not None or ref.error is not None:
            continue
        if (out.plan.c_after != ref.plan.c_after
                or out.plan.f_after != ref.plan.f_after):
            out.error = (f"{out.ticket.label}: pooled plan differs from "
                         f"the serial plan")


def _recording(tracer, registry, phase: str):
    """Record layer spans and registry counters in the block (trace
    mode); a no-op otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    stack.enter_context(use_registry(registry))
    stack.enter_context(tracer.recording(phase))
    return stack


def _setup_step(result: RunResult, tracer, registry, step: Callable):
    """Run one set-up step after a host-speed sample; its interval joins
    the last ``setup_s`` entry."""
    result.speed.sample()
    t0 = time.perf_counter()
    with _recording(tracer, registry, "setup"):
        value = step()
    result.setups[-1].append((t0, time.perf_counter()))
    return value


def _planner(area, magus_kwargs: Optional[dict]
             ) -> Callable[[Ticket], Outcome]:
    """Plans one ticket.  ``magus_kwargs=None`` shares one serial Magus
    across the tickets (the Table-1 sweep); otherwise each ticket gets a
    fresh Magus built with them, so its latency does not depend on the
    seeded order."""
    if magus_kwargs is None:
        shared = Magus.from_area(area)
        return functools.partial(run_ticket, shared)
    return functools.partial(run_fresh_ticket, area, magus_kwargs)


def _measure(area, tickets: List[Ticket], magus_kwargs: Optional[dict],
             result: RunResult, tracer, registry) -> None:
    """The timed phase: plan every ticket once, then check each plan.

    Trace mode plans every ticket twice on two planners, one recorded
    and one plain, alternating which goes first.  Host speed drifts by
    tens of percent over minutes, so only back-to-back pairs give a
    fair tracing overhead.
    """
    plain = _planner(area, magus_kwargs)
    first = len(result.outcomes)
    if tracer is None:
        for ticket in tickets:
            result.speed.sample()
            t0 = time.perf_counter()
            outcome = plain(ticket)
            result.timed.append((t0, time.perf_counter()))
            result.measured.append(outcome)
            result.outcomes.append(outcome)
        result.speed.sample()
    else:
        traced = _planner(area, magus_kwargs)
        for i, ticket in enumerate(tickets):
            tracer.request = i
            for recorded in ((False, True) if i % 2 == 0 else (True, False)):
                if recorded:
                    with _recording(tracer, registry, "timed"):
                        t0 = time.perf_counter()
                        outcome = traced(ticket)
                        result.timed.append((t0, time.perf_counter()))
                    result.measured.append(outcome)
                else:
                    t0 = time.perf_counter()
                    outcome = plain(ticket)
                    result.untraced_timed_wall_s += time.perf_counter() - t0
                result.outcomes.append(outcome)
    for outcome in result.outcomes[first:]:
        check_outcome(area, outcome)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep_tickets(area) -> List[Ticket]:
    """The area's 12 tickets in Table-1 order.  They share one Magus,
    so the order decides which ticket pays for the shared baseline
    evaluations; a fixed order keeps the latency distribution
    independent of the seed."""
    return [Ticket(f"{area.name}/{scenario.value}/{tuning}",
                   tuple(select_targets(area, scenario)), tuning, False)
            for scenario in UpgradeScenario for tuning in SWEEP_TUNINGS]


def run_sweep(seed: int, run_dir: str, tracer=None,
              registry: Optional[MetricsRegistry] = None) -> RunResult:
    """Build each area, then plan its 12 tickets; ``setup_s`` holds one
    entry per market (its three area builds).  The seed orders the
    markets and, within each, the area types.  Writes no files, so
    ``run_dir`` is unused."""
    rng = random.Random(seed)
    result = RunResult()
    markets = list(enumerate(MARKET_NAMES))
    rng.shuffle(markets)
    for market_index, market in markets:
        result.setups.append([])
        area_types = list(AreaType)
        rng.shuffle(area_types)
        for area_type in area_types:
            area = _setup_step(result, tracer, registry, functools.partial(
                build_area, area_type,
                seed=area_seed(market_index, area_type), planning=PLANNING,
                name=f"{market}/{area_type.value}"))
            _measure(area, sweep_tickets(area), None, result, tracer,
                     registry)
            del area
            gc.collect()
    return result


# ----------------------------------------------------------------------
# packed / packed-2w
# ----------------------------------------------------------------------
def packed_tickets(area, rng: random.Random) -> List[Ticket]:
    """Every tuning-region site's full-site and single-sector tickets,
    drawn without replacement: three single-sector tickets, then a
    full-site one, repeated."""
    network = area.network
    sites = sorted(site.site_id for site in network.sites.values()
                   if area.tuning_region.contains(site.x, site.y))
    full = [Ticket(f"{area.name}/site-{s}", tuple(network.sites[s].sector_ids),
                   "joint", True) for s in sites]
    single = [Ticket(f"{area.name}/sector-{b}", (b,), "joint", True)
              for s in sites for b in network.sites[s].sector_ids]
    rng.shuffle(full)
    rng.shuffle(single)
    tickets: List[Ticket] = []
    while full or single:
        tickets += single[:3] + full[:1]
        del single[:3], full[:1]
    return tickets


def run_packed(seed: int, run_dir: str, workers: int = 1, tracer=None,
               registry: Optional[MetricsRegistry] = None) -> RunResult:
    """For each market: pack it, then load and build it (its set-up,
    one ``setup_s`` entry), then plan its tickets once.  With workers,
    the pooled plans are checked against serial plans made afterwards."""
    rng = random.Random(seed)
    result = RunResult(workers=workers)
    kwargs = ({"evaluation_strategy": "parallel", "workers": workers}
              if workers > 1 else {})
    for market_seed in PACKED_MARKET_SEEDS:
        path = os.path.join(run_dir, f"urban-{market_seed}.plossdb")
        result.setups.append([])
        _setup_step(result, tracer, registry, functools.partial(
            pack_area_database, path, AreaType.URBAN, seed=market_seed,
            dims=PACKED_DIMS, clip_floor_db=PACKED_CLIP_FLOOR_DB))
        area = _setup_step(result, tracer, registry, functools.partial(
            build_area, AreaType.URBAN, seed=market_seed, dims=PACKED_DIMS,
            plossdb=path, planning=PLANNING, name=f"urban-{market_seed}"))
        result.grid_cells = area.grid.shape[0] * area.grid.shape[1]
        tickets = packed_tickets(area, rng)
        first = len(result.outcomes)
        _measure(area, tickets, kwargs, result, tracer, registry)
        if workers > 1:
            # The serial plans packed reports for this seed, untimed.
            reference = [run_fresh_ticket(area, {}, ticket)
                         for ticket in tickets]
            for outcome in reference:
                check_outcome(area, outcome)
            check_parity(reference, result.outcomes[first:])
            result.outcomes += reference
        del area
        gc.collect()
        os.remove(path)
    return result


#: ``name -> fn(seed, run_dir, tracer=None, registry=None)``
WORKLOADS = {
    "sweep": run_sweep,
    "packed": functools.partial(run_packed, workers=1),
    "packed-2w": functools.partial(run_packed, workers=2),
}
