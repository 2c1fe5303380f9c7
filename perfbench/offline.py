"""The ``offline-opt`` workload and the kernel/DP helpers all workloads use.

Phase 1 evaluates SA and DA with the vectorized kernel
(``compile_batch`` + ``request_costs`` + ``schedule_totals``) on 32
schedules of 10k requests over 16 processors; phase 2 solves the exact
offline optimum (``OfflineOptimal.optimal_cost``) on a suite of
14-processor, 60-request schedules.  Neither touches a socket.

The live workloads reuse :func:`evaluate` and :func:`solve_suite` in
their correctness gate, which is where their ``kernel_rps`` and
``opt_solves_per_s`` come from.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Sequence, Tuple

import repro.kernel as kernel
from repro.analysis.bounds import da_competitive_factor, sa_competitive_factor
from repro.cluster.metrics import percentile
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.offline_optimal import OfflineOptimal
from repro.core.static_allocation import StaticAllocation
from repro.model.cost_model import stationary
from repro.model.schedule import Schedule
from repro.workloads.uniform import UniformWorkload

from perfbench.common import (
    SETUP_REPEATS,
    RunResult,
    gate,
    peak_rss_mb,
)
from perfbench.tracing import Patches, Tracer, traced_sync

_now = time.perf_counter

#: The stationary cost model every workload prices schedules under.
MODEL = stationary(0.2, 1.5)
INITIAL_SCHEME = frozenset({1, 2})
#: Slack for float comparisons of priced costs (sums of 0.2 and 1.5).
EPS = 1e-9

BATCH = 32
LENGTH = 10_000
PROCESSORS = 16
WRITE_FRACTION = 0.2
DP_PROCESSORS = 14
DP_REQUESTS = 60

#: Rates measured on the 2-vCPU machine the benchmark was defined on.
#: A run's work is fixed from them, so that it measures about
#: ``--seconds`` there; a faster program finishes the same work sooner.
REFERENCE_KERNEL_RPS = 1_500_000.0
REFERENCE_SOLVES_PER_S = 50.0
#: Share of the run spent in phase 2: the DP solves are the latency
#: samples, and a p99 needs as many as the run can give.
DP_SHARE = 0.7

#: Phase-1 schedules whose kernel costs are re-checked by stepping.
STEPPED_SAMPLE = 2
#: Schedules of each phase a set-up warms the kernel and the DP on.
SETUP_SCHEDULES = 3


def algorithms():
    """The two algorithms the kernel evaluates, on the shared scheme."""
    return (
        ("SA", StaticAllocation(INITIAL_SCHEME)),
        ("DA", DynamicAllocation(INITIAL_SCHEME)),
    )


@dataclass
class KernelPass:
    """One SA+DA kernel evaluation of a batch of schedules."""

    totals: Dict[str, List[float]]
    compile_s: float
    eval_s: float

    @property
    def seconds(self) -> float:
        return self.compile_s + self.eval_s


def evaluate(schedules: Sequence[Schedule]) -> KernelPass:
    """Price every schedule under SA and DA through the kernel."""
    totals: Dict[str, List[float]] = {}
    compile_s = eval_s = 0.0
    for name, algorithm in algorithms():
        started = _now()
        batch = kernel.compile_batch(schedules, algorithm.initial_scheme)
        compiled = _now()
        totals[name] = kernel.schedule_totals(
            kernel.request_costs(algorithm, batch, MODEL), batch.lengths
        )
        compile_s += compiled - started
        eval_s += _now() - compiled
    return KernelPass(totals, compile_s, eval_s)


def solve_suite(
    solver: OfflineOptimal, schedules: Sequence[Schedule]
) -> Tuple[List[float], List[float]]:
    """OPT of every schedule, and the seconds each solve took."""
    costs: List[float] = []
    seconds: List[float] = []
    for schedule in schedules:
        started = _now()
        costs.append(solver.optimal_cost(schedule, INITIAL_SCHEME))
        seconds.append(_now() - started)
    return costs, seconds


def check_bounds(
    opt: Sequence[float], priced: Dict[str, Sequence[float]]
) -> Tuple[float, float]:
    """Gate OPT <= min(SA, DA) and both competitive factors; returns
    the worst SA/OPT and DA/OPT ratios."""
    sa_factor = sa_competitive_factor(MODEL)
    da_factor = da_competitive_factor(MODEL)
    worst_sa = worst_da = 0.0
    for index, best in enumerate(opt):
        sa, da = priced["SA"][index], priced["DA"][index]
        gate(
            best <= min(sa, da) + EPS,
            f"schedule {index}: OPT {best} exceeds min(SA {sa}, DA {da})",
        )
        gate(best > 0, f"schedule {index}: OPT is {best}")
        worst_sa = max(worst_sa, sa / best)
        worst_da = max(worst_da, da / best)
    gate(
        worst_sa <= sa_factor + EPS,
        f"SA/OPT reached {worst_sa:.4f} > factor {sa_factor}",
    )
    gate(
        worst_da <= da_factor + EPS,
        f"DA/OPT reached {worst_da:.4f} > factor {da_factor}",
    )
    return worst_sa, worst_da


def stepped_cost(name: str, schedule: Schedule) -> float:
    """The reference cost: step the algorithm object request by request."""
    algorithm = dict(algorithms())[name]
    return MODEL.schedule_cost(algorithm.run(schedule))


# -- inputs -----------------------------------------------------------------


def dp_suite(seed: int, count: int) -> List[Schedule]:
    """``count`` 60-request schedules whose issuers span all 14
    processors (redrawn until they do, so every DP has the full
    2^14-state universe)."""
    generator = UniformWorkload(
        range(1, DP_PROCESSORS + 1), DP_REQUESTS, WRITE_FRACTION
    )
    rng = random.Random(f"perfbench-dp-{seed}")
    suite: List[Schedule] = []
    while len(suite) < count:
        schedule = generator.generate(rng.getrandbits(63))
        if len(schedule.processors) == DP_PROCESSORS:
            suite.append(schedule)
    return suite


def plan(seconds: float) -> Tuple[int, int]:
    """Phase-1 rounds and phase-2 solves for a run of ``seconds``."""
    per_round = 2 * BATCH * LENGTH
    kernel_s = seconds * (1 - DP_SHARE)
    rounds = max(1, math.ceil(kernel_s * REFERENCE_KERNEL_RPS / per_round))
    solves = max(rounds, round(seconds * DP_SHARE * REFERENCE_SOLVES_PER_S))
    return rounds, solves


# -- the workload -------------------------------------------------------------


@dataclass
class OfflinePass:
    """The two phases, run as blocks: each block is one kernel round
    followed by its share of the DP suite.  Metrics are medians over the
    blocks, so a slow spell of the machine moves a few blocks, not the
    result."""

    rounds: List[KernelPass]
    #: Seconds of each DP solve, per block.
    solves: List[List[float]]
    #: OPT of every suite schedule, in suite order.
    opt: List[float]

    @property
    def solve_s(self) -> List[float]:
        return [spent for block in self.solves for spent in block]

    def kernel_rps(self) -> float:
        return median([2 * BATCH * LENGTH / r.seconds for r in self.rounds])

    def solves_per_s(self) -> float:
        return median([len(block) / sum(block) for block in self.solves])

    def throughput(self) -> float:
        """Model requests (SA+DA evaluations and DP schedules) per second."""
        return median(
            [
                (2 * BATCH * LENGTH + DP_REQUESTS * len(block))
                / (kernel_pass.seconds + sum(block))
                for kernel_pass, block in zip(self.rounds, self.solves)
            ]
        )

    def latency_ms(self, fraction: float) -> float:
        """Median over blocks of the DP-solve latency percentile."""
        return median([percentile(block, fraction) * 1e3 for block in self.solves])


def _timed_pass(batch, suite, solver, rounds: int) -> OfflinePass:
    passes: List[KernelPass] = []
    solves: List[List[float]] = []
    opt: List[float] = [0.0] * len(suite)
    for index in range(rounds):
        passes.append(evaluate(batch))
        share = range(index, len(suite), rounds)
        costs, seconds = solve_suite(solver, [suite[i] for i in share])
        solves.append(seconds)
        for i, cost in zip(share, costs):
            opt[i] = cost
    return OfflinePass(passes, solves, opt)


def _instrument(tracer: Tracer, patches: Patches) -> None:
    """Spans around the kernel's public functions and the DP solve."""
    for name in ("compile_batch", "request_costs", "schedule_totals"):
        original = getattr(kernel, name)
        patches.everywhere(
            original, traced_sync(tracer, f"kernel.{name}", original)
        )
    patches.set(
        OfflineOptimal,
        "optimal_cost",
        traced_sync(tracer, "dp.optimal_cost", OfflineOptimal.optimal_cost),
    )


def run(seed: int, seconds: float, trace: bool, work) -> RunResult:
    result = RunResult()
    rounds, solves = plan(seconds)
    batch = UniformWorkload(
        range(1, PROCESSORS + 1), LENGTH, WRITE_FRACTION
    ).batch_independent(BATCH, root_seed=seed)
    suite = dp_suite(seed, solves)

    # Set-up: a solver, and the first kernel and DP calls warmed on a
    # slice of the inputs.
    setup_s: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = _now()
        solver = OfflineOptimal(MODEL, max_processors=DP_PROCESSORS)
        evaluate(batch[:SETUP_SCHEDULES])
        solve_suite(solver, suite[:SETUP_SCHEDULES])
        setup_s.append(_now() - started)

    timed = _timed_pass(batch, suite, solver, rounds)
    rss = peak_rss_mb()
    result.attempted = rounds * 2 * BATCH + solves

    # Correctness gate: stepped == kernel on a sample of the batch, and
    # the paper's bounds on every DP schedule.
    last = timed.rounds[-1]
    for index in random.Random(seed).sample(range(BATCH), STEPPED_SAMPLE):
        for name, _ in algorithms():
            reference = stepped_cost(name, batch[index])
            gate(
                last.totals[name][index] == reference,
                f"{name} schedule {index}: kernel {last.totals[name][index]} "
                f"!= stepped {reference}",
            )
    for other in timed.rounds[:-1]:
        gate(other.totals == last.totals, "kernel totals differ between rounds")
    worst_sa, worst_da = check_bounds(timed.opt, evaluate(suite).totals)

    result.note(
        f"offline-opt: {rounds} kernel rounds of {BATCH}x{LENGTH} SA+DA, "
        f"{solves} DP solves ({DP_PROCESSORS} processors, {DP_REQUESTS} "
        f"requests); worst SA/OPT {worst_sa:.3f} <= "
        f"{sa_competitive_factor(MODEL):.2f}, DA/OPT {worst_da:.3f} <= "
        f"{da_competitive_factor(MODEL):.2f}"
    )
    result.note(f"latency samples: {solves} DP solves in {rounds} blocks")
    if not trace:
        result.put("throughput_rps", timed.throughput(), "req/s")
        result.put("latency_p50_ms", timed.latency_ms(0.50), "ms")
        result.put("latency_p99_ms", timed.latency_ms(0.99), "ms")
        result.put("kernel_rps", timed.kernel_rps(), "req/s")
        result.put("opt_solves_per_s", timed.solves_per_s(), "1/s")
        result.put("setup_s", median(setup_s), "s")
        result.put("peak_rss_mb", rss, "MiB")
        return result

    tracer = Tracer()
    patches = Patches()
    _instrument(tracer, patches)
    try:
        traced = _timed_pass(batch, suite, solver, rounds)
    finally:
        patches.undo()
    gate(traced.opt == timed.opt, "traced DP costs differ from untraced")
    layers = {
        "kernel.compile_s": (median([r.compile_s for r in timed.rounds]), "s"),
        "kernel.eval_s": (median([r.eval_s for r in timed.rounds]), "s"),
        "dp.solve_ms_p50": (median(timed.solve_s) * 1e3, "ms"),
        "trace.throughput_rps_untraced": (timed.throughput(), "req/s"),
        "trace.throughput_rps_traced": (traced.throughput(), "req/s"),
        "trace.overhead_ratio": (traced.throughput() / timed.throughput(), "ratio"),
    }
    for name, (value, unit) in layers.items():
        result.put(name, value, unit)
    result.tracer = tracer
    return result
