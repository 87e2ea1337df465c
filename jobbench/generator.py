"""Seeded job sequences of the four workloads.

The program receives only the generated request bodies.  The seed picks
the order of jobs, the encoding (builder JSON or PNML), the declaration
order and, for cold workloads, a fresh loss probability ``p = 1/k`` per
job.  A fresh ``p`` gives every cold job a new content fingerprint — a
certain cache miss — while the state space keeps its size (a user sweeping
the loss rate), so every cold job does the same work.

Jobs come in blocks: every template appears once per block as JSON and
once as PNML, one of the two with shuffled declarations.  A block is then
shuffled.  This keeps the mix of every run exactly the same, so medians
compare across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.petri.io import jsonio, pnml
from repro.petri.net import TimedPetriNet
from repro.protocols import (
    go_back_n_net,
    pipelined_stop_and_wait_net,
    selective_repeat_net,
    simple_protocol_net,
    sliding_window_net,
)

#: Loss probability of the warm workload's lossy nets.
WARM_LOSS = Fraction(1, 10)
#: Cold jobs draw ``k`` of ``p = 1/k`` without replacement from this range.
#: Four-digit denominators only, so rational arithmetic costs the same.
K_RANGE = (1000, 10000)


@dataclass(frozen=True)
class Template:
    """One kind of job: a bundled net, a stage, its parameters.

    ``states`` is the state count the result must report (``result_key``
    names the field); it does not depend on the loss probability.
    """

    name: str
    build: Callable[[Fraction], TimedPetriNet]
    stage: str
    params: Tuple[Tuple[str, object], ...]
    states: int
    result_key: str = "states"
    weight: int = 1

    def net(self, loss: Fraction) -> TimedPetriNet:
        return self.build(loss)


def _sw_226(window: int) -> Callable[[Fraction], TimedPetriNet]:
    return lambda p: sliding_window_net(
        window, loss_probability=p, packet_delay=2, ack_delay=2, timeout=6
    )


def _lossy(builder, window: int) -> Callable[[Fraction], TimedPetriNet]:
    return lambda p: builder(window, loss_probability=p)


WORKLOADS: Dict[str, Tuple[Template, ...]] = {
    "warm_mix": (
        Template("fig1.performance", lambda p: simple_protocol_net(), "performance", (), 18, weight=8),
        Template("sw4.performance", lambda p: sliding_window_net(4), "performance", (), 537, weight=2),
        Template("sw3-lossy-226.performance", _sw_226(3), "performance", (), 1189),
        Template(
            "psw2.performance", lambda p: pipelined_stop_and_wait_net(2), "performance", (), 665, weight=8
        ),
        Template("sr3-lossy.performance", _lossy(selective_repeat_net, 3), "performance", (), 1113),
        Template("sw4.decision", lambda p: sliding_window_net(4), "decision", (), 537, weight=8),
        Template("sw4-lossy.untimed", _lossy(sliding_window_net, 4), "untimed", (), 625),
    ),
    "cold_timed": (
        Template("sw3-lossy-226.decision", _sw_226(3), "decision", (), 1189),
        Template("sr3-lossy.decision", _lossy(selective_repeat_net, 3), "decision", (), 1113),
        Template("gbn3-lossy.decision", _lossy(go_back_n_net, 3), "decision", (), 725),
    ),
    # Three selective-repeat jobs (~0.9 s) per window-2 job (~0.2 s): for
    # every whole number of blocks a run can hold, the median and the tail
    # rank fall on a selective-repeat job, never between the two clusters.
    "cold_perf": (
        Template("sw2-lossy.performance", _lossy(sliding_window_net, 2), "performance", (), 564),
        Template(
            "sr3-lossy.performance",
            _lossy(selective_repeat_net, 3),
            "performance",
            (),
            1113,
            weight=3,
        ),
    ),
    # The untimed job (~0.45 s, mostly render) sits between the GSPN job
    # (~0.25 s) and the query (~1.6 s); weighted 3x, it holds the median and
    # the tail rank for every whole number of blocks a run can hold.
    "cold_state_space": (
        Template(
            "sw6-lossy.query-deadlock",
            _lossy(sliding_window_net, 6),
            "query",
            (("kind", "deadlock"),),
            15625,
            result_key="states_explored",
        ),
        Template(
            "sw5-lossy.untimed-batched",
            _lossy(sliding_window_net, 5),
            "untimed",
            (("engine", "batched"),),
            3125,
            weight=3,
        ),
        Template(
            "sw4-lossy.gspn-batched",
            _lossy(sliding_window_net, 4),
            "gspn",
            (("engine", "batched"),),
            625,
            result_key="tangible_states",
        ),
    ),
}

#: Connections (client threads) per workload: warm traffic is concurrent so
#: one connection's polls meet the other's render; cold traffic is serial.
CONNECTIONS = {"warm_mix": 2, "cold_timed": 1, "cold_perf": 1, "cold_state_space": 1}


def is_cold(workload: str) -> bool:
    return workload != "warm_mix"


@dataclass(frozen=True)
class Job:
    index: int
    template: Template
    loss: Fraction
    encoding: str  # "json" or "pnml"
    shuffled: bool
    body: bytes


def encode(
    net: TimedPetriNet,
    stage: str,
    params: Dict[str, object],
    *,
    encoding: str,
    rng: Optional[random.Random] = None,
) -> bytes:
    """The ``POST /jobs`` body of ``net``; ``rng`` shuffles the declarations."""
    description = jsonio.net_to_dict(net)
    if rng is not None:
        rng.shuffle(description["places"])
        rng.shuffle(description["transitions"])
    payload: Dict[str, object] = {"stage": stage, "params": params}
    if encoding == "pnml":
        payload["pnml"] = pnml.net_to_pnml(jsonio.net_from_dict(description))
    else:
        payload["net"] = description
    return json.dumps(payload).encode("utf-8")


class JobStream:
    """The deterministic, unbounded job sequence of ``(workload, seed)``."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
        self.workload = workload
        self.templates = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}/{seed}")
        self._ks = self._k_sequence(random.Random(f"{workload}/{seed}/k"))
        self._block: List[Tuple[Template, str, bool]] = []
        self.count = 0

    @staticmethod
    def _k_sequence(rng: random.Random) -> Iterator[int]:
        low, high = K_RANGE
        yield from rng.sample(range(low, high), high - low)

    def _refill(self) -> None:
        block: List[Tuple[Template, str, bool]] = []
        for template in self.templates:
            for _ in range(template.weight):
                shuffled_json = self.rng.random() < 0.5
                block.append((template, "json", shuffled_json))
                block.append((template, "pnml", not shuffled_json))
        self.rng.shuffle(block)
        self._block = block[::-1]

    def at_block_boundary(self) -> bool:
        """Whether every job drawn so far belongs to a complete block."""
        return not self._block

    def __iter__(self) -> "JobStream":
        return self

    def __next__(self) -> Job:
        if not self._block:
            self._refill()
        template, encoding, shuffled = self._block.pop()
        loss = Fraction(1, next(self._ks)) if is_cold(self.workload) else WARM_LOSS
        body = encode(
            template.net(loss),
            template.stage,
            dict(template.params),
            encoding=encoding,
            rng=self.rng if shuffled else None,
        )
        job = Job(self.count, template, loss, encoding, shuffled, body)
        self.count += 1
        return job

    def take(self, n: int) -> List[Job]:
        return [next(self) for _ in range(n)]


def prewarm_jobs(workload: str) -> List[Job]:
    """Set-up jobs: each warm template once, as declared, in builder JSON.

    These are the first presentations the server sees, so every later
    (reordered, PNML) submission of the same content is served from them.
    """
    if is_cold(workload):
        return []
    return [
        Job(
            -1 - index,
            template,
            WARM_LOSS,
            "json",
            False,
            encode(template.net(WARM_LOSS), template.stage, dict(template.params), encoding="json"),
        )
        for index, template in enumerate(WORKLOADS[workload])
    ]
