"""JSON request schemas and typed errors of the analysis service.

The job API accepts a net in either of the tree's interchange formats —
the builder JSON of :mod:`repro.petri.io.jsonio` (under ``"net"``) or a
PNML document of :mod:`repro.petri.io.pnml` (under ``"pnml"``) — plus a
``"stage"`` naming what to compute and an optional ``"params"`` mapping.
Validation happens here, up front, so a malformed submission is rejected
with a structured 4xx JSON error before it ever reaches the job queue;
anything that passes :func:`parse_job` is a runnable job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..petri.io import jsonio, pnml
from ..petri.net import TimedPetriNet

#: Stages a job may request, in pipeline order.
STAGES: Tuple[str, ...] = (
    "tables",
    "untimed",
    "coverability",
    "gspn",
    "decision",
    "performance",
    "query",
)

#: Engines the service accepts for cold builds.  The ``reference`` engine
#: is deliberately excluded: jobs run under a
#: :class:`~repro.engine.runtime.RunControl` (deadline, cancellation,
#: checkpoints), which only the frontier-core engines support.
SERVICE_ENGINES: Tuple[str, ...] = ("compiled", "batched")

#: Query kinds of the ``query`` stage.
QUERY_KINDS: Tuple[str, ...] = ("reachable", "bound", "deadlock")

#: Per-stage parameter whitelist.  Unknown parameters are rejected (a
#: typo'd ``max_state`` must not silently run with the default bound).
STAGE_PARAMS: Dict[str, frozenset] = {
    "tables": frozenset(),
    "untimed": frozenset({"max_states", "engine"}),
    # The Karp–Miller construction has no batched backend (the omega rule
    # is per-path), so no engine selection here.
    "coverability": frozenset({"max_nodes"}),
    "gspn": frozenset({"max_states", "place_capacity", "rates", "engine"}),
    "decision": frozenset({"max_states", "fold_cycles"}),
    "performance": frozenset({"max_states", "time_unit"}),
    "query": frozenset({"kind", "target", "place", "k", "max_states"}),
}

#: Largest accepted ``POST /jobs/batch`` submission.
MAX_BATCH = 256


class ServiceError(ReproError):
    """A request error with an HTTP status and a machine-readable code.

    Raised anywhere between socket and job queue; the HTTP layer renders
    it as ``{"error": {"code": ..., "message": ..., "detail": ...}}`` with
    :attr:`status` as the response status.
    """

    def __init__(self, status: int, code: str, message: str, detail: object = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail

    def payload(self) -> Dict[str, object]:
        error: Dict[str, object] = {"code": self.code, "message": str(self)}
        if self.detail is not None:
            error["detail"] = self.detail
        return {"error": error}


@dataclass
class JobRequest:
    """One validated job submission, ready for the :class:`~repro.service.jobs.JobManager`."""

    net: TimedPetriNet
    stage: str
    params: Dict[str, object] = field(default_factory=dict)
    deadline: Optional[float] = None
    checkpoint_every: Optional[int] = None
    progress_every: Optional[int] = None


def _positive_int(value: object, *, what: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ServiceError(
            400,
            "invalid-params",
            f"{what} must be an integer >= {minimum}, got {value!r}",
        )
    return value


def _positive_number(value: object, *, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise ServiceError(
            400, "invalid-params", f"{what} must be a positive number, got {value!r}"
        )
    return float(value)


def parse_net(payload: Mapping) -> TimedPetriNet:
    """The net of a submission: builder JSON (``net``) or PNML (``pnml``)."""
    has_json = "net" in payload
    has_pnml = "pnml" in payload
    if has_json == has_pnml:
        raise ServiceError(
            400,
            "invalid-net",
            "a job must carry exactly one of 'net' (builder JSON) or 'pnml' (PNML text)",
        )
    try:
        if has_json:
            description = payload["net"]
            if not isinstance(description, Mapping):
                raise ServiceError(
                    400,
                    "invalid-net",
                    f"'net' must be a JSON object in the builder schema, "
                    f"got {type(description).__name__}",
                )
            return jsonio.net_from_dict(dict(description))
        document = payload["pnml"]
        if not isinstance(document, str):
            raise ServiceError(
                400,
                "invalid-net",
                f"'pnml' must be a PNML document string, got {type(document).__name__}",
            )
        return pnml.net_from_pnml(document)
    except ServiceError:
        raise
    except Exception as error:  # NetDefinitionError, XML parse errors, ...
        raise ServiceError(
            400, "invalid-net", f"cannot parse the submitted net: {error}"
        ) from error


def _validate_params(stage: str, params: Mapping) -> Dict[str, object]:
    allowed = STAGE_PARAMS[stage]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ServiceError(
            400,
            "invalid-params",
            f"unknown parameter(s) for stage {stage!r}: {', '.join(unknown)}",
            detail={"allowed": sorted(allowed)},
        )
    validated: Dict[str, object] = {}
    for name, value in params.items():
        if name in ("max_states", "max_nodes", "place_capacity", "k"):
            validated[name] = _positive_int(
                value, what=name, minimum=0 if name == "k" else 1
            )
        elif name == "engine":
            if value not in SERVICE_ENGINES:
                raise ServiceError(
                    400,
                    "invalid-params",
                    f"engine must be one of {', '.join(SERVICE_ENGINES)}, got {value!r}",
                )
            validated[name] = value
        elif name == "fold_cycles":
            if not isinstance(value, bool):
                raise ServiceError(
                    400, "invalid-params", f"fold_cycles must be a boolean, got {value!r}"
                )
            validated[name] = value
        elif name == "time_unit":
            if not isinstance(value, str):
                raise ServiceError(
                    400, "invalid-params", f"time_unit must be a string, got {value!r}"
                )
            validated[name] = value
        elif name == "rates":
            if not isinstance(value, Mapping):
                raise ServiceError(
                    400,
                    "invalid-params",
                    f"rates must be a transition->rate object, got {value!r}",
                )
            try:
                validated[name] = {str(k): float(v) for k, v in value.items()}
            except (TypeError, ValueError) as error:
                raise ServiceError(
                    400, "invalid-params", f"invalid rate value: {error}"
                ) from error
        elif name == "kind":
            if value not in QUERY_KINDS:
                raise ServiceError(
                    400,
                    "invalid-params",
                    f"query kind must be one of {', '.join(QUERY_KINDS)}, got {value!r}",
                )
            validated[name] = value
        elif name == "target":
            if not isinstance(value, Mapping):
                raise ServiceError(
                    400,
                    "invalid-params",
                    f"target must be a place->count object, got {value!r}",
                )
            try:
                validated[name] = {str(k): int(v) for k, v in value.items()}
            except (TypeError, ValueError) as error:
                raise ServiceError(
                    400, "invalid-params", f"invalid target marking: {error}"
                ) from error
        elif name == "place":
            if not isinstance(value, str):
                raise ServiceError(
                    400, "invalid-params", f"place must be a string, got {value!r}"
                )
            validated[name] = value
        else:  # pragma: no cover - the whitelist above is exhaustive
            validated[name] = value
    if stage == "query":
        kind = validated.get("kind")
        if kind is None:
            raise ServiceError(
                400, "invalid-params", "the query stage requires a 'kind' parameter"
            )
        if kind == "reachable" and "target" not in validated:
            raise ServiceError(
                400, "invalid-params", "query kind 'reachable' requires 'target'"
            )
        if kind == "bound" and not ("place" in validated and "k" in validated):
            raise ServiceError(
                400, "invalid-params", "query kind 'bound' requires 'place' and 'k'"
            )
    return validated


def parse_job(payload: object) -> JobRequest:
    """Validate one ``POST /jobs`` body into a :class:`JobRequest`."""
    if not isinstance(payload, Mapping):
        raise ServiceError(
            400,
            "invalid-request",
            f"a job submission must be a JSON object, got {type(payload).__name__}",
        )
    stage = payload.get("stage")
    if stage not in STAGES:
        raise ServiceError(
            400,
            "unknown-stage",
            f"unknown stage {stage!r}",
            detail={"stages": list(STAGES)},
        )
    net = parse_net(payload)
    raw_params = payload.get("params", {})
    if not isinstance(raw_params, Mapping):
        raise ServiceError(
            400, "invalid-params", f"'params' must be a JSON object, got {raw_params!r}"
        )
    params = _validate_params(stage, raw_params)
    request = JobRequest(net=net, stage=stage, params=params)
    if "deadline" in payload and payload["deadline"] is not None:
        request.deadline = _positive_number(payload["deadline"], what="deadline")
    if "checkpoint_every" in payload and payload["checkpoint_every"] is not None:
        request.checkpoint_every = _positive_int(
            payload["checkpoint_every"], what="checkpoint_every"
        )
    if "progress_every" in payload and payload["progress_every"] is not None:
        request.progress_every = _positive_int(
            payload["progress_every"], what="progress_every"
        )
    return request


def parse_batch(payload: object) -> List[JobRequest]:
    """Validate one ``POST /jobs/batch`` body (``{"jobs": [...]}``).

    Validation is all-or-nothing: one malformed entry rejects the whole
    batch (with its index in the error detail), so a batch never half
    submits.
    """
    if not isinstance(payload, Mapping) or "jobs" not in payload:
        raise ServiceError(
            400, "invalid-request", "a batch submission must be {'jobs': [...]}"
        )
    entries = payload["jobs"]
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ServiceError(
            400, "invalid-request", "'jobs' must be a non-empty array of job objects"
        )
    if len(entries) > MAX_BATCH:
        raise ServiceError(
            400,
            "batch-too-large",
            f"a batch may hold at most {MAX_BATCH} jobs, got {len(entries)}",
        )
    requests = []
    for index, entry in enumerate(entries):
        try:
            requests.append(parse_job(entry))
        except ServiceError as error:
            raise ServiceError(
                error.status,
                error.code,
                f"jobs[{index}]: {error}",
                detail=error.detail,
            ) from error
    return requests


__all__ = [
    "JobRequest",
    "MAX_BATCH",
    "QUERY_KINDS",
    "SERVICE_ENGINES",
    "STAGES",
    "STAGE_PARAMS",
    "ServiceError",
    "parse_batch",
    "parse_job",
    "parse_net",
]
