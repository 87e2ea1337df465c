"""Order statistics, result rows and the provenance stamp of a result file.

Every timing is reported as a median plus quartiles over its samples, one
row per (workload, metric) — never a best-of-N, and never two rows for one
key (the failure mode of the older ``BENCH_scaling.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], percent: float, width: float = 2.0) -> float:
    """The ``percent`` percentile, smoothed (0 for no samples).

    The mean of the order statistics whose nearest ranks lie within
    ``percent ± width``.  A single order statistic jumps between runs when
    only a few samples fall in a sparse tail (status polls that meet a
    collector pause); averaging the neighbouring ranks steadies it.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    low = max(1, math.ceil((percent - width) / 100.0 * n))
    high = min(n, max(low, math.ceil((percent + width) / 100.0 * n)))
    window = ordered[low - 1 : high]
    return sum(window) / len(window)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the sample
    of rank ``n - beyond`` (1-based, ascending), i.e. percentile
    ``100 * (n - beyond) / n``.  Below ``beyond + 1`` samples no such
    percentile exists and the median is returned with percentile 50.
    """
    n = len(values)
    if n <= beyond:
        return median(values), 50.0
    ordered = sorted(values)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n


def row(workload: str, metric: str, unit: str, samples: Sequence[float], **extra) -> Dict[str, object]:
    q1, mid, q3 = quartiles(list(samples))
    out: Dict[str, object] = {
        "workload": workload,
        "metric": metric,
        "unit": unit,
        "median": mid,
        "q1": q1,
        "q3": q3,
        "samples": len(samples),
    }
    out.update(extra)
    return out


def check_unique(rows: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """The rows, or ``ValueError`` naming the first duplicated key."""
    seen = set()
    out = []
    for entry in rows:
        key = (entry["workload"], entry["metric"])
        if key in seen:
            raise ValueError(f"duplicate result row {key}")
        seen.add(key)
        out.append(entry)
    return out


def reject_duplicate_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """``object_pairs_hook`` for ``json.loads`` that refuses repeated keys."""
    out: Dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def source_digest(root: Path) -> str:
    """sha256 over the program's source files (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamp(root: Path, *, workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    return {
        "commit": commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def write_result(path: Path, stamp_: Dict[str, object], rows: List[Dict[str, object]], **extra) -> None:
    payload = {"stamp": stamp_, "rows": check_unique(rows)}
    payload.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
