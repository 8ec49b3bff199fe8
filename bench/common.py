"""Shared helpers of the benchmark: paths, the BENCHMARK.json
declarations, digests, percentiles and machine facts.

Nothing here imports :mod:`repro`; the harness must be able to report
"the program is missing" instead of dying on an import at load time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Version of the record layout written by ``run.py`` and read by
#: ``compare.py``; bump on any incompatible change.
SCHEMA_VERSION = 1


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def declared(spec: dict, section: str) -> dict[str, dict]:
    """``{metric name: declaration}`` of one BENCHMARK.json section."""
    return {entry["name"]: entry for entry in spec[section]}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def band_percentile(sorted_values: list[float], q: float,
                    half_width: float = 0.05) -> float:
    """Mean of the samples ranked within ``q +- half_width``.

    Op latencies come in classes (one per query shape); a plain
    percentile that falls on the boundary between two classes flips
    between them from run to run.  Averaging a tenth of the sample
    around the rank reads the same quantity without the flip.
    """
    n = len(sorted_values)
    low = max(0, int((q - half_width) * n))
    high = min(n, max(low + 1, int((q + half_width) * n)))
    band = sorted_values[low:high]
    return sum(band) / len(band)


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``exec``,
    so a child would report its *parent's* size at fork time whenever
    that is larger than anything the child itself reaches.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _git_commit() -> str | None:
    """HEAD of this checkout, read from ``.git`` directly.

    No ``git`` subprocess: it would walk up past the checkout, and the
    driver's checkouts are not repositories at all (then: ``None``).
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    """What a reader needs beside every number to judge it."""
    try:
        uptime_s = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        uptime_s = None
    try:
        loadavg = list(os.getloadavg())
    except OSError:
        loadavg = None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version,
        "platform": platform.platform(),
        "pythonhashseed_children": "0",
        "git_commit": _git_commit(),
        "uptime_s": uptime_s,
        "loadavg_at_start": loadavg,
    }
