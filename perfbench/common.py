"""Helpers shared by the workloads: tallies, statistics, work dirs."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Everything a run writes lives under this directory of the checkout.
WORK_ROOT = Path(".perfbench")


@dataclass
class Tally:
    """Operations attempted and failed, per check, with failure reasons.

    A reason starts with the tag of the check that failed
    (``"read: ..."``); the first few reasons of each tag are kept.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: tag -> [attempted, failed]
    by_tag: dict[str, list[int]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation or output check; remember why it failed."""
        self._count(what.split(":", 1)[0], 1, 0 if ok else 1)
        if not ok:
            self._keep([what])
        return ok

    def passed(self, n: int, tag: str) -> None:
        """Count ``n`` operations of ``tag`` that succeeded."""
        self._count(tag, n, 0)

    def _count(self, tag: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        entry = self.by_tag.setdefault(tag, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def _keep(self, reasons: list[str]) -> None:
        for what in reasons:
            tag = what.split(":", 1)[0]
            if sum(f.startswith(tag + ":") for f in self.failures) < 3:
                self.failures.append(what)

    def merge(self, other: "Tally") -> None:
        for tag, (attempted, failed) in other.by_tag.items():
            self._count(tag, attempted, failed)
        self._keep(other.failures)

    @property
    def success_rate(self) -> float:
        """1 minus the worst failure ratio of any one check, so a check
        that fails every time it runs shows however rarely it runs."""
        if not self.by_tag:
            return 0.0
        return 1.0 - max(failed / attempted for attempted, failed in self.by_tag.values())


def canonical(value: Any) -> str:
    """The byte form two results are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def corrupted(value: Any) -> Any:
    """A copy of ``value`` with its first number changed, for self-checks."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, dict):
        out = dict(value)
        for key in sorted(out):
            changed = corrupted(out[key])
            if changed != out[key]:
                out[key] = changed
                return out
        return out
    if isinstance(value, (list, tuple)):
        out = list(value)
        for i, item in enumerate(out):
            changed = corrupted(item)
            if changed != item:
                out[i] = changed
                return out
    return value


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of ``pid`` (default: this process), in MB."""
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_info(seed: int) -> dict[str, Any]:
    """Recorded with every result, so hosts are not compared blindly."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


#: The CPUs this process may use, read before anything pins a thread:
#: a pinned thread's own mask would hide the others.
try:
    ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
except (AttributeError, OSError):
    ALLOWED_CPUS = frozenset()


def pin(cpu: int, pid: int = 0) -> None:
    """Pin a process, or with ``pid`` 0 the calling thread, to one CPU.

    Timings and the calibration probes that rescale them must run on the
    same core, since tenants of the host slow each core differently.  A
    host without that CPU (or without affinity support) is left alone.
    """
    if cpu in ALLOWED_CPUS:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
