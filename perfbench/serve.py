"""``repro-paper serve`` with the benchmark's hooks installed.

Usage: ``python3 serve.py <src-dir> <dump.json> <trace 0|1> serve ARGS...``

Runs the CLI's ``serve`` subcommand unchanged in this process.  On
SIGINT the server stops and this wrapper writes what the hooks recorded
(exact counts, per-layer totals, the span file) to ``<dump.json>``.
"""

import json
import sys
import time

src, dump, trace = sys.argv[1:4]
sys.path.insert(0, src)

from hooks import Hooks  # noqa: E402

from repro.eval.cli import main  # noqa: E402

hooks = Hooks(trace=trace == "1").install().install_service()
started = time.perf_counter()
try:
    status = main(sys.argv[4:])
finally:
    hooks.remove()
    summary = hooks.summary()
    summary["uptime_s"] = time.perf_counter() - started
    if hooks.trace:
        hooks.write_spans(dump.replace(".json", ".spans.jsonl"))
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
sys.exit(status)
