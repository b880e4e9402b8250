"""The reference task every benchmark time is scaled by.

On a shared host the speed of the program's kind of work changes by up to
2x within seconds, and each CPU changes on its own (README.md, "Noise").
So the benchmark runs on one CPU, times this fixed task before and after
each piece of work it measures, and reports that work's time at the speed
at which the task takes REFERENCE_S.
"""

import json
import os
import time
from decimal import Decimal

REFERENCE_S = 0.07


def _line(i):
    account = f"usr{i % 997:09d}"
    return json.dumps({
        "global_seq": i,
        "timestamp": f"2018-06-{10 + i % 20:02d}T{i % 24:02d}:00:00Z",
        "actor": account,
        "payload": {"from": account, "to": f"game{i % 7:08d}",
                    "quantity": f"{i % 50}.{i % 10000:04d} EOS"},
    }, sort_keys=True)


# Parse and group 12,000 synthetic trace lines, the kind of work the
# program does most.
LINES = [_line(i) for i in range(12000)]


def reference_task_s():
    started = time.perf_counter()
    records = []
    for line in LINES:
        obj = json.loads(line)
        p = obj["payload"]
        records.append((obj["timestamp"][:10], p["from"], p["to"],
                        Decimal(p["quantity"].split()[0])))
    totals = {}
    for day, src, dst, amount in records:
        totals[(src, dst, day)] = totals.get((src, dst, day), 0) + amount
    return time.perf_counter() - started


def at_reference_speed(wall_s, before_s, after_s):
    """wall_s of work timed between two reference timings, at the speed at
    which the reference takes REFERENCE_S."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    work and the references timed next to it run on the same one."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
