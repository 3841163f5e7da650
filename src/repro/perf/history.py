"""Benchmark history files: ``BENCH_<git-sha>.json``.

One file per bench invocation, named after the commit that produced it,
embedding the machine/python fingerprint -- the benchmark *trajectory*
across PRs is the set of these files (``benchmarks/history/``), and
:mod:`repro.perf.compare` renders the verdict between any two of them.
"""

import json
import os
import time

from repro.perf.fingerprint import fingerprint, short_sha

#: Bump when the payload layout changes.
SCHEMA_VERSION = 1


def bench_payload(results, trials, warmup, fp=None):
    """The JSON payload for one bench run (a list of BenchResults)."""
    fp = fp or fingerprint()
    return {
        "schema": SCHEMA_VERSION,
        "kind": "leviathan-bench",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "fingerprint": fp,
        "trials": trials,
        "warmup": warmup,
        "benchmarks": {res.name: res.to_dict() for res in results},
    }


def history_filename(fp=None):
    return f"BENCH_{short_sha(fp)}.json"


def write_history(payload, out_dir=".", path=None):
    """Write ``payload``; returns the file path actually written."""
    if path is None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, history_filename(payload["fingerprint"]))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_history(path):
    """Load and minimally validate one history file.

    Raises ``OSError`` for an unreadable file and ``ValueError`` for
    one that is not a bench history file.
    """
    with open(path) as handle:
        payload = json.load(handle)
    benchmarks = payload.get("benchmarks") if isinstance(payload, dict) else None
    if not isinstance(benchmarks, dict):
        raise ValueError(f"{path}: not a bench history file (no 'benchmarks')")
    for name, entry in benchmarks.items():
        if "median_s" not in entry:
            raise ValueError(f"{path}: benchmark {name!r} has no median_s")
    return payload
