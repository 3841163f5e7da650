"""Set-up probe, run in a fresh process by ``run.py``.

Imports ``repro``, builds the workload from the seed (its input seeds
and, for ``sweep``, its grid of run specs) and its pool (and, for
``sweep``, its cache directory), then prints the seconds that took. The
clock starts before the first import. The inputs themselves are made
inside each run, so they count in the timed section, not here.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    if args.workload == "sweep":
        import repro.experiments.cli  # noqa: F401  (the CLI's import, first)
    import workloads

    bench = workloads.make(args.workload, args.seed)
    pool = bench.new_pool(args.workdir)
    elapsed = time.perf_counter() - START
    if pool.cache_dir:
        shutil.rmtree(pool.cache_dir)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
