#!/usr/bin/env python3
"""Peak resident memory of one pass over a workload, in a fresh process.

    python3 perfbench/memory.py --workload linear --seed N --out DIR

Runs every task of the workload once through ``parse_config`` and
``run_scenario(jobs=1)``, as a CLI user's process would, and prints the
process's peak resident set in MiB.  run.py reports this as
``peak_rss_mb``.  The peak is VmHWM, the high-water mark of this program's
own memory: ``ru_maxrss`` also counts the parent's resident set at the
fork that started it.  run.py starts it with glibc's mmap threshold fixed
(``MALLOC_MMAP_THRESHOLD_``), so large arrays are returned to the system
when freed and the peak is the live data's: the benchmark process's own
peak moved between 154 and 186 MB from run to run of one seed, while this
process repeats it to within 0.5 MB.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import optomech_switch as pkg

    wl = workloads.build(args.workload, args.seed)
    for i, task in enumerate(wl.tasks):
        gc.collect()
        pkg.run_scenario(pkg.parse_config(task.text), out_dir=str(args.out / f"task{i:02d}"),
                         jobs=1)
    print(peak_mib())


def peak_mib():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    main()
