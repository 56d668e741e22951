#!/usr/bin/env python3
"""Scenario benchmark for optomech-switch.

    python3 perfbench/run.py --workload switch|linear|quasistatic \\
        --seed N --seconds S --trace 0|1

Builds the workload's scenario configs from the seed, imports the package
from ``src/`` of the checkout that holds this file, and runs whole passes
over the workload's tasks for at least ``--seconds`` seconds.  The timed
path is the CLI contract only: ``parse_config`` during set-up, then one
``run_scenario(config, out_dir, jobs=1)`` per task into a throw-away
directory.  Afterwards every task's outputs are checked against the
oracles in oracles.py, and one task is rerun to compare output bytes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps the package's public functions (tracing.py), alternates traced and
untraced passes and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object; the full
record goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "optomech_switch"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 3   # child-process imports timed for setup_s
SETUP_REPEATS = 3    # config generation + warm-up repeats for setup_s
MIN_TRACED_PASSES = 2

# Per-layer metric -> (end-to-end metric it should move, workload), printed
# with the traced run.
LAYER_TARGETS = {
    "dynamics.solve_ivp": ("wall_s, task_p50_ms", "switch; quasistatic for the ramp"),
    "dynamics.rhs_calls_per_period": ("wall_s, task_p50_ms", "switch"),
    "dynamics.integrate_meanfield": ("wall_s", "switch"),
    "dynamics.switch_metrics": ("wall_s", "switch"),
    "dynamics.bandwidth": ("wall_s", "switch"),
    "dynamics.gain_vs_frequency": ("wall_s", "switch"),
    "dynamics.hysteresis_sweep": ("wall_s", "quasistatic"),
    "bistability.bistability_curve": ("wall_s", "linear, quasistatic"),
    "linearize": ("wall_s", "linear"),
    "steady_state": ("wall_s", "linear"),
    "spectrum.spectrum_matrix": ("wall_s, task_p50_ms", "linear"),
    "closed_form": ("wall_s", "linear"),
    "runner": ("wall_s, task_p50_ms", "linear (least on switch)"),
    "config": ("setup_s", "all"),
    "trace": ("none (reported)", "all"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import optomech_switch
    except ImportError as exc:
        fail(f"cannot import {PACKAGE} from {SRC}: {exc}")
    if Path(optomech_switch.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"{PACKAGE} was imported from {optomech_switch.__file__}, not from {SRC}")
    return optomech_switch


def time_import():
    """Seconds a fresh interpreter spends importing the package."""
    probe = (f"import time; t = time.perf_counter(); import {PACKAGE}; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def peak_memory(args, scratch):
    """Peak resident memory, in MiB, of one pass in a fresh process
    (memory.py).  glibc's mmap threshold is fixed there at its initial
    128 KiB, so every large array is mapped and unmapped on its own: with
    the threshold left to adapt, freed arrays stayed in the heap by chance
    and the peak moved between 154 and 186 MB from run to run."""
    cmd = [sys.executable, str(HERE / "memory.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(scratch / "memory")]
    done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072"),
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        fail(f"memory pass failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.split()[-1])


def environment(args, tasks_per_pass):
    try:
        import scipy
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
        versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    except (ImportError, KeyError, TypeError):
        blas, versions = {}, {"numpy": np.__version__}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tasks_per_pass": tasks_per_pass}


def run_pass(pkg, configs, dirs):
    """Run every task once; returns the pass's clock readings, each task's
    (start, end), manifests and errors."""
    spans, manifests, errors = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for config, out_dir in zip(configs, dirs):
        # Each CLI run starts from a fresh process; collecting the previous
        # task's garbage here, untimed, keeps a task from paying for it.
        gc.collect()
        start = time.perf_counter()
        try:
            manifests.append(pkg.run_scenario(config, out_dir=out_dir, jobs=1))
            errors.append(None)
        except Exception as exc:  # a failed task is counted, the run goes on
            manifests.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        spans.append((start, time.perf_counter()))
    return (wall0, time.perf_counter(), time.process_time() - cpu0, spans,
            manifests, errors)


def sweep_errors(out_dir):
    path = Path(out_dir) / "sweep_index.json"
    if not path.exists():
        return []
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    return [p for p in points if p.get("status") != "ok"]


def same_bytes(dir_a, dir_b):
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    return names_a == names_b and all(
        (Path(dir_a) / n).read_bytes() == (Path(dir_b) / n).read_bytes() for n in names_a)


def quantile_table(values):
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    if n >= 100:  # at least ten samples beyond the 90th percentile
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    pkg = import_package()
    # The closed-form audit logs a warning per spectrum; keep it off stderr.
    logging.getLogger(PACKAGE).addHandler(logging.NullHandler())

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(PACKAGE) if args.trace else None
    # Pass, task and set-up times are rescaled to a fixed machine speed
    # (speed.py).  Span self times stay raw and include the probe's samples,
    # about 0.5% of the run.
    probe = speed.SpeedProbe()
    try:
        probe.start()
        record = measure(pkg, args, scratch, tracer, probe)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        if not any((ROOT / ".perfbench_tmp").iterdir()):
            (ROOT / ".perfbench_tmp").rmdir()

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": record["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[group]}
    report(args, record, metrics)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"spans-{stem}.csv", "w", encoding="utf-8") as fh:
            fh.write("context,name,start_s,end_s,self_s\n")
            for ctx, name, start, end, own, _ in tracer.spans:
                fh.write(f"{ctx},{name},{start:.9f},{end:.9f},{own:.9f}\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def measure(pkg, args, scratch, tracer, probe):
    imports = [time_import() for _ in range(IMPORT_REPEATS)]
    if tracer is not None:
        tracer.install()
    setups, raw_setups = [], []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.context = f"setup:{rep}:"
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        configs = [pkg.parse_config(task.text) for task in wl.tasks]
        for text in wl.warmup:
            pkg.run_scenario(pkg.parse_config(text), out_dir=str(scratch / "warmup"), jobs=1)
        end = time.perf_counter()
        raw_setups.append(end - start)
        setups.append(probe.rescale(start, end, end - start))
    if tracer is not None:
        tracer.uninstall()

    dirs = [str(scratch / f"task{i:02d}") for i in range(len(wl.tasks))]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(passes)
        traced = tracer is not None and (k < MIN_TRACED_PASSES or k % 2 == 1)
        if traced:
            tracer.context = f"pass:{k}:"
            tracer.install()
        t0, t1, cpu, spans, manifests, errors = run_pass(pkg, configs, dirs)
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "raw_wall_s": t1 - t0, "raw_cpu_s": cpu,
                       "wall_s": probe.rescale(t0, t1, t1 - t0),
                       "cpu_s": probe.rescale(t0, t1, cpu),
                       "raw_latency_s": [b - a for a, b in spans],
                       "latency_s": [probe.rescale(a, b, b - a) for a, b in spans],
                       "errors": errors,
                       "sweep_errors": [sweep_errors(d) for d in dirs],
                       "files": [m and m["files"] for m in manifests]})
        enough = tracer is None or (k + 1 > MIN_TRACED_PASSES)
        if time.perf_counter() >= deadline and enough:
            break
    peak_rss_mb = peak_memory(args, scratch) if tracer is None else None
    # The imports ran in other processes, so they are rescaled by the speed
    # sampled over the whole run: the probe's samples during one import
    # follow it less well than the machine's state over the run does.
    import_factor = probe.run_factor()
    setup_s = import_factor * statistics.median(imports) + statistics.median(setups)

    # Oracle checks on the last pass's outputs; identical files in every
    # pass (compared by manifest checksum) share the verdict.
    rng = np.random.default_rng(args.seed)
    verdicts, audit_over = [], 0
    for i, task in enumerate(wl.tasks):
        if passes[-1]["errors"][i] is not None:
            verdicts.append((False, passes[-1]["errors"][i], False))
            continue
        try:
            ok, detail, counts = checks.check(task, dirs, i, rng)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail, counts = False, f"unreadable output: {type(exc).__name__}: {exc}", {}
        audit_over += counts.get("audit_points_over_tol", 0)
        verdicts.append((bool(ok), detail, bool(counts.get("known_defect_only"))))

    # One operation per task of the workload, not per pass: how many passes
    # fit in --seconds depends on the machine's speed, so a per-pass count
    # would differ between runs of the same seed.  A task fails if any pass
    # of it fails.
    attempted = failed = 0
    unexpected = []
    for i, task in enumerate(wl.tasks):
        attempted += 1
        reasons = []
        for k, p in enumerate(passes):
            if p["errors"][i] is not None:
                reasons.append(f"pass {k}: {p['errors'][i]}")
            if p["sweep_errors"][i]:
                reasons.append(f"pass {k}: sweep points failed: {p['sweep_errors'][i]}")
            if p["files"][i] != passes[0]["files"][i]:
                reasons.append(f"pass {k}: outputs differ from the first pass")
        if not verdicts[i][0]:
            reasons.append(f"oracle: {verdicts[i][1]}")
        if reasons:
            failed += 1
            # a listed known defect fails its oracle without making the run incorrect
            if not (task.known_defect and verdicts[i][2] and len(reasons) == 1):
                unexpected.append(f"{task.name}: {'; '.join(reasons)}")

    # Byte-identity of a rerun.
    rerun_dir = str(scratch / "rerun")
    attempted += 1
    try:
        pkg.run_scenario(configs[wl.rerun], out_dir=rerun_dir, jobs=1)
        identical = same_bytes(rerun_dir, dirs[wl.rerun])
    except Exception as exc:  # counted as a failed task
        identical = False
        unexpected.append(f"rerun {wl.tasks[wl.rerun].name}: {type(exc).__name__}: {exc}")
    if not identical:
        failed += 1
        unexpected.append(f"rerun of {wl.tasks[wl.rerun].name} is not byte-identical")

    plain = [p for p in passes if not p["traced"]]
    latencies = [t for p in plain for t in p["latency_s"]]
    metrics = {}
    if plain:
        task_medians = [statistics.median(p["latency_s"][i] for p in plain)
                        for i in range(len(wl.tasks))]
        metrics.update({
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "task_p50_ms": 1e3 * statistics.median(task_medians),
            "ok_frac": (attempted - failed) / attempted,
        })
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = peak_rss_mb
    if tracer is not None:
        layer = traced_metrics(tracer, passes, dirs, unexpected)
        layer["closed_form.spectrum_closed_form.audit_points_over_tol"] = audit_over
        metrics.update(layer)

    return {"environment": environment(args, len(wl.tasks)),
            "correct": not unexpected, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "unexpected": unexpected,
            "known_defects": {t.name: t.known_defect for t in wl.tasks if t.known_defect},
            "setup": {"raw_import_s": imports, "import_factor": import_factor,
                      "config_and_warmup_s": setups,
                      "raw_config_and_warmup_s": raw_setups},
            "speed_probe": probe_summary(probe),
            "latency_quantiles_s": quantile_table(latencies) if latencies else {},
            "tasks": [{"name": t.name, "oracle_ok": v[0], "oracle": v[1],
                       "latency_s": [p["latency_s"][i] for p in passes],
                       "raw_latency_s": [p["raw_latency_s"][i] for p in passes]}
                      for i, (t, v) in enumerate(zip(wl.tasks, verdicts))],
            "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")}
                       for p in passes],
            "absent": tracer.absent if tracer is not None else [],
            "metrics": metrics}


def probe_summary(probe):
    return {"interval_s": speed.INTERVAL, "reference_s": speed.REFERENCE_S,
            "samples": len(probe.durations),
            "kernel_s": {"min": min(probe.durations),
                         "median": statistics.median(probe.durations),
                         "max": max(probe.durations)},
            "handler_total_s": sum(probe.durations)}


def traced_metrics(tracer, passes, dirs, unexpected):
    per_pass = []
    for k, p in enumerate(passes):
        if p["traced"]:
            per_pass.append(tracing.layer_metrics(tracer.select(f"pass:{k}:")))
    exact = [{**counts, **derived} for counts, derived, _ in per_pass]
    if any(e != exact[0] for e in exact[1:]):
        unexpected.append("traced counters differ between traced passes")
    out = dict(exact[0])
    for name in per_pass[0][2]:
        out[name] = statistics.median(times[name] for _, _, times in per_pass)

    parse = [sum(s[4] for s in tracer.select(f"setup:{r}:") if s[1] == "config.parse_config")
             for r in range(SETUP_REPEATS)]
    out["config.parse_config.self_s"] = statistics.median(parse)

    files = bytes_written = 0
    for d in dirs:
        for f in Path(d).iterdir():
            files += 1
            bytes_written += f.stat().st_size
    out["runner.files_written"] = files
    out["runner.bytes_written"] = bytes_written

    traced = [p["wall_s"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def report(args, record, metrics):
    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['passes'])} passes x {env['tasks_per_pass']} tasks")
    print("environment " + json.dumps(env, sort_keys=True))
    for task in record["tasks"]:
        mark = "ok " if task["oracle_ok"] else "BAD"
        print(f"  {mark} {task['name']:<34} {task['oracle']}")
    for name, why in record["known_defects"].items():
        print(f"  known defect, counted as failed: {name}: {why}")
    for line in record["unexpected"]:
        print(f"  FAILED {line}")
    q = record["latency_quantiles_s"]
    if q:
        extra = f", p90 {1e3 * q['p90']:.1f} ms" if "p90" in q else ""
        print(f"  task latency over {q['n']} untraced task runs: p50 {1e3 * q['p50']:.1f} ms{extra}")
    print(f"  failed_frac {record['failed']}/{record['attempted']} = {record['failed_frac']:.4f}")
    plain = [p for p in record["passes"] if not p["traced"]]
    if plain:
        probe = record["speed_probe"]
        print(f"  unscaled pass: wall {statistics.median(p['raw_wall_s'] for p in plain):.4g} s, "
              f"cpu {statistics.median(p['raw_cpu_s'] for p in plain):.4g} s; speed probe "
              f"{probe['samples']} samples, kernel median {1e3 * probe['kernel_s']['median']:.4g} ms "
              f"against {1e3 * probe['reference_s']:.4g} ms")
    for name, m in metrics.items():
        prefix = next((k for k in sorted(LAYER_TARGETS, key=len, reverse=True)
                       if name.startswith(k)), None)
        moves, where = LAYER_TARGETS.get(prefix, ("", "")) if args.trace else ("", "")
        absent = " (absent)" if any(name.startswith(a + ".") for a in record["absent"]) else ""
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']:<12} {moves:<22} {where}{absent}")


if __name__ == "__main__":
    main()
