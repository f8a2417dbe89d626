"""Real-compute search benchmark: end-to-end metrics and a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload prune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

One run repeats the workload's search, each repetition in a fresh
interpreter (``rep.py``), until ``--seconds`` of repetitions have run, and
reports medians over them.  ``--trace 0`` times the untraced searches and
prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced repetitions and prints its per-layer
metrics; the traced minus the untraced search time is the tracing
overhead.  The last line of standard output is the JSON result; the full
record, with a host stamp, goes to ``perfbench/results/``.

The search configuration is fixed, so every run does the same work and
returns the same architecture.  ``--seed`` sets the ``PYTHONHASHSEED`` of
every repetition instead: the output checks then also prove that the
result does not depend on the interpreter's hash randomisation.

A repetition fails if it raises, if one of ``rep.py``'s output checks
fails, or if its architecture differs from the run's first one.  Failures
count against repetitions attempted.
"""

import argparse
import hashlib
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = {0: 3, 1: 2}
#: Start no repetition once this much of the 180 s run limit has passed,
#: and kill any process still running at ``LIMIT_S``.
BUDGET_S = 140.0
LIMIT_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def src_digest(root):
    """SHA-256 over the package sources (the checkout need not be git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_rep(root, work, workload, mode, tag, kill_at, store=None, hash_seed=0):
    """One ``rep.py`` process; returns its record (failures on error)."""
    out = os.path.join(work, f"{tag}.json")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
           workload, "--mode", mode, "--out", out]
    if store:
        cmd += ["--store", store]
    if mode == "traced":
        flush = os.path.join(work, f"{tag}-flush")
        os.makedirs(flush)
        cmd += ["--flush-dir", flush]
    log_path = os.path.join(work, f"{tag}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(0.0, kill_at - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            # The new process group holds the repetition's pool workers too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code == 0 and mode == "fill":
        return {"failures": []}
    if code == 0 and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    return {"failures": [f"{mode} process ended with {code}:\n{tail}"]}


def warm_store(root, work, workload, digest, kill_at):
    """The workload's filled store, built once per source tree.

    The fill runs in its own process, outside the timed ones: their peak
    RSS and child CPU time are process-lifetime values.  The store is kept
    under ``.work`` keyed by the source digest and the workload config, so
    later runs on the same code skip the fill; it is renamed into place
    only when complete.
    """
    key = hashlib.sha256(
        (digest + repr(WORKLOADS[workload])).encode()).hexdigest()[:16]
    store = os.path.join(HERE, ".work", f"warm-{workload}-{key}")
    if not os.path.isdir(store):
        partial = os.path.join(work, "warm-store")
        filled = run_rep(root, work, workload, "fill", "fill", kill_at, partial)
        if filled["failures"]:
            raise BenchError(filled["failures"][0])
        try:
            os.rename(partial, store)
        except OSError:
            if not os.path.isdir(store):
                raise
    return store


def run_workload(root, workload, seed, seconds, trace, spec, digest):
    """Repetitions of one workload -> (result, repetition records)."""
    start = time.monotonic()
    kill_at = start + LIMIT_S
    work = os.path.join(HERE, ".work", f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        store = None
        if WORKLOADS[workload]["store"] == "warm":
            store = warm_store(root, work, workload, digest, kill_at)
        reps = []
        started = time.monotonic()  # the fill is not measuring time
        while True:
            index = len(reps)
            mode = "traced" if trace and index % 2 else "timed"
            rep_store = store
            if WORKLOADS[workload]["store"] == "fresh":
                rep_store = os.path.join(work, f"store-{index}")
            begun = time.monotonic()
            record = run_rep(root, work, workload, mode, f"rep-{index}", kill_at,
                             rep_store, hash_seed=(seed * 7919 + index) % 2**32)
            reps.append(dict(record, mode=mode))
            now = time.monotonic()
            whole = not trace or len(reps) % 2 == 0
            if whole and len(reps) >= MIN_REPS[trace] and now - started >= seconds:
                break
            # Stop early rather than start what cannot end in time.
            if whole and now + (now - begun) * (1 + trace) > start + BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarise(workload, trace, spec, reps)


def summarise(workload, trace, spec, reps):
    first = next((r for r in reps if "arch_index" in r), {})
    failed = 0
    for rep in reps:
        problems = rep["failures"]  # extended in place: marks the rep failed
        for key in ("arch_index", "arch_acc", "arch_latency_ms"):
            if key in rep and rep[key] != first[key]:
                problems.append(f"{key} {rep[key]!r} differs from the run's "
                                f"first repetition ({first[key]!r})")
        if problems:
            failed += 1
            print(f"[{workload}] repetition failed:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
    good = [r for r in reps if not r["failures"]]
    timed = [r for r in good if r["mode"] == "timed"]
    traced = [r for r in good if r["mode"] == "traced"]
    if not timed or (trace and not traced):
        raise BenchError(f"{workload}: no repetition succeeded")
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "trace.overhead_s":
                value = (statistics.median(r["search_s"] for r in traced)
                         - statistics.median(r["search_s"] for r in timed))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            value = statistics.median(r[name] for r in timed)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    return result, reps


def print_table(workload, result, reps):
    traced = [r["search_s"] for r in reps if r["mode"] == "traced" and not r["failures"]]
    search_s = statistics.median(traced) if traced else None
    note = " (self times sum the search process and its workers)" if search_s else ""
    print(f"== {workload}: {result['attempted']} repetitions, "
          f"{result['failed']} failed{note}")
    for name, metric in result["metrics"].items():
        line = f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}"
        if search_s and name.endswith(".self_s"):
            line += f"   {100.0 * metric['value'] / search_s:6.1f}% of search_s"
        print(line)


def split_checks(results):
    """The per-layer split each workload was chosen for, as printed lines."""
    lines = []

    def value(workload, name):
        return results[workload][0]["metrics"][name]["value"]

    def traced_search_s(workload):
        return statistics.median(r["search_s"] for r in results[workload][1]
                                 if r["mode"] == "traced" and not r["failures"])

    compute = ("nn.forward.ntk", "nn.forward.lr", "autograd.backward",
               "engine.jacobian")
    for workload in ("prune", "random-paper"):
        if workload in results:
            # Worker self times add up across processes, so the share is
            # of the process-seconds the search had.
            workers = WORKLOADS[workload]["config"]["n_workers"]
            share = sum(value(workload, f"{n}.self_s") for n in compute) \
                / (workers * traced_search_s(workload))
            sort_calls = value(workload, "search.pareto_sort.calls")
            lines.append(f"{workload}: nn+autograd+engine.jacobian = "
                         f"{100 * share:.1f}% of {workers} x search_s (want >= 60%), "
                         f"pareto_sort calls = {sort_calls:g} (want 0)")
    if "matrix-warm" in results:
        names = compute + ("proxies.gram", "proxies.ntk", "proxies.line_regions")
        calls = {n: value("matrix-warm", f"{n}.calls") for n in names}
        selfs = {k[:-len(".self_s")]: v["value"] for k, v in
                 results["matrix-warm"][0]["metrics"].items() if k.endswith(".self_s")}
        lines.append(f"matrix-warm: compute-layer calls = {sum(calls.values()):g} "
                     f"(want 0), largest self time = {max(selfs, key=selfs.get)} "
                     f"(want search.pareto_sort)")
    supernet = {w: int(value(w, "searchspace.build_supernet.calls")) for w in results}
    lines.append(f"build_supernet calls by workload: {supernet} (want prune only)")
    for workload in results:
        lines.append(f"{workload}: trace.coverage = "
                     f"{100 * value(workload, 'trace.coverage'):.1f}% (want >= 95%)")
    return lines


def save(workload, seed, seconds, trace, host, reps, result):
    """The run's full record, under ``perfbench/results/``."""
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "host": host, "repetitions": reps,
                   "result": result}, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "runtime", "harness.py")):
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    host = {"git_sha": git_sha(root), "src_sha256": src_digest(root)}

    print("host: " + json.dumps(host, sort_keys=True))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    traced = {}
    for workload in workloads:
        for trace in traces:
            result, reps = run_workload(root, workload, args.seed, seconds, trace,
                                        spec, host["src_sha256"])
            print_table(f"{workload} (trace {trace})", result, reps)
            save(workload, args.seed, seconds, trace, dict(host, **reps[0].get("host", {})),
                 reps, result)
            if trace:
                traced[workload] = (result, reps)
    if args.workload == "all":
        print("== split checks")
        for line in split_checks(traced):
            print("  " + line)
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
