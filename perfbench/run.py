"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload eval_cold --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads:

* ``eval_cold`` - a seeded stream of candidates, each evaluated cold on
  ``xsim``, ``compiled`` and ``block`` (fresh ``ArtifactCache`` each);
* ``sim_long``  - cold evaluations of ~1.1e5-cycle kernels on each backend;
* ``explore``   - greedy ``Explorer.explore`` sweeps from SPAM, RISC16 and
  SPAM2 in the default process-pool mode;
* ``serve``     - an open loop of HTTP submissions to ``repro-serve serve``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` repeats a fixed slice of the workload untraced and
then with every layer's public entry points wrapped, and reports the
per-layer metrics.  Correctness is checked outside the timed window in
both modes.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("eval_cold", "sim_long", "explore", "serve")
#: a run that has not finished by then is stopped and fails
DEADLINE_S = 170
#: the seed the correctness digests are pinned for, and one kept out of
#: tuning for confirming later claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
}

_BACKENDS = ("xsim", "compiled", "block")
PER_LAYER = {
    "host.cpu_count": "count",
    "host.python_version": "version",
    "failed_frac": "share",
    "trace.overhead_frac": "share",
    "unattributed_frac": "share",
    "op_count": "count",
    "isdl.fingerprint_ms": "ms",
    "isdl.parse_ms": "ms",
    "codegen.compile_ms": "ms",
    "asm.assemble_ms": "ms",
    "encoding.sigtable_ms": "ms",
    "encoding.matches_calls": "count",
    "gensim.disassembler_builds": "count",
    "gensim.build_ms": "ms",
    "gensim.load_ms": "ms",
    "gensim.block_compile_ms": "ms",
    **{f"gensim.run_ms.{b}": "ms" for b in _BACKENDS},
    **{f"gensim.ns_per_cycle.{b}": "ns" for b in _BACKENDS},
    "gensim.sim_cycles": "count",
    "gensim.instructions": "count",
    "analyze.check_ms": "ms",
    "analyze.dataflow_ms": "ms",
    "analyze.proof_check_ms": "ms",
    "hgen.synth_ms": "ms",
    "hgen.power_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.hit_rate": "share",
    "cache.evictions": "count",
    **{f"cache.units_reused.{k}": "count"
       for k in ("sigtable", "fastcore", "sim", "synth")},
    **{f"eval.unattributed_frac.{b}": "share" for b in _BACKENDS},
    **{f"eval_ms_p50.{b}": "ms" for b in _BACKENDS},
    "eval_ms_p90": "ms",
    **{f"sim_mcps.{b}": "Mcycles/s" for b in _BACKENDS},
    "explore.batch_ms": "ms",
    "explore.propose_ms": "ms",
    "explore.evaluations": "count",
    "explore.infeasible": "count",
    "explore.static_rejects": "count",
    "explore_s": "s",
    "serve.admit_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.coalesced_frac": "share",
    "serve.warm_frac": "share",
    "serve.refused": "count",
    "serve.gen_late_ms": "ms",
    "job_ms_p50": "ms",
    "job_ms_p95": "ms",
    "serve_max_rate": "jobs/s",
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, the one"
                             f" the digests are pinned for; seed"
                             f" {HELD_OUT_SEED} is held out for confirming"
                             f" claims)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time, exit")
    parser.add_argument("--pin", action="store_true",
                        help="write this run's output digests to"
                             " golden.json (default seed only)")
    return parser.parse_args(argv)


def make_workload(name: str):
    if name in ("eval_cold", "sim_long"):
        from wl_eval import EvalWorkload

        return EvalWorkload(name, long=name == "sim_long")
    if name == "explore":
        from wl_explore import ExploreWorkload

        return ExploreWorkload()
    from wl_serve import ServeWorkload

    return ServeWorkload()


def probe_setup(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def passes_of(result):
    """Every list of operations a run produced, for the checks."""
    if isinstance(result, dict):
        return [result["untraced"]] + list(result["passes"])
    return [result]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the root of a source checkout"
              " (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import common

    # host-speed samples on both sides of set-up convert it to
    # reference-host seconds; their own time is not set-up time
    speed = common.Speedometer()
    began = time.perf_counter()
    speed.tick(5)
    calibrating = time.perf_counter() - began
    workload = make_workload(args.workload)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        workload.setup(args.seed, args.seconds)
        own_setup = time.perf_counter() - START - calibrating
        speed.tick(5)
        own_setup *= speed.median_factor()
        if args.setup_probe:
            workload.close()
            print(json.dumps({"setup_s": own_setup}))
            return 0
        try:
            if args.trace:
                from layers import Recorder, install

                recorder = Recorder()
                install(recorder)
                result = workload.traced(args.seconds, recorder)
            else:
                result = workload.measure(args.seconds)
        finally:
            workload.close()
        # before the checks: the serve references are checking memory
        peak_mb = common.self_peak_mb() + getattr(
            workload, "peak_children_mb", 0.0)
        setups = ([own_setup] + [probe_setup(args) for _ in range(2)]
                  if not args.trace else [own_setup])
        report = assess(args, workload, result, common)
    finally:
        signal.alarm(0)
    metrics = {}
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(report["per_layer"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(report["end_to_end"])
        values["setup_s"] = common.median(setups)
        values["peak_rss_mb"] = peak_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print_report(args, workload, report, metrics, common)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


def assess(args, workload, result, common):
    """Correctness checks, self-test and the metrics of one run."""
    golden = None
    if args.seed == DEFAULT_SEED and not args.pin:
        golden = common.load_golden().get(args.workload)
    problems = []
    failed = {}
    attempted = 0
    lists = passes_of(result)
    for n, ops in enumerate(lists):
        attempted += workload.attempted(ops)
        for key, reason in workload.check(ops, golden).items():
            failed[f"pass{n}/{key}"] = reason
    complaint = workload.self_test(lists[0])
    if complaint:
        problems.append(f"self-test: {complaint}")
    if args.pin and args.seed == DEFAULT_SEED:
        common.save_golden(args.workload, workload.digests(lists[0]))
    report = {"failed_ops": failed, "problems": problems,
              "attempted": max(1, attempted), "failed": len(failed)}
    if args.trace:
        first = lists[1]
        again = lists[2] if len(lists) > 2 else lists[0]
        counts = workload.exact_counts(first)
        repeat = workload.exact_counts(again)
        if counts != repeat:
            problems.append(f"exact counts differ between passes: {counts}"
                            f" != {repeat}")
        per_layer = workload.trace_metrics(result)
        per_layer.update(counts)
        host = common.host_record()
        major, minor = host["python"].split(".")[:2]
        per_layer.update({
            "host.cpu_count": host["cpu_count"],
            "host.python_version": int(major) + int(minor) / 100.0,
            "failed_frac": common.share(len(failed), attempted),
        })
        report["per_layer"] = per_layer
    else:
        report["end_to_end"] = workload.end_to_end(result)
        workload.speed.enabled = False
        report["raw"] = workload.end_to_end(result)
        workload.speed.enabled = True
    report["correct"] = not failed and not problems
    return report


def print_report(args, workload, report, metrics, common) -> None:
    host = common.host_record()
    print(f"perfbench {args.workload} seed={args.seed}"
          f" seconds={args.seconds} trace={args.trace}"
          f" host: {host['cpu_count']} CPUs, Python {host['python']},"
          f" {host['machine']}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    if args.trace:
        wall = workload.layer_wall_s
        print(f"  layer attribution over {wall:.3f} s of traced work"
              " (self time; pool workers and the daemon included):")
        for row in common.layer_rows(workload.layer_self_s, wall):
            print(f"    {row['layer']:12s} {row['ms']:12.1f} ms"
                  f" {row['share'] * 100:6.1f} %")
        for backend in ("xsim", "compiled", "block"):
            value = report["per_layer"].get(
                f"eval.unattributed_frac.{backend}")
            if value:
                print(f"    unattributed.{backend:8s} {value * 100:6.1f} %"
                      " of evaluate() time")
        overhead = report["per_layer"]["trace.overhead_frac"]
        print(f"    trace overhead {overhead * 100:.1f} %")
    stream = getattr(workload, "stream", None)
    if stream is not None:
        print(f"  mutants skipped: {stream.skipped['toolchain']} not"
              f" measurable by the tool chain, {stream.skipped['data_memory']}"
              " with a data memory smaller than the kernels' data")
    for name, value in report.get("raw", {}).items():
        print(f"  {name + ' (raw host ms)':34s} {value:14.4f} ms")
    for key, reason in list(report["failed_ops"].items())[:10]:
        print(f"  FAILED {key}: {reason}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  attempted={report['attempted']} failed={report['failed']}"
          f" correct={report['correct']}")


if __name__ == "__main__":
    sys.exit(main())
