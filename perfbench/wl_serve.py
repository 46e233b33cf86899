"""``serve``: an open loop of HTTP submissions against the ``repro-serve``
daemon, started in its own process.

Submissions are due at a fixed rate, whatever the daemon does; each job
is timed from when it was due to its ``finished_at``.  A fixed 20-slot
pattern mixes cold jobs, exact-warm repeats, duplicates sent right
behind their twin (they coalesce in flight) and invalid ISDL that the
admission gate must reject; the seed picks the candidates and the
repeats, never the mix.  The shares (11 cold, 2 duplicates, 6 warm, 1
invalid) are a choice, not a measured traffic mix: every job class gets
enough samples in a run for its median.  A pass is cut into segments of
whole periods, drained one by one, so the host-speed samples can be
taken while the daemon is idle.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import ArtifactCache
from repro.codegen.kernels import parse_kernel_spec, resolve_kernels
from repro.explore import CostWeights, evaluate
from repro.isdl import load_string, print_description

import common
import inputs
from wl_eval import layer_metrics

#: offered load of the measured runs, submission ticks per second: about
#: 60 % of the highest rate the daemon kept up with on a 2-CPU x86_64 host
#: (12-14/s with 8 s steps), below the knee where latency starts to climb
RATE = 8.0
#: the latency limit the rate ladder holds p95 to, and its rates
LATENCY_LIMIT_MS = 500.0
LADDER = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 32.0)
LADDER_STEP_S = 4.0
#: one period of the submission mix; "dup" goes out in the same tick as
#: the cold job before it
PATTERN = ("cold", "dup", "cold", "warm", "cold", "warm", "cold", "cold",
           "warm", "invalid", "cold", "dup", "cold", "warm", "cold", "warm",
           "cold", "cold", "warm", "cold")
#: submission ticks in one period ("dup" shares its twin's tick)
TICKS = len(PATTERN) - PATTERN.count("dup")
#: a measured pass drains the daemon about this often (seconds) ...
SEGMENT_S = 2.0
#: ... and takes this many host-speed samples each time it is idle
CALIBRATION = 10
#: distinct candidate descriptions behind the cold jobs
POOL = 10
#: a warm repeat picks a payload at least this many slots old
WARM_AGE = 8
TERMINAL = ("succeeded", "failed", "cancelled", "rejected")

OUT_DIR = ".perfbench_out"


@dataclass
class Submission:
    seq: int
    kind: str
    payload_id: int  # -1 for invalid ISDL
    due: float  # wall clock (time.time()), comparable to job records
    late_s: float = 0.0
    status: int = 0
    job_id: str = ""
    record: Optional[Dict[str, object]] = None
    error: str = ""
    #: turns this submission's times into reference-host time
    factor: float = 1.0


class Daemon:
    """One ``repro-serve serve`` process on a free local port."""

    def __init__(self, workers: int, layers_out: Optional[str] = None):
        os.makedirs(OUT_DIR, exist_ok=True)
        env = dict(os.environ)
        env.pop("PERFBENCH_LAYERS_OUT", None)
        if layers_out:
            env["PERFBENCH_LAYERS_OUT"] = layers_out
        self.layers_out = layers_out
        self.log = open(os.path.join(OUT_DIR, "serve.log"),
                        "ab")
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "serve_daemon.py"), "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
            preexec_fn=_die_with_parent)
        try:
            line = self._first_line(timeout=60.0)
            url = line.split("listening on ", 1)[1].split()[0]
            host_port = url.split("://", 1)[1]
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _first_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro-serve did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro-serve closed its output")
                buffered += chunk
        return buffered.split(b"\n", 1)[0].decode("utf-8", "replace")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                conn = self.connect()
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro-serve /healthz never answered")
            time.sleep(0.02)

    def forget(self) -> None:
        """Have a traced daemon drop what it has recorded so far."""
        if not self.layers_out:
            return
        marker = self.layers_out + ".reset"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(marker):
            if time.monotonic() > deadline:
                raise RuntimeError("repro-serve did not reset its layers")
            time.sleep(0.01)
        os.remove(marker)

    def peak_mb(self) -> float:
        return common.process_peak_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain and stop the daemon; waits for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def _die_with_parent() -> None:
    """Have the kernel stop the daemon if this process dies first (Linux
    ``PR_SET_PDEATHSIG``), so a killed run leaves no daemon behind."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[Dict[str, object]] = None
             ) -> Tuple[int, Dict[str, object]]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:
        payload = {"error": raw[:200].decode("utf-8", "replace")}
    return response.status, payload


class ServeWorkload:
    name = "serve"

    def setup(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.workers = common.nproc()
        self.stream = inputs.CandidateStream(seed, inputs.SHORT_KERNELS)
        self.pool = [self.stream.get(j) for j in range(POOL)]
        self.texts = [print_description(c.desc) for c in self.pool]
        rng = random.Random(seed * 7919 + 1)
        lines = self.texts[0].splitlines()
        cut = rng.randrange(1, len(lines))
        self.invalid_text = "\n".join(lines[:cut] + ["@@"] + lines[cut:])
        # warm-up jobs use descriptions outside the pool, one per backend
        self.warm_payloads = []
        index = POOL
        while len(self.warm_payloads) < len(inputs.BACKENDS):
            candidate = self.stream.get(index)
            text = print_description(candidate.desc)
            if text not in self.texts and all(
                    text != p["isdl"] for p in self.warm_payloads):
                backend = inputs.BACKENDS[len(self.warm_payloads)]
                self.warm_payloads.append({
                    "isdl": text, "workloads": list(candidate.specs),
                    "backend": backend, "label": f"warm-up-{backend}"})
            index += 1
        self.references: Dict[int, Dict[str, object]] = {}
        self.reference_cache = ArtifactCache()
        self.peak_children_mb = 0.0
        self.daemon = self.start_daemon()

    def start_daemon(self, layers_out: Optional[str] = None) -> Daemon:
        """A daemon that has run one job per backend, so its one-time lazy
        initialisation is not measured."""
        daemon = Daemon(self.workers, layers_out=layers_out)
        try:
            conn = daemon.connect()
            try:
                jobs = []
                for n, body in enumerate(self.warm_payloads):
                    status, answer = _request(conn, "POST", "/v1/jobs", body)
                    jobs.append(Submission(n, "warm-up", -1, 0.0,
                                           status=status,
                                           job_id=str(answer.get("id", ""))))
                conn = self._collect(conn, daemon, jobs,
                                     deadline=time.monotonic() + 60)
            finally:
                conn.close()
            bad = failures(jobs)
            if bad:
                raise RuntimeError(f"warm-up job failed: {bad}")
            daemon.forget()
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def close(self) -> None:
        if self.daemon is not None:
            self.peak_children_mb = max(self.peak_children_mb,
                                        self.daemon.peak_mb())
            self.daemon.stop()
            self.daemon = None

    # -- the submission schedule ---------------------------------------------

    def payload(self, payload_id: int) -> Dict[str, object]:
        """The cold payload sequence: every pool description on xsim, then
        compiled, then block, then again with larger kernels."""
        candidate = self.pool[payload_id % POOL]
        backend = inputs.BACKENDS[(payload_id // POOL) % 3]
        grow = payload_id // (3 * POOL)
        specs = []
        for spec in candidate.specs:
            name, size = parse_kernel_spec(spec)
            specs.append(f"{name}:{size + grow}")
        return {"isdl": self.texts[payload_id % POOL], "workloads": specs,
                "backend": backend, "label": f"p{payload_id}"}

    def schedule(self, count: int, rate: float,
                 first_payload: int = 0) -> List[Submission]:
        """*count* submissions due from 0 s at *rate* ticks per second."""
        rng = random.Random(self.seed * 104729 + first_payload)
        out: List[Submission] = []
        cold: List[int] = []
        tick = 0
        for seq in range(count):
            kind = PATTERN[seq % len(PATTERN)]
            if kind != "dup" or not cold:
                tick += 1
            due = (tick - 1) / rate
            if kind == "cold" or (kind == "dup" and not cold):
                payload_id = first_payload + len(cold)
                cold.append(payload_id)
                kind = "cold"
            elif kind == "dup":
                payload_id = cold[-1]
            elif kind == "warm":
                if not cold:
                    cold.append(first_payload)
                eligible = cold[:max(1, len(cold) - WARM_AGE // 2)]
                payload_id = (rng.choice(eligible[:3]) if rng.random() < 0.7
                              else rng.choice(eligible))
            else:
                payload_id = -1
            out.append(Submission(seq, kind, payload_id, due))
        return out

    # -- one open-loop pass ------------------------------------------------

    def run_pass(self, daemon: Daemon, seconds: float, rate: float,
                 first_payload: int = 0,
                 segment_s: Optional[float] = SEGMENT_S) -> List[Submission]:
        """Submit about *seconds* x *rate* jobs in segments of whole
        pattern periods of about *segment_s* (None: one segment).  Each
        segment is drained before the next starts, and host-speed samples
        are taken only then, while the daemon is idle, so the load it puts
        on the host cannot slow the samples and be divided out of the
        latencies."""
        periods = max(1, round(seconds * rate / TICKS))
        plan = self.schedule(periods * len(PATTERN), rate, first_payload)
        per_segment = len(plan) if segment_s is None else len(PATTERN) * max(
            1, round(segment_s * rate / TICKS))
        speed = self.speed = common.Speedometer(window=2 * CALIBRATION,
                                                clock=time.time)
        conn = daemon.connect()
        try:
            speed.tick(CALIBRATION)
            for lo in range(0, len(plan), per_segment):
                segment = plan[lo:lo + per_segment]
                shift = time.time() + 0.05 - segment[0].due
                for sub in segment:
                    sub.due += shift
                for sub in segment:
                    conn = self._submit(conn, daemon, sub)
                conn = self._collect(conn, daemon, segment,
                                     deadline=time.monotonic() + 60)
                speed.tick(CALIBRATION)
        finally:
            conn.close()
        for sub in plan:
            sub.factor = speed.factor(sub.due)
        return plan

    def _submit(self, conn, daemon: Daemon, sub: Submission):
        pause = sub.due - time.time()
        if pause > 0:
            time.sleep(pause)
        sub.late_s = max(0.0, time.time() - sub.due)
        body = (self.payload(sub.payload_id) if sub.payload_id >= 0
                else {"isdl": self.invalid_text,
                      "workloads": list(self.pool[0].specs),
                      "label": "invalid"})
        try:
            sub.status, answer = _request(conn, "POST", "/v1/jobs", body)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            sub.error = f"submit: {exc}"
            return daemon.connect()
        sub.job_id = str(answer.get("id", ""))
        if sub.status == 422:
            sub.record = answer
        return conn

    def _collect(self, conn, daemon: Daemon, plan: List[Submission],
                 deadline: float):
        waiting = [s for s in plan if s.status == 202 and s.job_id]
        while waiting and time.monotonic() < deadline:
            still = []
            for sub in waiting:
                try:
                    status, record = _request(conn, "GET",
                                              f"/v1/jobs/{sub.job_id}")
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = daemon.connect()
                    still.append(sub)
                    continue
                if status == 200 and record.get("state") in TERMINAL:
                    sub.record = record
                else:
                    still.append(sub)
            waiting = still
            if waiting:
                time.sleep(0.05)
        for sub in waiting:
            sub.error = "no terminal state before the deadline"
        return conn

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> List[Submission]:
        return self.run_pass(self.daemon, seconds, RATE)

    def traced(self, seconds: float, rec) -> Dict[str, object]:
        """An untraced and a traced pass on fresh daemons, then the rate
        ladder on a third."""
        share = seconds / 2.0
        untraced = self.run_pass(self.daemon, share, RATE)
        self.close()
        layers_out = os.path.join(OUT_DIR, f"layers-{os.getpid()}.json")
        daemon = self.start_daemon(layers_out)
        began = time.perf_counter()
        try:
            traced = self.run_pass(daemon, share, RATE)
            wall = time.perf_counter() - began
        finally:
            self.peak_children_mb = max(self.peak_children_mb,
                                        daemon.peak_mb())
            daemon.stop()
        with open(layers_out, encoding="utf-8") as handle:
            daemon_side = json.load(handle)
        os.remove(layers_out)
        ladder = self.ladder()
        return {"untraced": untraced, "passes": [traced],
                "daemon": daemon_side, "ladder": ladder, "wall_s": wall}

    def ladder(self) -> Dict[float, Dict[str, float]]:
        """Step through LADDER, each rate for LADDER_STEP_S without a
        drain, until p95 breaks the limit or the backlog grows (jobs
        still unfinished a second after the step)."""
        daemon = self.start_daemon()
        steps: Dict[float, Dict[str, float]] = {}
        first = 0
        try:
            for rate in LADDER:
                plan = self.run_pass(daemon, LADDER_STEP_S, rate, first,
                                     segment_s=None)
                first += sum(1 for s in plan if s.kind == "cold")
                ms = job_ms(plan)
                last_due = max(s.due for s in plan)
                backlog = sum(1 for s in plan if s.record is not None
                              and s.record.get("finished_at")
                              and s.record["finished_at"] > last_due + 1.0)
                ok = (bool(ms) and not failures(plan)
                      and common.percentile(ms, 95) <= LATENCY_LIMIT_MS
                      and backlog == 0)
                steps[rate] = {"p95_ms": common.percentile(ms, 95),
                               "backlog": backlog, "ok": ok}
                if not ok:
                    break
        finally:
            self.peak_children_mb = max(self.peak_children_mb,
                                        daemon.peak_mb())
            daemon.stop()
        return steps

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, plan: List[Submission]) -> Dict[str, float]:
        return {"op_ms_p50": op_ms(plan, self.speed.enabled)}

    def trace_metrics(self, traced: Dict[str, object]) -> Dict[str, float]:
        plan: List[Submission] = traced["passes"][0]
        done = [s for s in plan if s.status == 202 and s.record]
        totals = traced["daemon"]["layers"]
        metrics = layer_metrics(totals, len(done))
        metrics.update(common.cache_metrics(traced["daemon"]["cache"]))
        for backend in inputs.BACKENDS:
            run_s = totals["self_s"].get("gensim.run." + backend, 0.0)
            metrics[f"gensim.run_ms.{backend}"] = \
                run_s * 1000.0 / max(1, len(done))
        ms = job_ms(plan)
        metrics["job_ms_p50"] = common.median(ms)
        metrics["job_ms_p95"] = common.percentile(ms, 95)
        metrics["trace.overhead_frac"] = common.share(
            op_ms(plan, True), op_ms(traced["untraced"], True)) - 1.0
        records = [s.record for s in done]
        metrics["serve.admit_ms"] = common.median(
            [(r["created_at"] - s.due) * 1000.0 for s, r in
             zip(done, records)])
        metrics["serve.queue_ms"] = common.median(
            [(r["started_at"] - r["created_at"]) * 1000.0 for r in records
             if r.get("started_at") and not r.get("coalesced_with")])
        metrics["serve.run_ms"] = common.median(
            [(r["finished_at"] - r["started_at"]) * 1000.0 for r in records
             if r.get("started_at") and not r.get("coalesced_with")])
        metrics["serve.coalesced_frac"] = common.share(
            sum(1 for r in records if r.get("coalesced_with")), len(done))
        metrics["serve.warm_frac"] = common.share(
            sum(1 for r in records if r.get("cached")), len(done))
        metrics["serve.refused"] = sum(1 for s in plan if s.status == 429)
        metrics["serve.gen_late_ms"] = common.percentile(
            [s.late_s * 1000.0 for s in plan], 95)
        passing = [rate for rate, step in traced["ladder"].items()
                   if step["ok"]]
        metrics["serve_max_rate"] = max(passing, default=0.0)
        metrics["op_count"] = len(done)
        # the daemon measures through ParallelEvaluator.evaluate_many; the
        # share of it no wrapped call covers (evaluate's own glue included)
        batch = totals["total_s"].get("explore.batch", 0.0)
        metrics["unattributed_frac"] = common.share(
            totals["self_s"].get("explore.batch", 0.0)
            + totals["self_s"].get("eval.pipeline", 0.0), batch)
        self.layer_self_s = totals["self_s"]
        self.layer_wall_s = traced["wall_s"]
        return metrics

    def exact_counts(self, plan: List[Submission]) -> Dict[str, float]:
        results = [s.record.get("result") or {} for s in plan
                   if s.status == 202 and s.record]
        return {
            "gensim.sim_cycles": sum(r.get("cycles", 0) for r in results),
            "serve.submissions": len(plan),
            "serve.rejected": sum(1 for s in plan if s.status == 422),
        }

    def attempted(self, plan: List[Submission]) -> int:
        return len(plan)

    # -- correctness -------------------------------------------------------

    def check(self, plan: List[Submission], golden=None) -> Dict[str, str]:
        failed = failures(plan)
        for sub in plan:
            if sub.kind == "invalid" or str(sub.seq) in failed:
                continue
            want = self.reference(sub.payload_id)
            mismatch = common.first_mismatch(sub.record.get("result") or {},
                                             want, tuple(want))
            if mismatch:
                failed[str(sub.seq)] = f"differs from evaluate(): {mismatch}"
        return failed

    def reference(self, payload_id: int) -> Dict[str, object]:
        """What an in-process ``evaluate()`` of the payload returns, in the
        service's wire form."""
        if payload_id in self.references:
            return self.references[payload_id]
        payload = self.payload(payload_id)
        weights = CostWeights()
        desc = load_string(payload["isdl"])
        # one cache for the references: descriptions shared by several
        # payloads build their tables and hardware model once
        evaluation = evaluate(desc, resolve_kernels(payload["workloads"]),
                              weights=weights, cache=self.reference_cache,
                              sim_backend=payload["backend"])
        if not evaluation.feasible:
            record = {"feasible": False, "reason": evaluation.reason}
        else:
            record = {
                "feasible": True,
                "cycles": evaluation.cycles,
                "stall_cycles": evaluation.stall_cycles,
                "cycle_ns": evaluation.cycle_ns,
                "runtime_us": evaluation.runtime_us,
                "die_size": evaluation.die_size,
                "power_mw": evaluation.power_mw,
                "cost": evaluation.cost(weights),
                "per_kernel_cycles": dict(evaluation.per_kernel_cycles),
                "fingerprint": evaluation.fingerprint,
            }
        self.references[payload_id] = record
        return record

    def self_test(self, plan: List[Submission]) -> Optional[str]:
        """Inject a refused submission and a job one cycle off; the check
        must count both."""
        failed = self.check(plan)
        done = [s for s in plan if s.kind != "invalid" and s.status == 202
                and (s.record or {}).get("result", {}).get("feasible")
                and str(s.seq) not in failed]
        if len(done) < 2:
            return None
        before = len(failed)
        refused = Submission(done[0].seq, done[0].kind, done[0].payload_id,
                             done[0].due, status=429)
        result = dict(done[1].record["result"])
        result["cycles"] += 1
        wrong = Submission(done[1].seq, done[1].kind, done[1].payload_id,
                           done[1].due, status=202, job_id=done[1].job_id,
                           record=dict(done[1].record, result=result))
        mutated = [refused if s is done[0] else wrong if s is done[1] else s
                   for s in plan]
        if len(self.check(mutated)) != before + 2:
            return "a refused submission or a wrong job was not counted"
        return None


def op_ms(plan: List[Submission], reference: bool) -> float:
    """The geometric mean of two medians: jobs that need an evaluation
    (cold ones and the duplicates that coalesce onto them) and exact-warm
    repeats, so each weighs the same whatever the mixture does to a
    pooled median."""
    kinds = [job_ms([s for s in plan if s.kind in kind], reference)
             for kind in (("cold", "dup"), ("warm",))]
    return common.gmean(common.median(ms) for ms in kinds)


def job_ms(plan: List[Submission], reference: bool = False) -> List[float]:
    """Due-to-finished latency of every accepted, finished job, in ms or
    in reference-host ms."""
    return [(s.record["finished_at"] - s.due) * 1000.0
            * (s.factor if reference else 1.0) for s in plan
            if s.status == 202 and s.record
            and s.record.get("finished_at")]


def failures(plan: List[Submission]) -> Dict[str, str]:
    """Submissions whose outcome is wrong: refused, lost, failed, or an
    admission verdict that does not match the input."""
    failed: Dict[str, str] = {}
    for sub in plan:
        key = str(sub.seq)
        if sub.error:
            failed[key] = sub.error
        elif sub.kind == "invalid":
            if sub.status != 422:
                failed[key] = f"invalid ISDL answered {sub.status}"
        elif sub.status == 429:
            failed[key] = "refused under backpressure"
        elif sub.status != 202:
            failed[key] = f"submission answered {sub.status}"
        elif (sub.record or {}).get("state") != "succeeded":
            failed[key] = f"job ended {(sub.record or {}).get('state')}"
    return failed
