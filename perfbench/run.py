"""The repository benchmark: wall and CPU time a user of ``repro`` waits.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json``):

* ``mom6-ddmin``: ``Mom6Case.small`` delta debugging on the compiled
  backend, serial, no cache or journal.  Narrow waves: the time is in
  compiled closure execution.
* ``mom6-wide-batched``: the same model, one 256-lane random-search wave
  on the batched backend.  The time is in the batched sweep.
* ``service-funarc``: ``repro serve`` as a child process and one client
  in a closed loop (one connection at a time) submitting 12 ``funarc``
  jobs over HTTP, waiting for each on its SSE stream and fetching
  ``result.json``.  Jobs come in tenant pairs with the same seed and a
  shared cache, so the second of each pair is served from the cache;
  pairs alternate ``dd`` and ``profile``; every job uses two workers
  and its own journal.

Each repetition (a mom6 campaign, or a service session of 12 jobs) runs
in fresh processes, so no warm code cache or parsed model carries over.
Repetitions repeat until ``--seconds`` have passed.  Every campaign's
result digest is checked against a tree-backend reference (see
``reference.py``); a mismatch, an error, a timeout or a variant
downgraded by an infrastructure failure counts as a failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics (see
``spans.py``).  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = reference.STATE

#: Set-up is timed at least this many times per run (median reported).
SETUP_SAMPLES = 5
#: Campaign repetitions per run, at least; more while time remains.
MIN_REPS = 3
#: Per-process deadlines (seconds): a run must end within 180 s.  The
#: slowest reference build, the first 256-lane wave on the tree
#: backend in a fresh checkout, takes about 90 s on 2 cores.
REP_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
REFERENCE_TIMEOUT = 300.0

END_TO_END = {
    "wall_s": "s", "variants_per_s": "1/s", "job_p50_s": "s",
    "job_p90_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}
SERVICE_PHASES = ("service.submit", "service.dispatch_wait",
                  "service.campaign", "service.result_tail")
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in spans.LAYERS},
    "compile.runs": "count", "compile.procs_lowered": "count",
    "compile.code_cache_hit_ratio": "ratio",
    "batch.waves": "count", "batch.lanes_per_wave": "count",
    "batch.vector_lane_ratio": "ratio",
    "numerics.profiles": "count", "perf.prices": "count",
    "search.wave_width_p50": "count", "search.wave_width_max": "count",
    "parallel.retries": "count", "cache.hit_ratio": "ratio",
    "journal.appends": "count", "obs.events": "count",
    "unattributed_s": "s", "traced_wall_s": "s",
    "tracing_overhead_frac": "frac", "failed_frac": "frac",
    "compile.exec_share": "frac", "batch.sweep_share": "frac",
    "service.profile_share": "frac",
}
#: The layer shares each traced run is predicted to show, checked and
#: reported on every traced run: (metric, comparison, value, claim).
PREDICTIONS = {
    "mom6-ddmin": [
        ("compile.exec_share", ">", 0.99,
         "more than 99% of the time is compiled closure execution"),
        ("batch.sweep_s", "==", 0.0, "batching does not run"),
    ],
    "mom6-wide-batched": [
        ("batch.sweep_share", ">", 0.9, "the batched sweep does almost "
                                        "all the work"),
        ("compile.runs", "==", 1.0, "the compiled backend runs only the "
                                    "baseline"),
    ],
    "service-funarc": [
        ("service.profile_share", ">", 0.5, "the shadow profile and the "
         "service round trip outweigh the engine work"),
        ("cache.hit_ratio", "==", 0.5, "the second job of every pair is "
                                       "served from the cache"),
        ("batch.sweep_s", "==", 0.0, "batching does not run"),
    ],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env(seed: int) -> dict:
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=workloads.hash_seed(seed),
               TMPDIR=str(tmp))
    return env


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The child's next stdout line, or BenchError at *deadline*."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"child {proc.args[1]} timed out")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"child {proc.args[1]} exited early "
                                 f"(code {proc.wait()})")
            return line.rstrip("\n")


def stop(proc: subprocess.Popen) -> None:
    """Kill *proc* if it still runs and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def ensure_references(workload: str, seed: int) -> dict[str, str]:
    needed = len(workloads.reference_inputs(workload, seed))
    digests = reference.known(workload, seed)
    if len(digests) < needed:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), workload, str(seed)],
            cwd=ROOT, env=child_env(seed), stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=REFERENCE_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop(proc)
        digests = reference.known(workload, seed)
        if code != 0 or len(digests) < needed:
            raise BenchError(f"tree-backend reference for {workload} seed "
                             f"{seed} failed (exit {code})")
    return digests


# ---------------------------------------------------------------------------
# mom6 workloads: one campaign per fresh process
# ---------------------------------------------------------------------------

def campaign_rep(workload: str, seed: int, go: bool, trace: bool) -> dict:
    """One repetition; ``setup`` is process start until READY."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed),
         "1" if trace else "0"],
        cwd=ROOT, env=child_env(seed), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        deadline = started + REP_TIMEOUT
        if read_line(proc, deadline) != "READY":
            raise BenchError("repetition child broke protocol")
        setup = time.monotonic() - started
        proc.stdin.write("go\n" if go else "stop\n")
        proc.stdin.flush()
        report = {"setup": setup}
        if go:
            line = read_line(proc, deadline)
            if not line.startswith("RESULT "):
                raise BenchError("repetition child broke protocol")
            report.update(json.loads(line[len("RESULT "):]))
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError(f"repetition child exited {proc.returncode}")
        return report
    finally:
        stop(proc)


def campaign_layers(report: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    trace = report["trace"]
    start, end = trace["window"]
    ids = spans.depths(trace["spans"], offset=1)
    intervals = [(name, s, e, ids[i]) for i, _, name, s, e in trace["spans"]]
    self_times, unattributed = spans.attribute(intervals, start, end)
    return layer_metrics(self_times, unattributed, end - start, trace)


def measure_campaigns(workload: str, seed: int, seconds: int, trace: bool,
                      digests: dict[str, str]) -> dict:
    expected = set(digests.values())
    needed = MIN_REPS * (2 if trace else 1)
    reps, setups = [], []
    attempted = failed = crashed = 0
    deadline = time.monotonic() + seconds
    while (len(reps) < needed or time.monotonic() < deadline) and crashed < 2:
        traced = trace and len(reps) % 2 == 1
        attempted += 1
        try:
            report = campaign_rep(workload, seed, go=True, trace=traced)
        except BenchError as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            failed += 1
            crashed += 1
            continue
        setups.append(report["setup"])
        if report["digest"] not in expected or report["failures"]:
            print(f"repetition output wrong: digest {report['digest'][:12]}, "
                  f"{report['failures']} downgraded variants",
                  file=sys.stderr)
            failed += 1
        report["traced"] = traced
        reps.append(report)
    while len(setups) < SETUP_SAMPLES:
        setups.append(campaign_rep(workload, seed, go=False,
                                   trace=False)["setup"])
    untraced = [r for r in reps if not r["traced"]]
    if not untraced or (trace and len(untraced) == len(reps)):
        raise BenchError("no repetition completed")
    walls = [r["wall"] for r in untraced]
    out = {
        "attempted": attempted, "failed": failed,
        "wall_s": walls,
        "variants_per_s": [r["records"] / r["wall"] for r in untraced],
        "latencies": walls,
        "setup_s": setups,
        "cpu_s": [r["cpu"] for r in untraced],
        "peak_rss_mb": [r["rss_mb"] for r in untraced],
    }
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        out["layers"] = average([campaign_layers(r) for r in traced_reps])
        out["untraced_work_wall"] = statistics.fmean(
            r["work_wall"] for r in untraced)
        out["spans"] = [
            {"rep": k, "process": "campaign", "spans": [
                (0, None, "rep", *r["trace"]["window"]),
                *((i, p or 0, *rest) for i, p, *rest in r["trace"]["spans"])]}
            for k, r in enumerate(traced_reps)]
    return out


# ---------------------------------------------------------------------------
# service-funarc: repro serve as a child process, one closed-loop client
# ---------------------------------------------------------------------------

def start_server(seed: int, state_dir: Path, dump: Path | None):
    """Start ``repro serve``; returns (process, port, seconds to ready)."""
    if dump is None:
        cmd = [sys.executable, "-m", "repro", "serve", str(state_dir)]
    else:
        cmd = [sys.executable, str(HERE / "serve.py"), str(dump),
               str(state_dir)]
    started = time.monotonic()
    log = open(state_dir.parent / "server.log", "a", encoding="utf-8")
    proc = subprocess.Popen(cmd + ["--port", "0"], cwd=ROOT,
                            env=child_env(seed), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=log, text=True)
    log.close()
    try:
        line = read_line(proc, started + REP_TIMEOUT)
    except BenchError:
        stop(proc)
        raise
    ready = time.monotonic() - started
    if not line.startswith("campaign service: http://"):
        stop(proc)
        raise BenchError(f"unexpected server banner {line!r}")
    port = int(line.split()[2].rsplit(":", 1)[1])
    return proc, port, ready


def _proc_cpu(pid: int) -> float:
    """CPU seconds of *pid* and its reaped children, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def shutdown_server(proc: subprocess.Popen, client) -> tuple[float, float]:
    """Shut the server down; (CPU seconds incl. children, peak RSS MB)."""
    from repro.errors import ServiceError
    try:
        client.shutdown()
    except ServiceError:
        pass
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
        time.sleep(0.02)
    stop(proc)
    raise BenchError("server did not shut down")


def run_job(client, spec, expected: str, root, recorder
            ) -> tuple[float, int, bool]:
    """Submit one job, follow it to the end; (latency, records, ok)."""
    from repro.errors import ServiceError
    marks = {}
    failures = records = 0
    outcome = None
    submitted = time.monotonic()
    try:
        job_id = client.submit(spec)["job_id"]
        marks["ack"] = time.monotonic()
        for frame in client.watch(job_id, timeout=JOB_TIMEOUT):
            event = frame["event"]
            marks.setdefault(event, time.monotonic())
            if event == "BatchCompleted":
                failures += frame["data"]["telemetry"]["failures"]
            elif event in ("JobFinished", "JobFailed"):
                outcome = event
                records = frame["data"].get("evaluations", 0)
        text = client.result_text(job_id) if outcome == "JobFinished" else ""
    except ServiceError as exc:
        print(f"job failed: {exc}", file=sys.stderr)
        return time.monotonic() - submitted, 0, False
    done = time.monotonic()
    ok = (outcome == "JobFinished" and failures == 0
          and hashlib.sha256(text.encode()).hexdigest() == expected)
    if not ok:
        print(f"job {job_id} wrong: {outcome}, {failures} downgraded "
              f"variants", file=sys.stderr)
    if recorder is not None:
        phases = zip(SERVICE_PHASES,
                     (submitted, marks.get("ack"), marks.get("CampaignStarted"),
                      marks.get("CampaignFinished")),
                     (marks.get("ack"), marks.get("JobStarted"),
                      marks.get("CampaignFinished"), done))
        for name, start, end in phases:
            if start is not None and end is not None:
                recorder.add_span(name, start, end, parent=root)
    return done - submitted, records, ok


def service_session(seed: int, job_set: int, workdir: Path,
                    digests: dict[str, str], trace: bool) -> dict:
    from repro.service import JobSpec, ServiceClient

    workdir.mkdir(parents=True)
    state_dir = workdir / "state"
    dump = workdir / "server-trace.json" if trace else None
    proc, port, ready = start_server(seed, state_dir, dump)
    client = ServiceClient("127.0.0.1", port, timeout=JOB_TIMEOUT)
    jobs = workloads.service_jobs(seed, job_set, str(workdir / "cache"))
    recorder = spans.Recorder() if trace else None
    latencies, oks = [], []
    records = 0
    try:
        cpu_before = _proc_cpu(proc.pid)
        client_cpu = time.process_time()
        started = time.monotonic()
        root = recorder.add_span("session", started, started) if trace else None
        for tenant, algorithm, config in jobs:
            spec = JobSpec(model="funarc", tenant=tenant,
                           algorithm=algorithm, config=config)
            expected = digests[workloads.fingerprint(
                "service-funarc", seed,
                workloads.service_entry(algorithm, config))]
            latency, evaluated, ok = run_job(client, spec, expected, root,
                                             recorder)
            records += evaluated
            latencies.append(latency)
            oks.append(ok)
        ended = time.monotonic()
        client_cpu = time.process_time() - client_cpu
        server_cpu, server_rss = shutdown_server(proc, client)
    finally:
        stop(proc)
    session = {
        "setup": ready, "wall": ended - started, "latencies": latencies,
        "variants_per_s": records / (ended - started),
        "oks": oks, "cpu": server_cpu - cpu_before + client_cpu,
        "rss_mb": max(server_rss, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    if trace:
        recorder.spans[0] = (root, None, "session", started, ended)
        server = json.loads(dump.read_text(encoding="utf-8"))
        session["spans"] = [{"process": "client", "spans": recorder.spans},
                            {"process": "server", "spans": server["spans"]}]
        intervals = [(name, s, e, 1)
                     for _, _, name, s, e in recorder.spans[1:]]
        depth = spans.depths(server["spans"], offset=2)
        intervals += [(name, s, e, depth[i])
                      for i, _, name, s, e in server["spans"]]
        self_times, unattributed = spans.attribute(intervals, started, ended)
        session["layers"] = layer_metrics(self_times, unattributed,
                                          ended - started, server)
    return session


def measure_service(seed: int, seconds: int, trace: bool,
                    digests: dict[str, str]) -> dict:
    from repro.service import ServiceClient

    run_dir = STATE / f"service-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    sessions, setups = [], []
    try:
        deadline = time.monotonic() + seconds
        while (len(sessions) < (2 if trace else 1)
               or time.monotonic() < deadline):
            # Traced and untraced sessions of a traced run serve the
            # same jobs, so the tracing overhead compares like with like.
            k = len(sessions)
            traced = trace and k % 2 == 1
            job_set = (k // 2 if trace else k) % workloads.SERVICE_JOB_SETS
            session = service_session(seed, job_set, run_dir / f"s{k}",
                                      digests, traced)
            session["traced"] = traced
            sessions.append(session)
            setups.append(session["setup"])
        while len(setups) < SETUP_SAMPLES:
            state_dir = run_dir / f"setup{len(setups)}" / "state"
            state_dir.parent.mkdir(parents=True)
            proc, port, ready = start_server(seed, state_dir, None)
            try:
                shutdown_server(proc, ServiceClient("127.0.0.1", port))
            finally:
                stop(proc)
            setups.append(ready)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    untraced = [s for s in sessions if not s["traced"]]
    oks = [ok for s in sessions for ok in s["oks"]]
    out = {
        "attempted": len(oks), "failed": oks.count(False),
        "wall_s": [s["wall"] for s in untraced],
        "variants_per_s": [s["variants_per_s"] for s in untraced],
        "latencies": [x for s in untraced for x in s["latencies"]],
        "setup_s": setups,
        "cpu_s": [s["cpu"] for s in untraced],
        "peak_rss_mb": [s["rss_mb"] for s in untraced],
    }
    if trace:
        traced = [s for s in sessions if s["traced"]]
        out["layers"] = average([s["layers"] for s in traced])
        out["untraced_work_wall"] = statistics.fmean(out["wall_s"])
        out["spans"] = [{"rep": k, **group}
                        for k, s in enumerate(traced) for group in s["spans"]]
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(self_times: dict, unattributed: float, wall: float,
                  trace: dict) -> dict:
    counters = trace["counters"]
    out = {f"{name}_s": self_times.get(name, 0.0) for name in spans.LAYERS}
    out["unattributed_s"] = unattributed
    out["traced_wall_s"] = wall
    cache = trace["code_cache"]
    lookups = cache["procedures_compiled"] + cache["cache_hits"]
    waves = counters.get("batch.waves", 0)
    lanes = (counters.get("telemetry.vector_lanes", 0)
             + counters.get("telemetry.fallback_lanes", 0))
    size = counters.get("telemetry.size", 0)
    widths = trace["wave_widths"] or [0]
    out.update({
        "compile.runs": counters.get("compile.runs", 0),
        "compile.procs_lowered": cache["procedures_compiled"],
        "compile.code_cache_hit_ratio": (cache["cache_hits"] / lookups
                                         if lookups else 0.0),
        "batch.waves": waves,
        "batch.lanes_per_wave": (counters.get("batch.lanes", 0) / waves
                                 if waves else 0.0),
        "batch.vector_lane_ratio": (counters.get("telemetry.vector_lanes", 0)
                                    / lanes if lanes else 0.0),
        "numerics.profiles": counters.get("numerics.profiles", 0),
        "perf.prices": counters.get("perf.prices", 0),
        "search.wave_width_p50": statistics.median(widths),
        "search.wave_width_max": max(widths),
        "parallel.retries": counters.get("telemetry.retries", 0),
        "cache.hit_ratio": (counters.get("telemetry.cache_hits", 0) / size
                            if size else 0.0),
        "journal.appends": counters.get("journal.appends", 0),
        "obs.events": counters.get("obs.events", 0),
        "compile.exec_share": out["compile.exec_s"] / wall,
        "batch.sweep_share": out["batch.sweep_s"] / wall,
        "service.profile_share": (out["numerics.profile_s"] + sum(
            out[f"{p}_s"] for p in SERVICE_PHASES)) / wall,
    })
    return out


def average(layers: list[dict]) -> dict:
    return {key: statistics.fmean(d[key] for d in layers)
            for key in layers[0]}


def describe(values: list[float]) -> dict:
    """Median, quartiles and count of *values*."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(measured: dict) -> dict[str, tuple[float, dict]]:
    latencies = measured["latencies"]
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
               if len(latencies) > 1 else [latencies[0]] * 9)
    out = {}
    for name in END_TO_END:
        if name == "job_p50_s":
            out[name] = (statistics.median(latencies), describe(latencies))
        elif name == "job_p90_s":
            out[name] = (deciles[8], {"n": len(latencies)})
        else:
            values = measured[name]
            out[name] = (statistics.median(values), describe(values))
    return out


def check_predictions(workload: str, layers: dict) -> list[str]:
    lines = []
    for metric, op, bound, claim in PREDICTIONS[workload]:
        value = layers[metric]
        held = value > bound if op == ">" else value == bound
        verdict = "holds" if held else "CONTRADICTED"
        lines.append(f"prediction {verdict}: {metric} = {value:.4g} "
                     f"(predicted {op} {bound:g}: {claim})")
    return lines


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_workload(workload: str, seed: int, seconds: int, trace: bool
                 ) -> tuple[int, int, dict]:
    """Measure one workload, print its report lines; returns
    ``(attempted, failed, metrics)``."""
    digests = ensure_references(workload, seed)
    if workload == "service-funarc":
        measured = measure_service(seed, seconds, trace, digests)
    else:
        measured = measure_campaigns(workload, seed, seconds, trace, digests)
    attempted, failed = measured["attempted"], measured["failed"]
    print(f"{workload}: failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    if not trace:
        values = end_to_end(measured)
        for name, (value, summary) in values.items():
            print(f"{workload}: {name} {value:.6g} {END_TO_END[name]} "
                  + json.dumps(summary))
        return attempted, failed, {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, (value, _) in values.items()}
    layers = measured["layers"]
    layers["tracing_overhead_frac"] = (layers["traced_wall_s"]
                                       / measured["untraced_work_wall"] - 1.0)
    layers["failed_frac"] = failed / attempted
    attributed = sum(layers[f"{name}_s"] for name in spans.LAYERS)
    print(f"{workload}: layer self times {attributed:.6f} s + unattributed "
          f"{layers['unattributed_s']:.6f} s = "
          f"{attributed + layers['unattributed_s']:.6f} s; traced wall "
          f"{layers['traced_wall_s']:.6f} s")
    trace_file = STATE / f"trace-{workload}-{seed}.jsonl"
    spans.write_spans(trace_file, measured["spans"])
    print(f"{workload}: spans written to {trace_file.relative_to(ROOT)}")
    for line in check_predictions(workload, layers):
        print(f"{workload}: {line}")
    return attempted, failed, {
        name: {"value": layers[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import everything once so bytecode is cached before any child
    # process is timed.
    import repro.cli, repro.fortran.batch, repro.numerics  # noqa: E401,F401
    print("env " + json.dumps(environment()), flush=True)
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
            attempted, failed = attempted + a, failed + f
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + key: v for key, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
