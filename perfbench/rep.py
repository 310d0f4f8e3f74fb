"""One repetition of a mom6 workload in a fresh interpreter.

Run by ``run.py`` as ``python perfbench/rep.py WORKLOAD SEED TRACE``
with ``PYTHONPATH`` naming the program's ``src``.  Protocol on
stdin/stdout, one line each:

1. the child imports the program, builds the model, parses and
   analyses it and constructs the ``Evaluator`` (the 64-bit baseline
   run), then prints ``READY``; the parent times set-up from process
   start to this line;
2. the parent answers ``go`` (run the campaign) or ``stop`` (set-up
   sample only, exit);
3. after ``go`` the child runs the campaign and prints ``RESULT`` and
   one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import repro.core.campaign as campaign_module
    from repro.core import Evaluator

    import workloads
    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    work_started = time.monotonic()
    model, config, algorithm = workloads.campaign(workload, seed)
    model.index, model.vec_info, model.space   # parse and analysis
    evaluator = Evaluator(model, timeout_factor=config.timeout_factor,
                          seed=config.seed, backend=config.backend)
    setup_wall = time.monotonic() - work_started
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    cpu_started = time.process_time()
    started = time.monotonic()
    result = campaign_module.run_campaign(model, config, algorithm=algorithm,
                                          evaluator=evaluator)
    ended = time.monotonic()
    cpu = time.process_time() - cpu_started
    text = result.to_json()
    report = {
        "wall": ended - started,
        "work_wall": ended - work_started,
        "setup_wall": setup_wall,
        "cpu": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": len(result.records),
        "failures": sum(t.failures for t in result.oracle.telemetry),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    if recorder is not None:
        report["trace"] = recorder.dump()
        report["trace"]["window"] = [work_started, ended]
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
