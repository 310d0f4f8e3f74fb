"""``repro serve`` with the benchmark's span wrappers installed.

``python perfbench/serve.py DUMP STATE_DIR [serve options]`` installs
the same wrappers as a traced repetition, hands over to ``repro serve``
and, once the server has shut down, writes its spans and counters to
the JSON file DUMP.  Worker processes forked by the campaign pool
inherit the wrappers but never write them out: their time shows in the
server as ``parallel.wait``.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    dump_path, serve_args = argv[0], argv[1:]
    import spans
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as repro_main
    try:
        return repro_main(["serve", *serve_args])
    finally:
        with open(dump_path, "w", encoding="utf-8") as out:
            json.dump(recorder.dump(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
