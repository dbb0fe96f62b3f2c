"""One measured process: set up, run one workload once, write a result file.

Usage: python3 perfbench/worker.py JOB_JSON LAUNCH_MONOTONIC

run.py starts a fresh worker for every repetition. Set-up time is measured
from LAUNCH_MONOTONIC, read by the launching process just before it started
this one, to the moment the program can take its first unit of work: the
``streamlabel`` import, plus ``load_model`` on serve-batch. Exit code 3
means the program could not be set up at all.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

SETUP_FAILED = 3


def _setup(job_path: str):
    """Import the program and load the served model: (job, model, tracer)."""
    try:
        import streamlabel.cli  # noqa: F401 -- the cli layer is traced too
    except ImportError as err:
        print(f"perfbench worker: cannot import streamlabel: {err}",
              file=sys.stderr)
        sys.exit(SETUP_FAILED)
    import json

    import streamlabel
    src = os.path.join(_ROOT, "src", "streamlabel")
    if os.path.dirname(os.path.abspath(streamlabel.__file__)) != src:
        print(f"perfbench worker: streamlabel imported from "
              f"{streamlabel.__file__}, not from {src}", file=sys.stderr)
        sys.exit(SETUP_FAILED)
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["traced"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    model = None
    if job["kind"] == "serve":
        model = streamlabel.harness.load_model(job["model"])
    return job, model, tracer


def main() -> None:
    job, model, tracer = _setup(sys.argv[1])
    setup_s = time.monotonic() - float(sys.argv[2])
    import measure  # after set-up: its imports are not the program's
    measure.run(job, model, tracer, setup_s)


if __name__ == "__main__":
    main()
