"""Traced ``python -m repro ARGS...``.

Wraps ``ServingModel.load``, ``ServingModel.topk_batch`` and
``ServingModel.predict`` in spans, then runs the program's own CLI entry
point with the given arguments.  The benchmark passes the same arguments
as to the untraced server, so both serve the same configuration.  When
the server stops (SIGTERM drains it), the span summary is written to
``SUMMARY.json``.

Usage: ``python serve_launcher.py SUMMARY.json serve MODEL.npz --port 0``
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main(summary_path: str, cli_args: List[str]) -> int:
    from repro import cli
    from repro.serve import ServingModel

    tracer = Tracer()
    tracer.patch(ServingModel, "load", "model_io.load")
    tracer.patch(ServingModel, "topk_batch", "serve.topk_batch")
    tracer.patch(ServingModel, "predict", "serve.predict")
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
