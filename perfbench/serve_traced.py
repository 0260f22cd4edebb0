"""Run ``repro serve`` with the benchmark's timing wrappers installed.

    python perfbench/serve_traced.py SPANS.json [serve options...]

The wrappers from ``perfbench.layers`` are installed before the server is
built, spans are kept in memory while it serves, and they are written to
``SPANS.json`` when it exits (SIGTERM drains and exits).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    from perfbench.layers import install_all
    from perfbench.spans import Tracer
    from repro import cli

    spans_path, *serve_args = argv
    tracer = Tracer()
    install_all(tracer)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
