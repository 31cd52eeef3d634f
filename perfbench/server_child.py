"""Run ``python -m repro serve`` in this process, optionally traced.

    python3 perfbench/server_child.py [--spans-out PATH] -- <serve arguments>

With ``--spans-out`` the benchmark's layer wrappers are installed before
the server starts, and the recorded spans are written to ``PATH`` after
the server has drained (SIGTERM).  Without it the server runs exactly
as the ``repro serve`` command would.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="server_child.py")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro import cache
    from repro.serve.cli import main as serve_main

    if cache.active() is not None:
        parser.error("repro.cache is on; the benchmark measures cold builds")

    tracer = None
    if args.spans_out:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, serve=True)
    code = serve_main(serve_args)
    if tracer is not None:
        tracer.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
