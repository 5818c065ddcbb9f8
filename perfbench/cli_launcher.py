"""Run `thetacalc.cli` with the span wrappers installed.

    python3 perfbench/cli_launcher.py TRACE_PREFIX normalize FILE ...

Behaves like `python -m thetacalc.cli ...` (same stdout and exit code)
and writes the trace to TRACE_PREFIX.json and TRACE_PREFIX.spans.
"""

from __future__ import annotations

import sys

from tracer import ROOT, Tracer


def main(argv):
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    # the root span covers the imports too, as the cold CLI pays them
    code = tracer.span(ROOT, _run, tracer, cli_args)
    tracer.uninstall()
    tracer.write(prefix)
    return code


def _run(tracer, cli_args):
    from thetacalc import cli

    tracer.install()
    return cli.run_cli(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
