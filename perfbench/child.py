"""Run one ocselect CLI command and record when the CLI was entered.

usage: python3 perfbench/child.py STAMP SPANS CLI-ARGS...

Imports ocselect.cli, writes the time.perf_counter() reading taken just
before ocselect.cli.main is entered to STAMP, and exits with main's exit
code.  SPANS is "-" for an untraced run; otherwise every ocselect layer is
traced and the spans are written to SPANS (.npz) when main returns.
"""

import sys
import time


def main() -> int:
    stamp, spans_path, *cli_args = sys.argv[1:]
    from ocselect import cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    entered = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        with open(stamp, "w") as fh:
            fh.write(repr(entered))
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
