"""Run the ``spets`` CLI in this fresh interpreter with the layer tracer on.

    python3 cli_child.py -- <spets arguments>

The CLI's stdout is left untouched; the trace state is printed as JSON on
the last line of stderr.  ``--import-only`` instead prints how long importing
``spets.cli`` takes in this interpreter, in seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        t0 = time.perf_counter()
        import spets.cli  # noqa: F401
        print(time.perf_counter() - t0)
        return 0
    if argv[:1] != ["--"]:
        print("usage: cli_child.py -- ARGS... | --import-only", file=sys.stderr)
        return 2
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    import spets.cli
    try:
        code = spets.cli.main(argv[1:])
    finally:
        print(json.dumps(tracer.state()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
