"""``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python perfbench/traced_serve.py --spans OUT.json -- serve [repro serve args]``

The wrappers record spans in memory; when the server shuts down (SIGINT)
they are written to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import SpanStore  # noqa: E402
from perfbench.wrap import install_server  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.cli import main as repro_main

    store = SpanStore()
    install_server(store)
    try:
        return repro_main(serve_args)
    finally:
        store.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
