"""``repro serve`` with spans recorded around each layer's entry points.

Usage: ``python3 perfbench/traced_serve.py SPANS_FILE serve [ARGS...]``
(with the checkout's ``src`` on ``PYTHONPATH``).  Installs the
wrappers of :mod:`tracing`, runs the unchanged CLI, and writes every
span to ``SPANS_FILE`` when the server has shut down.
"""

import sys

import tracing


def main():
    spans_path = sys.argv[1]
    tracing.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracing.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
