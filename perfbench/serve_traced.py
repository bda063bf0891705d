"""``python -m repro serve`` with span wrappers installed.

Installs the traced run's wrappers on the engine and service layers,
then runs :func:`repro.service.serve` with its default configuration.
After the server drains on SIGTERM it prints one line,
``perfbench-trace <json>``, holding the span-derived per-layer metrics.

    python3 perfbench/serve_traced.py --port 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from common import use_program


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--port", type=int, default=0)
    args = ap.parse_args(argv)
    use_program()
    import layers
    import spans
    tracer = spans.Tracer()
    spans.install(tracer, layers.library_targets() + layers.service_targets())
    from repro.service import ServiceConfig, serve
    code = asyncio.run(serve(ServiceConfig(port=args.port)))
    summary = layers.summarize(tracer.spans())
    print("perfbench-trace " + json.dumps(summary), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
