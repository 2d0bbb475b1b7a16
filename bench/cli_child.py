"""Traced stand-in for ``python -m tripatch.cli``: same call, same stdout.

Run as ``python bench/cli_child.py <verb> [args...]``.  It records the
interpreter start (from ``BENCH_SPAWN_T``, the parent's ``perf_counter``
just before it spawned this process), ``import tripatch.cli``, and the
verb with every library layer inside it, then writes the spans to
``BENCH_TRACE_OUT``.  With no verb it only imports, which is how the
traced run measures import time (under ``-X importtime``).
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    spawned = os.environ.get("BENCH_SPAWN_T")
    if spawned:
        tracer.add("cli.interpreter", float(spawned), _STARTED)
    sid = tracer.begin("cli.import")
    import tripatch.cli
    tracer.end(sid)
    code = 0
    if len(sys.argv) > 1:
        tracing.Wrappers(tracer).install()
        sid = tracer.begin("cli.verb")
        try:
            code = tripatch.cli.main(sys.argv[1:])
        finally:
            tracer.end(sid)
    out = os.environ.get("BENCH_TRACE_OUT")
    if out:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
