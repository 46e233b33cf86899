"""Start the ``repro-serve serve`` daemon from a source checkout.

    python3 perfbench/serve_daemon.py serve --port 0 --workers 2

The arguments go to ``repro.serve.cli.main`` unchanged.  With
``PERFBENCH_LAYERS_OUT=<file>`` in the environment the layer wrappers of
``layers.py`` are installed first, and when the daemon has drained, the
per-layer totals and the service cache's counts are written to that file
as JSON.  ``SIGUSR1`` drops what was recorded so far (the set-up's
warm-up jobs) and answers by creating ``<file>.reset``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    out = os.environ.get("PERFBENCH_LAYERS_OUT")
    services = []
    baseline = {}
    if out:
        import common
        import layers
        from repro.serve.service import EvaluationService

        rec = layers.Recorder()
        layers.install(rec)
        init = EvaluationService.__init__

        def keep(service, *args, **kwargs):
            init(service, *args, **kwargs)
            services.append(service)

        EvaluationService.__init__ = keep

        def forget(signum, frame):
            rec.reset()
            if services:
                baseline.update(common.cache_counts(services[0].cache.stats))
            with open(out + ".reset", "w", encoding="utf-8"):
                pass

        signal.signal(signal.SIGUSR1, forget)
    from repro.serve.cli import main as serve_main

    code = serve_main(argv)
    if out:
        cache = ({name: value - baseline.get(name, 0) for name, value in
                  common.cache_counts(services[0].cache.stats).items()}
                 if services else {})
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"layers": rec.totals(), "cache": cache}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
