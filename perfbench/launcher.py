"""Start ``repro serve start`` with the benchmark's probe (and spans).

Usage, from the root of a checkout::

    python3 perfbench/launcher.py --out DIR [--trace] -- serve start --store ...

The launcher pins BLAS to one thread, starts the speed probe of
``probe.py``, installs the layer spans of ``tracer.py`` when
``--trace`` is given, then runs the unchanged ``repro`` command line in
this process.  When the daemon exits it writes ``DIR/daemon.json``:
probe samples, peak resident memory and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])
    common.prepare_environment()

    import probe

    prober = probe.Probe().start()
    tracer = None
    if args.trace:
        import repro.cli  # noqa: F401 — load the modules the spans patch
        import repro.serve.daemon  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.trace_id = "daemon"
        tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[split + 1:])
    finally:
        prober.stop()
        Path(args.out, "daemon.json").write_text(json.dumps({
            "starts": list(prober.starts),
            "durations": list(prober.durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": tracer.spans if tracer else [],
        }))


if __name__ == "__main__":
    raise SystemExit(main())
