"""Child process that runs one workload's CLI stages in-process.

Usage: ``python3 perfbench/worker.py SPEC.json`` runs the stages the spec
lists through ``webcred.cli.main(argv)`` and writes per-pass stage times,
exit codes, output hashes, peak RSS and (when tracing) per-layer metrics
to the spec's result path.  ``python3 perfbench/worker.py --setup-only
SRC`` only does the start-up work and exits; the harness times it from
outside as the per-process set-up cost.

Passes repeat until the time budget is spent, at least once.  A traced
run spends half its budget untraced and half traced, so the two can be
compared to give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def setup(src: str):
    """Import the CLI and warm the language profiles: the work every
    ``webcred`` process does before its first stage."""
    sys.path.insert(0, src)
    from webcred import cli
    from webcred.language import detect_language

    detect_language("warm up the character trigram language profiles")
    return cli


def _run_stage(cli, argv: list[str], call=None) -> int:
    """Exit code of one CLI stage; a crash counts as a failure (-1)."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = call(cli.main, argv) if call else cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    if rc != 0:
        sys.stderr.write(f"stage {argv[0]} exited {rc}: {stderr.getvalue()}")
    return rc


def _hash_outputs(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def _run_passes(cli, stages, out: Path, budget: float, call=None, tracer=None):
    passes = []
    began = time.perf_counter()
    while True:
        for stale in out.iterdir():
            stale.unlink()
        if tracer is not None:
            tracer.reset()
        stage_s, rc = {}, {}
        for name, argv in stages:
            t0 = time.perf_counter()
            rc[name] = _run_stage(cli, argv, call)
            stage_s[name] = time.perf_counter() - t0
        record = {"stage_s": stage_s, "rc": rc, "outputs": _hash_outputs(out)}
        if tracer is not None:
            record["layers"] = tracer.metrics()
        passes.append(record)
        spent = time.perf_counter() - began
        if spent + spent / len(passes) > budget:
            return passes


def main() -> int:
    if sys.argv[1] == "--setup-only":
        setup(sys.argv[2])
        return 0
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    cli = setup(spec["src"])
    from webcred import _kernels

    # Stages write their outputs, manifests included, under relative
    # names into ``out``, so repeat passes can be compared byte for byte.
    out = Path(spec["out"])
    out.mkdir(exist_ok=True)
    os.chdir(out)
    pre_rc = {name: _run_stage(cli, argv) for name, argv in spec["pre"]}
    result = {"pre_rc": pre_rc, "kernels": _kernels.ACTIVE_IMPL}
    seconds = spec["seconds"]
    if spec["trace"]:
        from tracing import Tracer

        result["passes"] = _run_passes(cli, spec["stages"], out, seconds / 2)
        tracer = Tracer()
        tracer.install()
        result["traced_passes"] = _run_passes(
            cli, spec["stages"], out, seconds / 2,
            call=lambda fn, argv: tracer.call(f"stage.{argv[0]}", fn, argv),
            tracer=tracer,
        )
    else:
        result["passes"] = _run_passes(cli, spec["stages"], out, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
