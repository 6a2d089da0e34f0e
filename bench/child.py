"""One measured repetition, run in a fresh interpreter by run.py.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds: ``src`` (directory that holds the alphaloss package),
``preset``, ``n``, ``seed`` (the set-up dataset), ``argv`` (CLI arguments;
empty for a set-up-only repetition), ``trace`` (0 or 1), ``run_id``,
``spans`` (span CSV path) and ``result`` (where this writes its JSON).

The set-up phase imports alphaloss and builds the workload's dataset with
sample_gmm + normalize_features; then the CLI command runs in the same
process, its stdout discarded.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    """CPU time of this process's threads and of the processes it waited for."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                resource.getrusage(resource.RUSAGE_CHILDREN)))


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it exposes one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import alphaloss
    from alphaloss.data import normalize_features, preset, sample_gmm
    from alphaloss.numerics import RngState

    normalize_features(sample_gmm(preset(spec["preset"]), spec["n"], RngState(spec["seed"])))
    setup_s = time.perf_counter() - start
    if not Path(alphaloss.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"alphaloss imported from {alphaloss.__file__}, not from {src}")
    result = {"setup_s": setup_s, "blas_threads": _blas_threads()}
    if not spec["argv"]:
        return result

    from alphaloss import cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(spec["argv"])
        except Exception:  # the CLI's own entry point would exit 1 here
            traceback.print_exc()
            code = 1
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    result.update(
        exit_code=code,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        tracer.write_spans(Path(spec["spans"]))
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    outcome = main(spec)
    Path(spec["result"]).write_text(json.dumps(outcome), encoding="utf-8")
