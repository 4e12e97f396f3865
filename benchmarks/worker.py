"""One measured iteration of a workload, in a fresh interpreter.

Usage: ``python3 benchmarks/worker.py <workload> <seed> <mode> <result.json>``
with mode ``run``, ``traced`` or ``setup``.  The worker imports ``edpflow``
from the ``src`` directory next to this one, sets the workload up, runs it
(``run``/``traced``), checks its outputs and writes one JSON object to
``result.json``.  A fresh process per iteration gives each run its own peak
RSS and CPU time and pays the import as users do.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    """Peak resident set of this process image.

    ``ru_maxrss`` is not used: on Linux, exec hands the resident set of the
    spawning process down to it, so a small worker would report its parent's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment():
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "EDPFLOW_THREADS": os.environ.get("EDPFLOW_THREADS"),
    }


def main(argv):
    workload, seed, mode, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    outdir = WORK / f"{workload}-{seed}-{out.stem}"
    result = {"ok": False, "problems": []}
    try:
        inputs = workloads.make_inputs(workload, seed, outdir)
        prepared = workloads.setup(workload, inputs, outdir)
        import edpflow

        src = (ROOT / "src").resolve()
        if src not in Path(edpflow.__file__).resolve().parents:
            raise ImportError(f"edpflow imported from {edpflow.__file__}, not {src}")
        result["setup_s"] = time.perf_counter() - _T0
        if mode == "setup":
            result["environment"] = _environment()
            result["ok"] = True
            return result
        tracer = None
        if mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        output = workloads.run(workload, prepared)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["spans"] = tracer.spans()
        flags, values = workloads.observe(workload, output, outdir, inputs)
        reference = None
        if seed == 0:
            reference = json.loads((HERE / "reference.json").read_text())[workload]
        result["problems"] = workloads.check(flags, values, reference)
        result["ok"] = not result["problems"]
    except Exception:  # a failed run is counted, not fatal; the traceback is reported
        result["problems"].append(traceback.format_exc())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return result


if __name__ == "__main__":
    res = main(sys.argv[1:])
    Path(sys.argv[4]).write_text(json.dumps(res))
