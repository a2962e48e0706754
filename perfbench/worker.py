"""One benchmark process: the set-up of `sela build-archive` + `sela run`, then
the experiment, in a fresh interpreter.

    python3 perfbench/worker.py --mode {setup,run,trace} --config CFG --out DIR --result FILE

`setup` stops once the first mission could start. `run` then runs the
experiment, timing the gap between consecutive `World.execute` calls on the
same world and a reference chunk after each call. `trace` runs the
experiment under the span tracer instead and writes the spans next to the
result. The
result is a JSON file; its `ready` time stamp comes from `time.perf_counter`,
the system-wide monotonic clock, so the parent can subtract its own spawn
time stamp.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_work():
    """A fixed chunk of work of the kinds a control step does: Python calls
    on small arrays and a small Cholesky factorization. The parent divides
    each step gap by the time this chunk took around that step, which
    cancels the speed drift of a shared host."""
    import numpy

    rng = numpy.random.default_rng(0)
    points = rng.random((24, 2))
    base = rng.random((20, 20))
    spd = base @ base.T + 20.0 * numpy.eye(20)

    def work() -> float:
        total = 0.0
        for point in points:
            total += float(numpy.linalg.norm(point - 0.5))
        numpy.linalg.cholesky(spd)
        return total

    return work


class StepClock:
    """Times the gap between consecutive `World.execute` calls on the same
    world, per method, and the reference chunk run after every call.

    A world belongs to one mission, so a gap is the controller time the
    robot spends waiting for its next behavior. The reference chunk runs
    outside the gaps; `at` holds, per gap, the index of the chunk that
    directly preceded it.
    """

    def __init__(self, world_class, experiment_module):
        self.gaps: dict[str, array] = {}
        self.at: dict[str, array] = {}
        self.references = array("d")
        self._method = ""
        self._world = None
        self._end = 0.0
        execute = world_class.execute
        run_method = experiment_module.run_method
        work = reference_work()

        def timed_execute(world, behavior):
            start = perf_counter()
            if world is self._world:
                self.gaps.setdefault(self._method, array("d")).append(start - self._end)
                self.at.setdefault(self._method, array("q")).append(len(self.references) - 1)
            observed = execute(world, behavior)
            reference_start = perf_counter()
            work()
            self._end = perf_counter()
            self.references.append(self._end - reference_start)
            self._world = world
            return observed

        def tagged_run_method(method, mission):
            self._method = method.value
            return run_method(method, mission)

        world_class.execute = timed_execute
        experiment_module.run_method = tagged_run_method


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }
    # numpy's bundled OpenBLAS reports the thread count it actually runs with.
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        getter = getattr(ctypes.CDLL(lib_path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            env["openblas_threads"] = getter()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import sela.config
    import sela.experiment
    import sela.map_elites
    import sela.worlds

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {}
    config = sela.config.parse_config_file(args.config)
    archive = None
    if config.world == "segment_walker":
        offers = Counter()
        on_offer = None
        if tracer is not None:
            def on_offer(_cell, _elite, outcome):
                offers[outcome.value] += 1
        archive = sela.experiment.build_archive(config, on_offer=on_offer)
        data = sela.map_elites.save_archive(archive)
        Path(config.archive_path).write_bytes(data)
        archive = sela.experiment.load_archive_file(config.archive_path)
        result.update(archive_sha256=_sha256(data), archive_coverage=archive.coverage, offers=dict(offers))
    result["ready"] = perf_counter()

    if args.mode != "setup":
        clock = None if tracer is not None else StepClock(sela.worlds.World, sela.experiment)
        out = Path(args.out)
        started = perf_counter()
        sela.experiment.run_experiment(config, out_dir=out, archive=archive)
        result["experiment_s"] = perf_counter() - started
        result["runs_sha256"] = _sha256((out / "runs.csv").read_bytes())
        result["summary_sha256"] = _sha256((out / "summary.csv").read_bytes())
        if clock is not None:
            result["experiment_s"] -= sum(clock.references)
            result["gaps_s"] = {method: list(gaps) for method, gaps in clock.gaps.items()}
            result["gap_at"] = {method: list(at) for method, at in clock.at.items()}
            result["references_s"] = list(clock.references)
        recomputed = sela.experiment.summary_csv_text(sela.experiment.summarize_runs(out / "runs.csv"))
        result["summary_matches_runs"] = recomputed.encode("utf-8") == (out / "summary.csv").read_bytes()
    if archive is not None and tracer is None:
        result["archive_round_trip"] = _sha256(sela.map_elites.save_archive(archive)) == result["archive_sha256"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    if tracer is not None:
        spans_path = Path(args.result).with_suffix(".spans.tsv")
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
