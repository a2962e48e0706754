"""sela benchmark: the whole experiment path, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Each workload is one closed-loop batch:
one caller runs every mission of `run_experiment` in turn, each mission
starting when the previous one ends, with no arrival rate. The batch is fixed
work, so its outputs are a pure function of the seed: replicate k of every
method uses seed `--seed` + k. The program receives only a generated config
file. The replicate count is `--seconds` divided by the workload's seconds
per replicate, measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4, one
OpenBLAS thread), so the batch takes about `--seconds` there.

Every workload process is a fresh interpreter with OpenBLAS pinned to one
thread. `--trace 0` measures set-up in several processes, then runs the batch
in one. It times each gap between consecutive `World.execute` calls on the
same world: the time the robot waits for its next behavior. On a shared host
the CPU speed drifts by up to 2x within seconds, and millisecond figures
drift with it. So after every call, outside the gaps, the process also times
a fixed reference chunk of work (worker.reference_work), and the `*_ref`
metrics divide each gap by the median time of the 21 chunks around it: the
step's cost in reference chunks, which stays steady where milliseconds do
not; `experiment_s` leaves the chunks out. `--trace 1` runs the batch once untraced and once under the span tracer
(perfbench/tracing.py) and reports per-layer metrics and the tracing
overhead. Both modes check the outputs: `runs.csv` is well formed and
unchanged by tracing, `summary.csv` matches a summary recomputed from it,
`World.execute` ran once per counted step, the walker archive is identical
in every process and survives a save/load round trip, and at a recorded seed
the sha256 digests equal perfbench/golden.json.

The report goes to standard output: every end-to-end metric with unit and
sample count, and under `--trace 1` every per-layer metric the workload
produces, including map_elites.* on the walker and mission.<method>.* for
each method run. Its last line is the JSON result with the metrics that
BENCHMARK.json lists for the mode. BENCHMARK.json bounds only metrics whose
spread across seeds stays well inside a bound. It leaves out the millisecond
figures (host drift), experiment_s, steps_per_s, step_ref.p50 and
step_ref.p99 (they follow how many missions of a seed hit the step cap, or
which steps make the tail), and sela_total_steps.median
and reached_ratio (outputs the golden digests already pin); those are
printed only. Its per-layer list holds the metrics every workload produces.
The exit code is 0 when a result was printed, also when the output check
failed (then `correct` is false and every mission counts as failed), and 1
when nothing could be measured.

Which layer metric should move which end-to-end metric, and where:
  gp.fit.*                       sela_step_ref.p50, step_ref.p99, experiment_s on long-adaptation
  gp.predict_batch.*             sela_step_ref.p50 on long-adaptation
  gp.prior_values.*              experiment_s on walker-frozen-joint, then toy
  acquisition.*                  sela_step_ref.p50, experiment_s on toy and walker
  reward.*                       sela_step_ref.p50 on long-adaptation and toy
  map_elites.*                   setup_s on walker-frozen-joint only
  worlds.execute.*               none: the control
  mission.<method>.*             experiment_s (babbling on toy, uncertainty on walker)
  experiment.*, config.*         experiment_s and setup_s; should stay small
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

RUNS_HEADER = "run_id,method,world,seed,learn_steps,exec_steps,total_steps,reached,wall_ms"
DEADLINE_S = 170.0      # a run must end within 180 s
REFERENCE_WINDOW = 10   # reference chunks on each side of a gap that set its local speed


@dataclass(frozen=True)
class Workload:
    config: str                 # config keys besides step_cap, replicates, base_seed, archive_path
    methods: tuple[str, ...]
    seconds_per_replicate: float
    setup_processes: int
    archive: bool = False
    step_cap: int = 500


WORKLOADS = {
    # The acceptance TOY config. Per-candidate Python reward scoring and the
    # function prior dominate; the GP stays tiny and map_elites does no work.
    "toy-angle-offset": Workload(
        config="world = point_robot\ndamage = angle_offset\nmethods = sela, babbling, episodic_ite\n",
        methods=("sela", "babbling", "episodic_ite"),
        seconds_per_replicate=0.85,
        setup_processes=7,
    ),
    # The acceptance WALKER config. map_elites runs twice: as set-up
    # (illumination) and on the hot path as ArchivePrior with 4-D candidates.
    "walker-frozen-joint": Workload(
        config="world = segment_walker\ndamage = frozen_joint\nmethods = sela, uncertainty, episodic_ite\n",
        methods=("sela", "uncertainty", "episodic_ite"),
        seconds_per_replicate=1.0,
        setup_processes=3,
        archive=True,
    ),
    # Noise keeps the drop detector firing, so most steps refit the GP. The
    # goal tolerance is below any reachable distance, so every mission runs
    # exactly step_cap steps and the GP grows to about 220 points on every
    # seed; with the default tolerance, mission length (127-362 steps) and so
    # GP size vary by seed, and step latency with them.
    "long-adaptation": Workload(
        config=(
            "world = point_robot\ndamage = angle_offset\nmethods = sela\n"
            "goal_x = 6\ngoal_y = 6\nnoise_variance = 0.05\nepsilon_goal = 1e-9\n"
        ),
        methods=("sela",),
        seconds_per_replicate=1.7,
        setup_processes=7,
        step_cap=250,
    ),
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def replicates_for(workload: Workload, seconds: int) -> int:
    return max(1, round(seconds / workload.seconds_per_replicate))


def write_config(workload: Workload, seed: int, replicates: int, workdir: Path) -> Path:
    text = workload.config + f"step_cap = {workload.step_cap}\nreplicates = {replicates}\nbase_seed = {seed}\n"
    if workload.archive:
        text += f"archive_path = {workdir / 'archive.txt'}\n"
    path = workdir / "config.txt"
    path.write_text(text, encoding="utf-8")
    return path


class Workers:
    """Starts workload processes one at a time, each a fresh interpreter."""

    def __init__(self, root: Path, workdir: Path, config: Path, deadline: float):
        self.workdir = workdir
        self.config = config
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.count = 0

    def run(self, mode: str) -> dict:
        self.count += 1
        tag = f"{mode}{self.count}"
        result_path = self.workdir / f"{tag}.json"
        command = [
            sys.executable, str(WORKER), "--mode", mode, "--config", str(self.config),
            "--out", str(self.workdir / tag), "--result", str(result_path),
        ]
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before the next workload process")
        spawned = perf_counter()
        try:
            done = subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process did not finish within {timeout:.0f} s") from None
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{mode} process exited with {done.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["out"] = self.workdir / tag
        return result


def check_runs_csv(text: str, workload: Workload, seed: int, replicates: int) -> tuple[list[str], list[dict]]:
    """Structural check of runs.csv; returns (problems, rows)."""
    lines = text.splitlines()
    if not lines or lines[0] != RUNS_HEADER:
        return ["runs.csv header is wrong"], []
    world = "segment_walker" if workload.archive else "point_robot"
    expected = [(m, seed + k) for m in workload.methods for k in range(replicates)]
    problems, rows = [], []
    if len(lines) - 1 != len(expected):
        problems.append(f"runs.csv has {len(lines) - 1} rows, expected {len(expected)}")
    for run_id, (line, (method, row_seed)) in enumerate(zip(lines[1:], expected)):
        parts = line.split(",")
        if len(parts) != 9:
            problems.append(f"runs.csv row {run_id} has {len(parts)} fields")
            continue
        try:
            learn, execute, total = (int(p) for p in parts[4:7])
        except ValueError:
            problems.append(f"runs.csv row {run_id} has a malformed step count")
            continue
        row = {"method": parts[1], "total_steps": total, "reached": parts[7] == "true"}
        if parts[:4] != [str(run_id), method, world, str(row_seed)]:
            problems.append(f"runs.csv row {run_id} is {parts[:4]}, expected {method} seed {row_seed}")
        if total != learn + execute or not 0 < total <= workload.step_cap or min(learn, execute) < 0:
            problems.append(f"runs.csv row {run_id} has inconsistent step counts")
        if parts[7] not in ("true", "false") or parts[8] != "0":
            problems.append(f"runs.csv row {run_id} has a malformed reached/wall_ms field")
        rows.append(row)
    return problems, rows


def check_golden(name: str, seed: int, replicates: int, digests: dict) -> tuple[list[str], str]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(name, {}).get(str(seed))
    if golden is None or golden["replicates"] != replicates:
        return [], f"no golden digests for seed {seed} with {replicates} replicates"
    problems = [
        f"{key} sha256 {digests.get(key)} differs from golden {value}"
        for key, value in golden.items()
        if key != "replicates" and digests.get(key) != value
    ]
    return problems, "golden digests match" if not problems else "golden digests differ"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        return ref
    return ref


def quantity(value, unit: str, samples: str) -> str:
    shown = str(value) if isinstance(value, int) else f"{value:.6g}"
    return f"{shown} {unit} ({samples})"


def local_medians(values, window: int) -> list[float]:
    """Median of values[i - window : i + window + 1] for every i."""
    return [
        statistics.median(values[max(0, i - window): i + window + 1])
        for i in range(len(values))
    ]


def measure(args, root: Path, workdir: Path) -> tuple[dict, dict, list[str], int]:
    """Returns (end-to-end metrics, per-layer metrics, problems, missions attempted)."""
    workload = WORKLOADS[args.workload]
    replicates = replicates_for(workload, args.seconds)
    missions = replicates * len(workload.methods)
    config = write_config(workload, args.seed, replicates, workdir)
    workers = Workers(root, workdir, config, deadline=args.started + DEADLINE_S)
    print(f"workload {args.workload}: seed {args.seed}, {replicates} replicates x "
          f"{len(workload.methods)} methods = {missions} missions, trace {args.trace}")

    setups = []
    if not args.trace:
        setups = [workers.run("setup") for _ in range(workload.setup_processes - 1)]
    run = workers.run("run")
    setups.append(run)
    traced = workers.run("trace") if args.trace else None

    problems = []
    runs_text = (run["out"] / "runs.csv").read_text(encoding="utf-8")
    found, rows = check_runs_csv(runs_text, workload, args.seed, replicates)
    problems += found
    if not run["summary_matches_runs"]:
        problems.append("summary.csv differs from the summary recomputed from runs.csv")
    if traced is not None:
        for key in ("runs_sha256", "summary_sha256"):
            if traced[key] != run[key]:
                problems.append(f"tracing changed {key[:-7]}.csv")
    steps = sum(r["total_steps"] for r in rows)
    if len(run["references_s"]) != steps:
        problems.append(f"World.execute ran {len(run['references_s'])} times, runs.csv counts {steps} steps")
    digests = {"runs.csv": run["runs_sha256"], "summary.csv": run["summary_sha256"]}
    if workload.archive:
        digests["archive"] = run["archive_sha256"]
        every = {r["archive_sha256"] for r in setups + ([traced] if traced else [])}
        if len(every) != 1:
            problems.append(f"archive bytes differ between processes: {sorted(every)}")
        if not run["archive_round_trip"]:
            problems.append("archive changed in a save/load round trip")
    found, golden_note = check_golden(args.workload, args.seed, replicates, digests)
    problems += found
    for key, value in digests.items():
        print(f"  sha256 {key}: {value}")
    print(f"  output check: {'passed' if not problems else 'FAILED'}; {golden_note}")
    for problem in problems:
        print(f"    {problem}")

    batches = 2 if traced else 1
    failed = missions * batches if problems else 0
    sela_steps = [r["total_steps"] for r in rows if r["method"] == "sela"]
    reached = sum(r["reached"] for r in rows)
    setup_values = [r["setup_s"] for r in setups]
    local = local_medians(run["references_s"], REFERENCE_WINDOW)
    methods = [m for m in workload.methods if m in run["gaps_s"]]
    gaps_ms = {m: [g * 1e3 for g in run["gaps_s"][m]] for m in methods}
    costs = {m: [g / local[i] for g, i in zip(run["gaps_s"][m], run["gap_at"][m])] for m in methods}
    all_ms = [g for m in methods for g in gaps_ms[m]]
    all_costs = [c for m in methods for c in costs[m]]
    experiment_s = run["experiment_s"]
    e2e = {
        "setup_s": (statistics.median(setup_values), "s", f"median of {len(setups)} processes"),
        "experiment_s": (experiment_s, "s", f"1 batch of {missions} missions"),
        "steps_per_s": (steps / experiment_s, "1/s", f"{steps} steps"),
        "step_ms.p50": (statistics.median(all_ms), "ms", f"{len(all_ms)} gaps"),
        "step_ref.p50": (statistics.median(all_costs), "ref", f"{len(all_costs)} gaps"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "1 process"),
        "failed_ratio": (failed / (missions * batches), "ratio", f"{failed} of {missions * batches} missions"),
    }
    # p99 is reported only with at least ten samples beyond it.
    if len(all_ms) >= 1000:
        beyond = len(all_ms) - int(0.99 * len(all_ms))
        for name, values, unit in (("step_ms.p99", all_ms, "ms"), ("step_ref.p99", all_costs, "ref")):
            p99 = statistics.quantiles(values, n=100, method="inclusive")[98]
            e2e[name] = (p99, unit, f"{len(values)} gaps, {beyond} beyond")
    for method in methods:
        samples = f"{len(costs[method])} gaps"
        e2e[f"{method}_step_ms.p50"] = (statistics.median(gaps_ms[method]), "ms", samples)
        e2e[f"{method}_step_ref.p50"] = (statistics.median(costs[method]), "ref", samples)
    references = run["references_s"]
    e2e["reference_ms.p50"] = (statistics.median(references) * 1e3, "ms", f"{len(references)} chunks")
    if sela_steps:
        e2e["sela_total_steps.median"] = (statistics.median(sela_steps), "steps", f"{len(sela_steps)} sela missions")
    if rows:
        e2e["reached_ratio"] = (reached / len(rows), "ratio", f"{reached} of {len(rows)} missions")

    layers = {}
    if traced is not None:
        from tracing import layer_metrics, read_spans

        layers = layer_metrics(read_spans(traced["spans"]))
        layers["trace.overhead_s"] = (
            traced["experiment_s"] - run["experiment_s"], "s", "traced minus untraced experiment_s"
        )
        if workload.archive:
            offers = traced["offers"]
            total = sum(offers.values())
            kept = offers.get("inserted", 0) + offers.get("replaced", 0)
            seconds = layers["map_elites.illuminate.ms"][0] / 1e3
            layers["map_elites.evals_per_s"] = (total / seconds, "1/s", f"{total} evaluations")
            layers["map_elites.accept_ratio"] = (kept / total, "ratio", f"{kept} of {total} offers")
            layers["map_elites.coverage"] = (traced["archive_coverage"], "ratio", "1 archive")

    print("  end to end:")
    for name, (value, unit, samples) in e2e.items():
        print(f"    {name:26} {quantity(value, unit, samples)}")
    if layers:
        print("  per layer (traced run):")
        for name, (value, unit, samples) in sorted(layers.items()):
            print(f"    {name:40} {quantity(value, unit, f'n={samples}' if isinstance(samples, int) else samples)}")
    environment = dict(run["environment"], commit=git_commit(root))
    print(f"  environment: {json.dumps(environment, sort_keys=True)}")
    return e2e, layers, problems, missions * batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sela benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = perf_counter()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "sela" / "__init__.py").is_file():
        print("error: run from the root of a sela checkout (src/sela is missing)", file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        e2e, layers, problems, missions = measure(args, root, workdir)
        measured = layers if args.trace else e2e
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not problems,
        "attempted": missions,
        "failed": missions if problems else 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
