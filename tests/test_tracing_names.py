"""The benchmark's span tracer patches program functions by name: every
(module, attribute path) in perfbench/tracing.py's PATCHES must resolve
against the package, so a rename fails here rather than in a traced run. A
traced toy run must also still yield every per-layer metric that
BENCHMARK.json lists, so a call path that stops reaching a patched name
(as `sela.reward.astar` on the waypoint path) fails here too."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_patches():
    return load_perfbench("tracing").PATCHES


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, *_ in load_patches()])
def test_every_patched_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for attribute in path.split("."):
        assert hasattr(owner, attribute), f"{module_name} has no {path}"
        owner = getattr(owner, attribute)
    assert callable(owner)


def test_traced_toy_run_yields_every_listed_per_layer_metric(tmp_path):
    run, tracing = load_perfbench("run"), load_perfbench("tracing")
    config = run.write_config(run.WORKLOADS["toy-angle-offset"], seed=0, replicates=1, workdir=tmp_path)
    result = tmp_path / "result.json"
    command = [
        sys.executable, str(PERFBENCH / "worker.py"), "--mode", "trace", "--config", str(config),
        "--out", str(tmp_path / "out"), "--result", str(result),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=120)
    metrics = tracing.layer_metrics(tracing.read_spans(json.loads(result.read_text())["spans"]))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the tracing overhead itself, from the traced and untraced runs
    wanted = {metric["name"] for metric in listed} - {"trace.overhead_s"}
    assert sorted(wanted - metrics.keys()) == []
