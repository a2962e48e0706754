"""Span tracing for the traced benchmark run, and the per-layer metrics it yields.

The tracer times each layer from outside the program: it replaces a public
function by a wrapper that records a span around the call. A name is patched
where its caller looks it up. `sela.mission` binds `fit`, `select_next` and
`build_waypoint_reward` by name, `sela.acquisition` binds `predict_batch`,
and `sela.experiment` binds `run_method`, `build_mission_config`,
`write_results`, `illuminate` and `load_archive`; patching only the defining
module would miss those calls. `sela.gp` calls its own `predict_batch`
(through `predict`) and `prior_values` (through `fit` and `predict_batch`).
The benchmark's own worker calls `parse_config_file` and `save_archive`
through their modules, as the CLI does.

Spans are kept in memory as (name, start_ns, end_ns, parent, mission, note),
where mission is the index of the enclosing `run_method` span, and written
out when the run ends. A span's self time is its duration minus the
time its child spans cover; calls are single-threaded and nested, so the
children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter_ns


def _len_first(args, result):
    return len(args[0])


def _len_second(args, result):
    return len(args[1])


def _start_cell(args, result):
    return "%d:%d" % args[1]


def _mission_note(args, result):
    method, config = args
    return "%s:%d" % (method.value, int(result.total_steps >= config.step_cap))


def _byte_count(args, result):
    return len(result)


# (module, attribute path, span name, note taken from the call's arguments and result).
PATCHES = (
    ("sela.config", "parse_config_file", "config.parse_config_file", None),
    ("sela.experiment", "illuminate", "map_elites.illuminate", None),
    ("sela.map_elites", "save_archive", "map_elites.save_archive", _byte_count),
    ("sela.experiment", "load_archive", "map_elites.load_archive", None),
    ("sela.experiment", "build_mission_config", "experiment.build_mission_config", None),
    ("sela.experiment", "run_method", "mission", _mission_note),
    ("sela.experiment", "write_results", "experiment.write_results", None),
    ("sela.mission", "fit", "gp.fit", _len_first),
    ("sela.mission", "select_next", "acquisition.select_next", _len_first),
    ("sela.mission", "build_waypoint_reward", "reward.build_waypoint_reward", None),
    ("sela.acquisition", "predict_batch", "gp.predict_batch", None),
    ("sela.gp", "predict_batch", "gp.predict_batch", None),
    ("sela.gp", "prior_values", "gp.prior_values", _len_second),
    ("sela.reward", "astar", "reward.astar", _start_cell),
    ("sela.worlds", "World.execute", "worlds.execute", None),
)


class Tracer:
    """Records one span per call of every patched function."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, function, note=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            index = len(spans)
            mission = index if name == "mission" else spans[parent][4] if parent >= 0 else -1
            span = [name, 0, 0, parent, mission, None]
            open_spans.append(index)
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                open_spans.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, note in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), note))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, mission, note in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\t{mission}\t{'' if note is None else note}\n")


def read_spans(path) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, mission, note = line.rstrip("\n").split("\t")
            spans.append((name, int(start), int(end), int(parent), int(mission), note))
    return spans


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count)."""
    duration = [end - start for _, start, end, _, _, _ in spans]
    child_ns = [0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, (name, _, _, parent, _, _) in enumerate(spans):
        by_name[name].append(index)
        if parent >= 0:
            child_ns[parent] += duration[index]

    def calls(name):
        return len(by_name[name])

    def total_ms(name):
        return sum(duration[i] for i in by_name[name]) / 1e6

    def self_ms(name):
        return sum(duration[i] - child_ns[i] for i in by_name[name]) / 1e6

    out: dict[str, tuple[float, str, int]] = {}

    for name in (
        "gp.fit",
        "gp.predict_batch",
        "gp.prior_values",
        "acquisition.select_next",
        "reward.build_waypoint_reward",
        "reward.astar",
        "worlds.execute",
    ):
        out[f"{name}.calls"] = (calls(name), "count", calls(name))
        out[f"{name}.ms"] = (total_ms(name), "ms", calls(name))
    for name in ("gp.predict_batch", "acquisition.select_next"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms", calls(name))

    fits = by_name["gp.fit"]
    if fits:
        out["gp.fit.us.p50"] = (statistics.median(duration[i] for i in fits) / 1e3, "us", len(fits))
        out["gp.fit.obs.max"] = (max(int(spans[i][5]) for i in fits), "count", len(fits))
    priors = by_name["gp.prior_values"]
    out["gp.prior_values.points"] = (sum(int(spans[i][5]) for i in priors), "count", len(priors))
    selects = by_name["acquisition.select_next"]
    out["acquisition.scored_candidates"] = (sum(int(spans[i][5]) for i in selects), "count", len(selects))

    starts_by_mission: dict[int, set] = defaultdict(set)
    for i in by_name["reward.astar"]:
        starts_by_mission[spans[i][4]].add(spans[i][5])
    if by_name["reward.astar"]:
        distinct = sum(len(starts) for starts in starts_by_mission.values())
        out["reward.astar.distinct_start_ratio"] = (distinct / calls("reward.astar"), "ratio", calls("reward.astar"))

    per_method: dict[str, list[int]] = defaultdict(list)
    for i in by_name["mission"]:
        per_method[spans[i][5].split(":")[0]].append(i)
    for method, indices in per_method.items():
        out[f"mission.{method}.ms"] = (sum(duration[i] for i in indices) / 1e6, "ms", len(indices))
        capped = sum(spans[i][5].endswith(":1") for i in indices)
        out[f"mission.{method}.capped"] = (capped, "count", len(indices))

    for name in (
        "experiment.build_mission_config",
        "experiment.write_results",
        "config.parse_config_file",
        "map_elites.illuminate",
        "map_elites.save_archive",
        "map_elites.load_archive",
    ):
        if by_name[name]:
            out[f"{name}.ms"] = (total_ms(name), "ms", calls(name))
    saves = by_name["map_elites.save_archive"]
    if saves:
        out["map_elites.archive_bytes"] = (int(spans[saves[0]][5]), "bytes", len(saves))
    return out
