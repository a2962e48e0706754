"""Grid MAP-Elites: illuminate a behavior space and keep the best per cell.

`illuminate` holds the offer rule and `bin_index` the binning rule, which it
applies to a block of children at once. The archive, filled by `illuminate`
or `load_archive`, doubles as prior knowledge for adaptation: each elite
caches the outcome the intact model produced for its behavior, and
ArchivePrior serves them at those behaviors as a GP prior mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np


class ArchiveFormatError(ValueError):
    """Raised when serialized archive text does not parse."""


class OfferResult(Enum):
    INSERTED = "inserted"
    REPLACED = "replaced"
    REJECTED = "rejected"


def bin_index(descriptors, grid_shape: tuple[int, ...]) -> np.ndarray:
    """Cells of descriptors on the unit grid, one column per grid axis, for
    one descriptor or a (k, m) array of them: floor(d_i * n_i), top edge
    folded into the last bin. Descriptor coordinates are clamped to [0, 1] first."""
    sizes = np.asarray(grid_shape, dtype=float)
    # folded in floats: an integer np.minimum would page in numpy code nothing else runs
    cells = np.floor(np.clip(np.asarray(descriptors, dtype=float), 0.0, 1.0) * sizes)
    return np.minimum(cells, sizes - 1.0).astype(int)


@dataclass(frozen=True)
class Elite:
    behavior: np.ndarray     # genotype evaluated
    descriptor: np.ndarray   # in [0, 1]^m
    performance: float
    outcome: np.ndarray      # cached intact-model outcome for this behavior

    def __post_init__(self):
        object.__setattr__(self, "behavior", np.asarray(self.behavior, dtype=float))
        object.__setattr__(
            self, "descriptor", np.clip(np.asarray(self.descriptor, dtype=float), 0.0, 1.0)
        )
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))


class Archive:
    """Sparse elite-per-cell store over a fixed descriptor grid."""

    def __init__(self, grid_shape: Iterable[int], behavior_dim: int, outcome_dim: int):
        self.grid_shape = tuple(int(n) for n in grid_shape)
        if any(n < 1 for n in self.grid_shape):
            raise ValueError(f"grid shape must be positive, got {self.grid_shape}")
        self.behavior_dim = int(behavior_dim)
        self.outcome_dim = int(outcome_dim)
        self.cells: dict[tuple[int, ...], Elite] = {}

    @property
    def total_cells(self) -> int:
        return math.prod(self.grid_shape)  # np.prod would wrap at 2**63

    @property
    def coverage(self) -> float:
        return len(self.cells) / self.total_cells

    def __len__(self) -> int:
        return len(self.cells)

    def items(self) -> list[tuple[tuple[int, ...], Elite]]:
        return sorted(self.cells.items())

    def elites(self) -> list[Elite]:
        return [elite for _, elite in self.items()]


# Evaluator contract: behaviors (k, b) -> descriptors (k, m), performances (k,),
# outcomes (k, d). Each row must be a pure function of its behavior.
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# Optional per-offer hook, called as on_offer(cell, candidate, result).
OfferHook = Callable[[tuple[int, ...], Elite, OfferResult], None]

BLOCK = 64   # children built, evaluated and binned as one array


def initial_batch(budget: int, init_batch: Optional[int] = None) -> int:
    """Size of illuminate's uniform random batch: `init_batch` when given,
    else a tenth of the budget, at least 100."""
    return max(100, budget // 10) if init_batch is None else init_batch


def illuminate(
    evaluator: Evaluator,
    budget: int,
    seed: int,
    lower,
    upper,
    grid_shape: tuple[int, ...],
    mutation_sigma: Optional[float] = None,
    init_batch: Optional[int] = None,
    on_offer: Optional[OfferHook] = None,
) -> Archive:
    """Fill an archive with exactly `budget` offers.

    Starts from a uniform random batch (a tenth of the budget, at least 100),
    then loops: pick a uniform random occupied cell, mutate its elite with
    isotropic Gaussian noise, clamp to the domain, evaluate, offer. The whole
    run is a pure function of the seed. Children are evaluated BLOCK at a time
    and offered in order; the evaluator may see a behavior again or one never
    offered, so it must be pure. Descriptors of the wrong shape, or a non-finite
    descriptor or performance, raise ValueError naming the offer (from 0).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape or np.any(upper <= lower):
        raise ValueError("domain bounds must be vectors with lower < upper per coordinate")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    init_batch = initial_batch(budget, init_batch)
    if init_batch < 1 or init_batch > budget:
        raise ValueError(f"initial batch {init_batch} must be in [1, budget={budget}]")
    if mutation_sigma is None:
        mutation_sigma = 0.1 * float(np.max(upper - lower))
    if not mutation_sigma > 0:
        raise ValueError("mutation_sigma must be positive")

    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in grid_shape)
    slot_of: dict[tuple[int, ...], int] = {}    # cell -> slot: its place in filling order, what a pick draws
    parents = np.empty((min(math.prod(shape), budget), lower.size))   # each slot's elite behavior
    best = [-math.inf] * (len(parents) + 1)   # and performance; slot -1, an empty cell, reads -inf

    def draw(n):   # one child's parent pick and noise
        return rng.integers(n), rng.normal(0.0, mutation_sigma, size=lower.shape)

    archive, offered = None, 0
    while offered < budget:
        mutating = offered >= init_batch
        k = min(BLOCK, (budget if mutating else init_batch) - offered)
        if mutating:
            state, n = rng.bit_generator.state, len(slot_of)
            picks, noise = zip(*[draw(n) for _ in range(k)])
            children = parents[list(picks)] + np.array(noise)
            np.minimum(np.maximum(children, lower, out=children), upper, out=children)
        else:
            children = rng.uniform(lower, upper, size=(k, lower.size))
        descriptors, performances, outcomes = (np.asarray(a, dtype=float) for a in evaluator(children))
        if descriptors.shape != (k, len(shape)):
            raise ValueError(f"offer {offered}: descriptors of shape {descriptors.shape}, grid has {len(shape)} axes")
        finite = np.isfinite(descriptors).all(axis=1) & np.isfinite(performances)
        cells = bin_index(np.where(finite[:, None], descriptors, 0.0), shape)   # a non-finite row would warn
        rows = zip(map(tuple, cells.tolist()), finite.tolist(), performances.tolist())
        if archive is None:
            archive = Archive(shape, lower.size, outcomes.shape[1])
        for j, (cell, ok, performance) in enumerate(rows):
            if not ok:
                raise ValueError(f"offer {offered + j}: evaluator returned a non-finite descriptor "
                                 f"{descriptors[j]} or performance {performances[j]}")
            # The offer rule: an empty cell takes the offer, a strictly better
            # one replaces the incumbent, a tie keeps it.
            slot = slot_of.get(cell, -1)
            kept = performance > best[slot]
            if not kept and on_offer is None:   # a rejection needs no work
                continue
            result = OfferResult.INSERTED if slot < 0 else OfferResult.REPLACED if kept else OfferResult.REJECTED
            candidate = Elite(children[j].copy(), descriptors[j], performance, outcomes[j].copy())
            if slot < 0:
                slot = slot_of[cell] = len(slot_of)
            if kept:
                parents[slot], best[slot] = children[j], performance
                archive.cells[cell] = candidate
            if on_offer is not None:
                on_offer(cell, candidate, result)
            if mutating and kept and j + 1 < k and (result is OfferResult.INSERTED or slot in picks[j + 1:]):
                # the pick bound or a later child's parent changed: end the block, draw the rest again
                rng.bit_generator.state = state
                for _ in range(j + 1):
                    draw(n)
                k = j + 1
                break
        offered += k
    return archive


def _format_vector(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values, dtype=float))


def save_archive(archive: Archive) -> bytes:
    """Serialize to the line-oriented text format, elites in cell order.

    Floats are written with shortest round-trip precision, so saving a loaded
    archive reproduces the input bytes exactly.
    """
    grid = "x".join(str(n) for n in archive.grid_shape)
    lines = [
        f"sela-archive v1 m={len(archive.grid_shape)} grid={grid} "
        f"b={archive.behavior_dim} d={archive.outcome_dim}"
    ]
    for cell, elite in archive.items():
        lines.append(
            f"cell={','.join(str(i) for i in cell)}"
            f" behavior={_format_vector(elite.behavior)}"
            f" descriptor={_format_vector(elite.descriptor)}"
            f" perf={float(elite.performance)!r}"
            f" outcome={_format_vector(elite.outcome)}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_vector(text: str, expected: int, what: str, line_no: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != expected:
        raise ArchiveFormatError(
            f"line {line_no}: {what} has {len(parts)} coordinates, expected {expected}"
        )
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ArchiveFormatError(f"line {line_no}: malformed {what} value") from exc
    if not np.isfinite(values).all():
        raise ArchiveFormatError(f"line {line_no}: non-finite {what} value")
    return values


def load_archive(data: bytes) -> Archive:
    text = data.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ArchiveFormatError("line 1: empty archive data")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "sela-archive" or header[1] != "v1":
        raise ArchiveFormatError(f"line 1: unrecognized header {lines[0]!r}")
    fields = {}
    for token in header[2:]:
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        m = int(fields["m"])
        grid_shape = tuple(int(n) for n in fields["grid"].split("x"))
        behavior_dim = int(fields["b"])
        outcome_dim = int(fields["d"])
    except (KeyError, ValueError) as exc:
        raise ArchiveFormatError(f"line 1: malformed header {lines[0]!r}") from exc
    if len(grid_shape) != m:
        raise ArchiveFormatError(f"line 1: grid lists {len(grid_shape)} sizes, m={m}")
    if min(grid_shape + (behavior_dim, outcome_dim)) < 1:
        raise ArchiveFormatError(f"line 1: grid sizes, b and d must be positive in {lines[0]!r}")

    archive = Archive(grid_shape, behavior_dim, outcome_dim)
    listed: dict[bytes, int] = {}   # the line of each behavior
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        entry = {}
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ArchiveFormatError(f"line {line_no}: malformed token {token!r}")
            entry[key] = value
        missing = {"cell", "behavior", "descriptor", "perf", "outcome"} - entry.keys()
        if missing:
            raise ArchiveFormatError(f"line {line_no}: missing field {sorted(missing)[0]!r}")
        try:
            cell = tuple(int(i) for i in entry["cell"].split(","))
        except ValueError as exc:
            raise ArchiveFormatError(f"line {line_no}: malformed cell index") from exc
        if len(cell) != m or any(not 0 <= c < n for c, n in zip(cell, grid_shape)):
            raise ArchiveFormatError(f"line {line_no}: cell {cell} outside grid {grid_shape}")
        if cell in archive.cells:
            raise ArchiveFormatError(f"line {line_no}: duplicate cell {cell}")
        descriptor = _parse_vector(entry["descriptor"], m, "descriptor", line_no)
        # Elite would clip a descriptor outside [0, 1], and saving the
        # archive would then no longer give the input bytes
        if not ((descriptor >= 0.0) & (descriptor <= 1.0)).all():
            raise ArchiveFormatError(f"line {line_no}: descriptor outside [0, 1]")
        binned = tuple(bin_index(descriptor, grid_shape).tolist())
        if binned != cell:
            raise ArchiveFormatError(
                f"line {line_no}: descriptor bins to cell {binned}, not {cell}"
            )
        elite = Elite(
            behavior=_parse_vector(entry["behavior"], behavior_dim, "behavior", line_no),
            descriptor=descriptor,
            performance=float(_parse_vector(entry["perf"], 1, "perf", line_no)[0]),
            outcome=_parse_vector(entry["outcome"], outcome_dim, "outcome", line_no),
        )
        # + 0.0: -0.0 is the same behavior as 0.0, as the candidate set compares them
        first = listed.setdefault((elite.behavior + 0.0).tobytes(), line_no)
        if first != line_no:
            raise ArchiveFormatError(f"line {line_no}: behavior already listed on line {first}")
        archive.cells[cell] = elite
    return archive


class ArchivePrior:
    """Prior mean backed by an archive.

    Returns a copy of the cached intact outcome of the elite whose behavior
    is the query, bit for bit; a behavior held by two cells gives the lower
    cell's outcome, and -0.0 is 0.0 there, as in `load_archive`. A query that
    is no elite's behavior raises ValueError.
    """

    def __init__(self, archive: Archive):
        elites = archive.elites()
        if not elites:
            raise ValueError("cannot build a prior from an empty archive")
        # reversed: a behavior in two cells keeps the lower one
        self._outcomes = {(e.behavior + 0.0).tobytes(): e.outcome for e in reversed(elites)}

    def __call__(self, x) -> np.ndarray:
        query = np.asarray(x, dtype=float)
        outcome = self._outcomes.get((query + 0.0).tobytes())
        if outcome is None:
            raise ValueError(f"no elite in the archive has behavior {query.tolist()}")
        return outcome.copy()
