"""Grid MAP-Elites: illuminate a behavior space and keep the best per cell.

`illuminate` holds the offer rule and `bin_index` the binning rule. The
archive, filled by `illuminate` or `load_archive`, doubles as prior knowledge
for adaptation: each elite caches the outcome the intact model produced for
its behavior, and ArchivePrior serves those outcomes as a GP prior mean.
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


def bin_index(descriptor, grid_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Cell of a descriptor on the unit grid, one coordinate per grid axis:
    floor(d_i * n_i), top edge folded into the last bin. Descriptor
    coordinates are clamped to [0, 1] first."""
    # min/max clamp and int() truncation of a product in [0, n]: the same
    # IEEE operations as np.clip, np.floor and astype(int), without numpy's
    # per-call overhead.
    return tuple([min(int(min(max(d, 0.0), 1.0) * n), n - 1) for d, n in zip(descriptor, grid_shape)])


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


# Evaluator contract: behavior -> (descriptor, performance, outcome).
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, float, np.ndarray]]

# Optional per-evaluation hook, called as on_offer(cell, candidate, result).
OfferHook = Callable[[tuple[int, ...], Elite, OfferResult], None]


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
    """Fill an archive with exactly `budget` evaluator calls.

    Starts from a uniform random batch (a tenth of the budget, at least 100),
    then loops: pick a uniform random occupied cell, mutate its elite with
    isotropic Gaussian noise, clamp to the domain, evaluate, offer. The whole
    run is a pure function of the seed. A descriptor of the wrong length, or
    a non-finite descriptor or performance, from the evaluator raises
    ValueError naming the evaluation (counted from 0).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(upper <= lower):
        raise ValueError("domain bounds must satisfy lower < upper per coordinate")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    init_batch = initial_batch(budget, init_batch)
    if init_batch < 1 or init_batch > budget:
        raise ValueError(f"initial batch {init_batch} must be in [1, budget={budget}]")
    if mutation_sigma is None:
        mutation_sigma = 0.1 * float(np.max(upper - lower))
    if mutation_sigma <= 0:
        raise ValueError("mutation_sigma must be positive")

    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in grid_shape)
    # the first offer always enters; it makes the archive and sizes its outcomes
    archive: Optional[Archive] = None
    cells: dict[tuple[int, ...], Elite] = {}   # archive.cells once it exists
    occupied: list[tuple[int, ...]] = []

    def behaviors():
        # one draw for the whole batch is the same stream as one per row;
        # each row is copied so that no two elites share memory
        for row in rng.uniform(lower, upper, size=(init_batch, *lower.shape)):
            yield row.copy()
        for _ in range(init_batch, budget):
            parent = cells[occupied[rng.integers(len(occupied))]]
            child = parent.behavior + rng.normal(0.0, mutation_sigma, size=lower.shape)
            yield np.minimum(np.maximum(child, lower), upper)

    for index, behavior in enumerate(behaviors()):
        descriptor, performance, outcome = evaluator(behavior)
        desc = np.asarray(descriptor, dtype=float)
        if desc.shape != (len(shape),):
            raise ValueError(
                f"evaluation {index}: descriptor has {desc.size} coordinates, grid has {len(shape)}"
            )
        coords = desc.tolist()
        # checked in Python: np.isfinite would cost ~2 us more per evaluation
        if not (math.isfinite(performance) and all(map(math.isfinite, coords))):
            raise ValueError(
                f"evaluation {index}: evaluator returned a non-finite descriptor "
                f"{descriptor} or performance {performance}"
            )
        performance = float(performance)
        cell = bin_index(coords, shape)
        # The offer rule: an empty cell takes the offer, a strictly better
        # one replaces the incumbent, a tie keeps it.
        incumbent = cells.get(cell)
        if incumbent is None:
            result = OfferResult.INSERTED
        elif performance > incumbent.performance:
            result = OfferResult.REPLACED
        else:
            result = OfferResult.REJECTED
        if result is OfferResult.REJECTED and on_offer is None:
            continue
        candidate = Elite(behavior, desc, performance, outcome)
        if result is not OfferResult.REJECTED:
            if archive is None:
                archive = Archive(shape, candidate.behavior.size, candidate.outcome.size)
                cells = archive.cells
            cells[cell] = candidate
            if result is OfferResult.INSERTED:
                occupied.append(cell)
        if on_offer is not None:
            on_offer(cell, candidate, result)
    return archive


def _format_float(value: float) -> str:
    return repr(float(value))


def _format_vector(values: np.ndarray) -> str:
    return ",".join(_format_float(v) for v in np.asarray(values, dtype=float))


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
            f" perf={_format_float(elite.performance)}"
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
        binned = bin_index(descriptor.tolist(), grid_shape)
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

    Returns the cached intact outcome of the elite whose behavior matches the
    query; a query between elites falls back to the nearest elite's outcome,
    ties resolving to the lowest cell index.
    """

    def __init__(self, archive: Archive):
        elites = archive.elites()
        if not elites:
            raise ValueError("cannot build a prior from an empty archive")
        self._behaviors = np.array([e.behavior for e in elites])
        self._outcomes = np.array([e.outcome for e in elites])
        # reversed: a behavior in two cells keeps the lower one, as argmin does
        self._exact = {e.behavior.tobytes(): i for i, e in reversed(list(enumerate(elites)))}

    def __call__(self, x) -> np.ndarray:
        query = np.asarray(x, dtype=float)
        index = self._exact.get(query.tobytes())
        if index is None:
            deltas = self._behaviors - query[None, :]
            index = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
        return self._outcomes[index].copy()
