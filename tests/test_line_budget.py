"""`src/sela` stays within its line budget (ROADMAP item 6): the lines of
`src/sela/*.py`, counted as `wc -l` counts them, total at most 2,047.

The bar only falls. The one change that may raise it is ROADMAP item 1 (the
mission trace), once, by at most 90 lines, and that change must say so in
CHANGES.md."""

from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sela"

LINE_BAR = 2_047


def test_src_sela_is_within_the_line_bar():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SOURCE.glob("*.py"))}
    assert counts, f"no modules under {SOURCE}"
    per_module = ", ".join(f"{name} {count}" for name, count in counts.items())
    total = sum(counts.values())
    assert total <= LINE_BAR, f"src/sela has {total} lines, over the bar of {LINE_BAR}: {per_module}"
