"""Report generation: the paper's tables and figure as text/CSV.

* :func:`speedup_table` — Tables IV-VIII layout (inputs x algorithms,
  with Min / Geomean / Max footer rows and a coverage line; failed
  cells render as ``FAIL(reason)``).
* :func:`geomean_summary` + :func:`fig6_bars` — Fig. 6's geometric-mean
  bars per algorithm per device.
* :func:`correlation_table` — Table IX: Pearson correlation of the
  speedups with edge count, vertex count, and average degree.
* :func:`to_csv` — the artifact's ``*_speedups.csv`` output format.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.study import SpeedupCell, paper_properties
from repro.errors import StudyError
from repro.utils.correlation import pearson
from repro.utils.stats import geometric_mean
from repro.utils.tables import format_table


def _grid(cells: list) -> tuple[list[str], list[str], dict]:
    """(inputs, algorithms, values) in first-seen order; a failed
    cell's value is its ``FAIL(reason)`` label."""
    inputs: list[str] = []
    algos: list[str] = []
    values: dict[tuple[str, str], object] = {}
    for c in cells:
        if c.input_name not in inputs:
            inputs.append(c.input_name)
        if c.algorithm not in algos:
            algos.append(c.algorithm)
        values[(c.input_name, c.algorithm)] = (
            c.speedup if isinstance(c, SpeedupCell) else f"FAIL({c.reason})")
    return inputs, algos, values


def speedup_table(cells: list, title: str = "") -> str:
    """Render cells as one of Tables IV-VIII (markdown).

    ``cells`` may mix :class:`SpeedupCell` with
    :class:`~repro.core.resilience.CellFailure`: failed cells render as
    ``FAIL(reason)``, the Min/Geomean/Max footer covers only the
    completed cells of each column, and any column with failures gets a
    ``[k/n]`` coverage annotation on its geomean so a partial sweep
    cannot masquerade as a complete one.  A coverage line follows the
    table, then one line per failure.
    """
    if not cells:
        raise StudyError("no cells to tabulate")
    inputs, algos, values = _grid(cells)
    rows: list[list[object]] = [
        [name] + [values.get((name, a), "") for a in algos]
        for name in inputs]
    footer: list[list[object]] = [
        ["Min Speedup"], ["Geomean Speedup"], ["Max Speedup"]]
    for a in algos:
        column = [values[(i, a)] for i in inputs if (i, a) in values]
        ok = [v for v in column if not isinstance(v, str)]
        if not ok:
            for row in footer:
                row.append("n/a")
            continue
        geo = geometric_mean(ok)
        footer[0].append(min(ok))
        footer[1].append(geo if len(ok) == len(column)
                         else f"{geo:.2f} [{len(ok)}/{len(column)}]")
        footer[2].append(max(ok))

    table = format_table(["Input"] + [a.upper() for a in algos],
                         rows + footer)
    failures = [c for c in cells if not isinstance(c, SpeedupCell)]
    done = len(cells) - len(failures)
    lines = [table, f"coverage: {done}/{len(cells)} cells completed"]
    lines += [f"  {f.describe()}: {f.message}" for f in failures]
    body = "\n".join(lines)
    return f"{title}\n{body}" if title else body


def geomean_summary(
    cells: list[SpeedupCell],
) -> dict[str, dict[str, float]]:
    """Fig. 6 data: device -> algorithm -> geometric-mean speedup."""
    grouped: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for c in cells:
        grouped[c.device_key][c.algorithm].append(c.speedup)
    return {
        dev: {algo: geometric_mean(vals) for algo, vals in algos.items()}
        for dev, algos in grouped.items()
    }


def fig6_bars(summary: dict[str, dict[str, float]],
              width: int = 40) -> str:
    """ASCII rendering of Fig. 6 (geomean speedup bars, 1.0 marked)."""
    lines = []
    scale = width / 1.5  # axis to 1.5x
    for dev in summary:
        lines.append(f"{dev}:")
        for algo, value in sorted(summary[dev].items()):
            bar = "#" * max(1, int(round(value * scale)))
            marker_pos = int(round(1.0 * scale))
            padded = list(bar.ljust(width))
            if marker_pos < len(padded):
                padded[marker_pos] = "|"
            lines.append(f"  {algo.upper():4s} {value:5.2f} {''.join(padded)}")
    return "\n".join(lines)


def correlation_table(cells: list[SpeedupCell], scale: float = 1.0) -> str:
    """Table IX: correlation of speedups with input graph properties.

    ``scale`` must match the study that produced ``cells`` so the
    correlated properties come from the graphs actually run."""
    by_dev_algo: dict[str, dict[str, list[SpeedupCell]]] = defaultdict(
        lambda: defaultdict(list))
    for c in cells:
        by_dev_algo[c.device_key][c.algorithm].append(c)
    blocks = []
    for dev, algo_map in by_dev_algo.items():
        algos = sorted(algo_map)
        headers = ["Correlated with"] + [a.upper() for a in algos]
        rows: list[list[object]] = []
        for label, prop_idx in (("Edge Count", 0), ("Vertex Count", 1),
                                ("Average Degree", 2)):
            row: list[object] = [label]
            for a in algos:
                pts = algo_map[a]
                xs = [paper_properties(c.input_name, scale=scale)[prop_idx]
                      for c in pts]
                ys = [c.speedup for c in pts]
                try:
                    row.append(pearson(xs, ys))
                except ValueError:
                    row.append(float("nan"))
            rows.append(row)
        blocks.append(f"{dev}\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


def to_csv(cells: list[SpeedupCell]) -> str:
    """The artifact's speedups CSV: input row per line, one column per
    algorithm (plus the device, since we simulate several)."""
    if not cells:
        raise StudyError("no cells to export")
    inputs, algos, values = _grid(cells)
    device = cells[0].device_key
    lines = ["input,device," + ",".join(algos)]
    for name in inputs:
        vals = ",".join(
            f"{values[(name, a)]:.4f}" if (name, a) in values else ""
            for a in algos
        )
        lines.append(f"{name},{device},{vals}")
    return "\n".join(lines)
