"""Record export: CSV tables and SVG line plots.

:func:`write_csv` writes any record in its type's column layout (rate
:class:`~oscint.model.Trajectory`, :class:`~oscint.circuit.CircuitTrajectory`
or :class:`~oscint.predict.PredictionResult`), and :func:`plot_series` picks
the traces an SVG of it draws, so a caller needs nothing but the record.

CSV values are written with repr-quality precision (%.17g) so that a
write/read/write cycle is byte-identical.  A writer writes every
``stride``-th sample (all by default); the stride divides the step count, so
the last sample is always written.  Rows stream to the file in blocks of
about 2**16 cells, so the memory a write holds is bounded by one block, not
by the record.  Columns that view the same memory (same data
pointer, strides, shape and dtype), such as the broadcast views of gains
every neuron shares, are formatted once per block.  The file is written
beside its path and renamed onto it, so a write that fails leaves no
truncated artifact and any file already at the path keeps its bytes.  SVG
output is a minimal hand-assembled polyline plot — axes, ticks, legend —
with no plotting dependency; the plots are presentation aids, nothing
parses them back.
"""

from __future__ import annotations

import os
import uuid
from collections import Counter
from pathlib import Path

import numpy as np

from .circuit import CircuitTrajectory
from .model import SampledRecord, Trajectory, _whole
from .predict import PredictionResult

# Cells per streamed block: one block's floats and row strings are the
# most a write holds at once (a few MB).
_BLOCK_CELLS = 1 << 16


def _write_rows(path: Path, header: list[str], columns: list[np.ndarray],
                stride: int = 1) -> None:
    steps = len(columns[0]) - 1
    if steps % _whole(stride, "stride", 1):
        raise ValueError(f"stride {stride} does not divide the {steps} steps")
    columns = [c[::stride] for c in columns]
    # A column viewed more than once enters the row format as text.
    keys = [(c.__array_interface__["data"][0], c.strides, c.shape, c.dtype.str)
            for c in columns]
    distinct = dict(zip(keys, columns))
    repeated = {key for key, uses in Counter(keys).items() if uses > 1}
    line = ",".join(["%s" if key in repeated else "%.17g" for key in keys]) + "\n"
    step = max(1, _BLOCK_CELLS // len(columns))
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as f:
            f.write(",".join(header) + "\n")
            for start in range(0, len(columns[0]), step):
                cells = {key: c[start:start + step].tolist() for key, c in distinct.items()}
                for key in repeated:
                    cells[key] = ("%.17g\n" * len(cells[key]) % tuple(cells[key])).splitlines()
                rows = zip(*[cells[key] for key in keys])
                f.write("".join([line % row for row in rows]))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _per_unit(times: np.ndarray, tags, named: list[tuple[str, np.ndarray]]
              ) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns: ``t``, then unit by unit a ``{name}_{tag}`` column
    for each (name, (T, N) array) pair."""
    header, columns = ["t"], [times]
    for j, tag in enumerate(tags):
        for name, values in named:
            header.append(f"{name}_{tag}")
            columns.append(values[:, j])
    return header, columns


def write_trajectory_csv(path: str | Path, traj: Trajectory, stride: int = 1) -> None:
    """Columns: t, then re_y_j, im_y_j, a_j, b_j grouped per neuron."""
    named = [("re_y", traj.y.real), ("im_y", traj.y.imag), ("a", traj.a), ("b", traj.b)]
    _write_rows(Path(path), *_per_unit(traj.times, range(traj.y.shape[1]), named), stride)


def write_circuit_csv(path: str | Path, traj: CircuitTrajectory,
                      stride: int = 1) -> None:
    """Same layout with per-compartment potential columns per neuron:
    v_plus_j, v_minus_j, va_plus_j, va_minus_j, vb_plus_j, vb_minus_j, a_j, b_j."""
    named = [(f"{stack}_{sign}", getattr(traj, stack)[:, side])
             for stack in ("v", "va", "vb")
             for side, sign in enumerate(("plus", "minus"))]
    _write_rows(Path(path), *_per_unit(traj.times, range(traj.a.shape[1]),
                                       named + [("a", traj.a), ("b", traj.b)]), stride)


def write_prediction_csv(path: str | Path, result: PredictionResult,
                         stride: int = 1) -> None:
    """Trajectory layout with channels labeled by frequency (re_y_2hz, ...),
    then the readout and quadrature columns."""
    header, columns = _per_unit(result.times, [f"{f:g}hz" for f in result.freqs_hz],
                                [("re_y", result.y.real), ("im_y", result.y.imag)])
    _write_rows(Path(path), header + ["readout", "quadrature"],
                columns + [result.readout, result.quadrature], stride)


def write_csv(path: str | Path, record: SampledRecord, stride: int = 1) -> None:
    """Write every ``stride``-th sample of ``record`` in its type's column
    layout (the writers above)."""
    if isinstance(record, CircuitTrajectory):
        write_circuit_csv(path, record, stride)
    elif isinstance(record, PredictionResult):
        write_prediction_csv(path, record, stride)
    elif isinstance(record, Trajectory):
        write_trajectory_csv(path, record, stride)
    else:
        raise TypeError(f"no CSV layout for {type(record).__name__}")


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)


def plot_series(record: SampledRecord) -> dict[str, np.ndarray]:
    """The traces an SVG of ``record`` draws, by label: at most
    ``len(_PALETTE)``, so no two share a colour.

    A bank draws Re(y) of every k-th channel, k = ceil(C / 9), and its
    readout.  A rate or circuit record draws the response (Re(y), or the
    circuit's y_net) of every k-th unit, k = max(1, N // 8, ceil(N / 10)).
    """
    limit = len(_PALETTE)
    if isinstance(record, PredictionResult):
        freqs = record.freqs_hz
        step = max(1, -(-len(freqs) // (limit - 1)))
        return {f"re_y_{freqs[j]:g}hz": record.y[:, j].real
                for j in range(0, len(freqs), step)} | {"readout": record.readout}
    if isinstance(record, CircuitTrajectory):
        name, y = "y_net", record.y_net
    else:
        name, y = "re_y", record.y.real
    n = y.shape[1]
    step = max(1, n // 8, -(-n // limit))
    return {f"{name}_{j}": y[:, j] for j in range(0, n, step)}


def write_svg_lines(
    path: str | Path,
    x: np.ndarray,
    series: dict[str, np.ndarray],
    title: str = "",
    y_label: str = "",
) -> None:
    """Write a multi-series line plot against time (ms) as a standalone
    860 x 420 SVG file."""
    x = np.asarray(x, dtype=np.float64)
    width, height = 860, 420
    margin_l, margin_r, margin_t, margin_b = 64, 150, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    all_y = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(v: np.ndarray) -> np.ndarray:
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: np.ndarray) -> np.ndarray:
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_l}" y="20" font-family="sans-serif" '
        f'font-size="14" font-weight="bold">{title}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    x0, y0 = margin_l, margin_t + plot_h
    parts.append(f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" {axis_style}/>')
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{margin_l + plot_w}" y2="{y0}" {axis_style}/>'
    )
    for tx in np.linspace(x_lo, x_hi, 5).tolist():
        sx = float(px(np.float64(tx)))
        parts.append(f'<line x1="{sx:.2f}" y1="{y0}" x2="{sx:.2f}" y2="{y0 + 5}" {axis_style}/>')
        parts.append(
            f'<text x="{sx:.2f}" y="{y0 + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{tx:g}</text>'
        )
    for ty in np.linspace(y_lo, y_hi, 5).tolist():
        sy = float(py(np.float64(ty)))
        parts.append(f'<line x1="{x0 - 5}" y1="{sy:.2f}" x2="{x0}" y2="{sy:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{sy + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 8}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">t (ms)</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.0f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.0f})">{y_label}</text>'
        )

    # Downsample long traces for the drawing only (the CSV keeps full data).
    max_points = 2000
    stride = max(1, len(x) // max_points)
    for idx, (label, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        vx = px(x[::stride])
        vy = py(np.asarray(values, dtype=np.float64)[::stride])
        points = " ".join(["%.2f,%.2f" % pair
                           for pair in zip(vx.tolist(), vy.tolist())])
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points}"/>'
        )
        ly = margin_t + 14 + 16 * idx
        lx = margin_l + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
