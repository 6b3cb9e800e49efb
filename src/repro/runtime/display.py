"""Formatting of MxArray values for display (``disp``, unterminated
statements, ``fprintf``/``sprintf``).

Output is routed through an :class:`OutputSink` so that the engines (and
tests) can capture what a program printed instead of writing to stdout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeMatlabError
from repro.runtime.mxarray import IntrinsicClass, MxArray


class OutputSink:
    """Collects program output; ``str(sink)`` yields the transcript."""

    def __init__(self):
        self._chunks: list[str] = []

    def write(self, text: str) -> None:
        self._chunks.append(text)

    def getvalue(self) -> str:
        return "".join(self._chunks)

    def clear(self) -> None:
        self._chunks.clear()

    def mark(self) -> int:
        """Position token for :meth:`truncate` (deopt re-execution)."""
        return len(self._chunks)

    def truncate(self, mark: int) -> None:
        """Drop everything written after ``mark`` — a deoptimized compiled
        call may have printed before faulting; the interpreter re-run
        produces the authoritative transcript."""
        del self._chunks[mark:]

    def __str__(self) -> str:
        return self.getvalue()


def format_scalar(value: float | complex) -> str:
    """Format one numeric element roughly like MATLAB's ``format short``."""
    if isinstance(value, complex):
        real = format_scalar(value.real)
        sign = "+" if value.imag >= 0 else "-"
        imag = format_scalar(abs(value.imag))
        return f"{real} {sign} {imag}i"
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4f}"


def format_value(value: MxArray, name: str | None = None) -> str:
    """Render an assignment echo, e.g. ``x =\\n     3``."""
    header = f"{name} =\n" if name else ""
    if value.is_string:
        return f"{header}{value.text}\n"
    if value.is_empty:
        return f"{header}     []\n"
    if value.is_scalar:
        return f"{header}     {format_scalar(value.scalar())}\n"
    view = value.view()
    lines = []
    for r in range(value.rows):
        cells = [format_scalar(complex(view[r, c]) if value.tag is IntrinsicClass.COMPLEX else float(view[r, c]))
                 for c in range(value.cols)]
        lines.append("     " + "   ".join(cells))
    return header + "\n".join(lines) + "\n"


def sprintf(fmt: str, args: list[MxArray]) -> str:
    """MATLAB ``sprintf``: C-style format, arguments consumed cyclically.

    Supports the subset of conversions the benchmarks use: %d %i %f %e %g
    %s %c %% and the escapes \\n \\t \\\\.
    """
    fmt = (
        fmt.replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\\\\", "\\")
    )
    flat: list[float | complex | str] = []
    for boxed in args:
        if boxed.is_string:
            flat.append(boxed.text)
        else:
            flat.extend(boxed.view().T.ravel().tolist())
    if not flat:
        return fmt.replace("%%", "%")
    out: list[str] = []
    cursor = 0
    position = 0
    consumed_any = True
    # MATLAB reapplies the whole format until arguments run out.
    while True:
        position = 0
        started = cursor
        while position < len(fmt):
            ch = fmt[position]
            if ch != "%":
                out.append(ch)
                position += 1
                continue
            if position + 1 < len(fmt) and fmt[position + 1] == "%":
                out.append("%")
                position += 2
                continue
            end = position + 1
            while end < len(fmt) and fmt[end] not in "diouxXeEfgGsc":
                end += 1
            if end >= len(fmt):
                raise RuntimeMatlabError(f"sprintf: bad format {fmt!r}")
            spec = fmt[position: end + 1]
            conv = fmt[end]
            if cursor >= len(flat):
                position = end + 1
                continue
            arg = flat[cursor]
            cursor += 1
            if conv in "diouxX":
                value = int(np.real(arg)) if not isinstance(arg, str) else arg
                out.append(spec.replace("i", "d") % value)
            elif conv in "eEfgG":
                value = float(np.real(arg)) if not isinstance(arg, str) else arg
                out.append(spec % value)
            elif conv == "s":
                out.append(spec % (arg if isinstance(arg, str) else format_scalar(arg)))
            elif conv == "c":
                if isinstance(arg, str):
                    out.append(arg[:1])
                else:
                    out.append(chr(int(np.real(arg))))
            position = end + 1
        if cursor >= len(flat) or cursor == started:
            break
    return "".join(out)
