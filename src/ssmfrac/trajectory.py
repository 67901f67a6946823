"""Sampled trajectory container and CSV I/O.

Every CSV table the toolkit reads (trajectories, matrices, log-eigenvalue
lists) is parsed by ``read_table``. Trajectory schema: header
``t,x1,...,xn`` for flow data or ``idx,x1,...,xn`` for iteration-indexed
(map) data, one sample per row.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonFiniteData


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# the whitespace of a line that it leaves blank or comment-only, after its
# newline; once that is gone, a line that is neither starts with neither '#'
# nor a newline. Compiled at first use (``re`` caches them), not at import.
_BLANK = r"\n[^\S\n]+(?=[#\n]|$)"
_CONTENT = r"(?m)^[^#\n].*"


def read_table(path):
    """(header, rows) of a comma-separated table of finite numbers.

    '#' starts a comment, and blank or comment-only lines are skipped. The
    first remaining line is a header, returned as its list of fields, only
    when none of its fields is a number; otherwise header is None. A NaN or
    infinite cell raises NonFiniteData; any other cell that is not a
    number, ragged rows or no rows at all raise InputError. The rows are
    parsed by numpy's C reader, from the first one on.
    """
    try:
        with open(path) as fh:
            text = re.sub(_BLANK, "\n", "\n" + fh.read())
        content = re.compile(_CONTENT)
        first = content.search(text)
        fields = first.group().split("#", 1)[0].split(",") if first else []
        header = [f.strip() for f in fields] \
            if fields and not any(map(_is_number, fields)) else None
        rows = first if header is None else content.search(text, first.end())
        if rows is None:
            raise InputError(f"{path}: no numeric rows")
        table = np.loadtxt(io.StringIO(text[rows.start():]), delimiter=",",
                           comments="#", ndmin=2)
    except ValueError as exc:            # a bad cell, ragged rows, encoding
        raise InputError(f"{path}: not a numeric CSV table ({exc})") from None
    if not np.isfinite(table).all():
        raise NonFiniteData(f"{path}: NaN or infinite values")
    return header, table


@dataclass
class Trajectory:
    times: np.ndarray            # (N,) strictly increasing t or iteration index
    states: np.ndarray           # (N, n)
    kind: str = "flow"           # "flow" | "map"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        # extended-precision states are kept as given so that precision-
        # critical round-trip fits are not truncated on the way in
        self.states = np.asarray(self.states)
        if self.states.dtype != np.longdouble:
            self.states = self.states.astype(float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise InputError("times and states length mismatch")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise InputError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def uniform_step(self):
        """Constant sampling step, or None if spacing is not uniform."""
        if len(self.times) < 2:
            return None
        d = np.diff(self.times)
        h = d[0]
        if np.allclose(d, h, rtol=1e-8, atol=1e-12 * max(abs(h), 1.0)):
            return float(h)
        return None

    def write_csv(self, path):
        label = "t" if self.kind == "flow" else "idx"
        header = ",".join([label] + [f"x{i + 1}" for i in range(self.dim)])
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def read_csv(cls, path):
        header, data = read_table(path)
        kind = "map" if header and header[0].lower().startswith("idx") \
            else "flow"
        if data.shape[1] < 2:
            raise InputError(f"{path}: need an index column plus state columns")
        return cls(times=data[:, 0], states=data[:, 1:], kind=kind)
