"""Sampled trajectory container and CSV I/O.

CSV schema: header ``t,x1,...,xn`` for flow data or ``idx,x1,...,xn`` for
iteration-indexed (map) data, one sample per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NonFiniteData


@dataclass
class Trajectory:
    times: np.ndarray            # (N,) strictly increasing t or iteration index
    states: np.ndarray           # (N, n)
    kind: str = "flow"           # "flow" | "map"
    interpolant: object = field(default=None, repr=False, compare=False)

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

    def column(self, j):
        return self.states[:, j]

    def write_csv(self, path):
        label = "t" if self.kind == "flow" else "idx"
        header = ",".join([label] + [f"x{i + 1}" for i in range(self.dim)])
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def read_csv(cls, path):
        with open(path) as fh:
            first = fh.readline().strip()
        kind = "map" if first.lower().startswith("idx") else "flow"
        skip = 0 if first and first[0].isdigit() or first.startswith("-") else 1
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: not a numeric CSV table ({exc})") \
                from None
        if data.shape[1] < 2:
            raise InputError(f"{path}: need an index column plus state columns")
        if not np.isfinite(data).all():
            raise NonFiniteData(f"{path}: NaN or infinite values")
        return cls(times=data[:, 0], states=data[:, 1:], kind=kind)
