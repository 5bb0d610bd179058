"""Periodic-box field grids and the discrete Fourier pair used throughout.

A field on the torus [0, L_1) x ... x [0, L_d) is sampled on a regular grid.
The momentum representation uses the physicists' convention

    vhat(k) = sum_x v(x) e^{-i k.x} dV,      k = 2 pi m / L,

so that vhat(0) approximates the integral of v over the box and the inverse
carries the 1/(2 pi)^d in its measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class FieldGrid:
    """Sampled field on a periodic box, in position or momentum representation."""

    box: tuple[float, ...]
    values: np.ndarray
    rep: str = POSITION

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))
        vals = np.asarray(self.values)
        if self.rep == POSITION:
            vals = np.asarray(vals, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != len(self.box):
            raise ValueError(
                f"values have {vals.ndim} axes but box has {len(self.box)}"
            )
        if self.rep not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown representation {self.rep!r}")

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(b / n for b, n in zip(self.box, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> list[np.ndarray]:
        """Position sample points per axis."""
        return [
            np.arange(n) * (b / n) for b, n in zip(self.box, self.shape)
        ]

    def kaxes(self) -> list[np.ndarray]:
        """Angular-frequency sample points per axis (fftfreq layout)."""
        return [
            2.0 * np.pi * np.fft.fftfreq(n, d=b / n)
            for b, n in zip(self.box, self.shape)
        ]

    def ksquared(self) -> np.ndarray:
        """|k|^2 on the full grid, fftfreq layout."""
        ks = self.kaxes()
        out = np.zeros(self.shape)
        for ax, k in enumerate(ks):
            sh = [1] * self.dim
            sh[ax] = len(k)
            out = out + (k ** 2).reshape(sh)
        return out

    def to_momentum(self) -> "FieldGrid":
        if self.rep == MOMENTUM:
            return self
        vhat = np.fft.fftn(self.values) * self.cell_volume
        return FieldGrid(self.box, vhat, MOMENTUM)

    def to_position(self) -> "FieldGrid":
        if self.rep == POSITION:
            return self
        v = np.fft.ifftn(self.values) / self.cell_volume
        return FieldGrid(self.box, v.real, POSITION)

    def integral(self) -> float:
        """Integral over the box (position rep) or value at k=0 (momentum)."""
        if self.rep == POSITION:
            return float(np.sum(self.values) * self.cell_volume)
        return float(np.real(self.values[(0,) * self.dim]))

    def with_values(self, values: np.ndarray) -> "FieldGrid":
        return FieldGrid(self.box, values, self.rep)


def point_labels(axes, sep: str = ",") -> list[str]:
    """Label of every point of the grid spanned by `axes`, in C order: the
    point's coordinates, each formatted with repr, joined by `sep`."""
    cols = [m.ravel().tolist() for m in np.meshgrid(*axes, indexing="ij")]
    return [sep.join(map(repr, p)) for p in zip(*cols)]


def table_rows(lead: str, labels: list[str], values: np.ndarray) -> list[str]:
    """CSV rows `lead,label,value` for values in C order, one per label.

    Values are written with repr, so float(cell) gives back each value exactly.
    """
    values = np.ravel(values).tolist()
    return [f"{lead},{lab},{v!r}" for lab, v in zip(labels, values, strict=True)]
