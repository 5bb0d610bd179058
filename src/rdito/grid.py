"""Periodic-box field grids and the discrete Fourier pair used throughout.

A field on the torus [0, L_1) x ... x [0, L_d) is sampled on a regular grid.
The momentum representation uses the physicists' convention

    vhat(k) = sum_x v(x) e^{-i k.x} dV,      k = 2 pi m / L,

so that vhat(0) approximates the integral of v over the box and the inverse
carries the 1/(2 pi)^d in its measure.  FieldGrid keeps full complex spectra,
so it can hold any momentum field.  Solvers whose fields are real work on the
half spectrum instead (last axis k >= 0, since X(-k) = conj X(k)) through one
unnormalized transform pair, half_fft and half_ifft.
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

    def integral(self) -> float:
        """Integral over the box (position rep) or value at k=0 (momentum)."""
        if self.rep == POSITION:
            return float(np.sum(self.values) * self.cell_volume)
        return float(np.real(self.values[(0,) * self.dim]))

    def with_values(self, values: np.ndarray) -> "FieldGrid":
        return FieldGrid(self.box, values, self.rep)


def half_spectrum(a: np.ndarray) -> np.ndarray:
    """The k >= 0 half of the last axis of a full (fftfreq-layout) array:
    its first n // 2 + 1 points, the layout of half_fft's output."""
    return a[..., : a.shape[-1] // 2 + 1]


def half_fft(x: np.ndarray) -> np.ndarray:
    """Unnormalized DFT of a real array over all its axes, on the half
    spectrum: rfft on the last axis, then fft on each other axis.

    The 1-D calls skip the n-D wrappers (fftn, rfftn), whose per-call
    overhead dominates at the small grids of the tree-level solvers.
    """
    out = np.fft.rfft(x)
    for ax in range(x.ndim - 1):
        out = np.fft.fft(out, axis=ax)
    return out


def half_ifft(xh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of half_fft over the last len(shape) axes of `xh`: the real
    array of grid `shape` whose half spectrum is `xh`, for each leading index."""
    for ax in range(-len(shape), -1):
        xh = np.fft.ifft(xh, axis=ax)
    return np.fft.irfft(xh, n=shape[-1])


def full_spectrum(xh: np.ndarray, n: int) -> np.ndarray:
    """Full spectrum of a real array from its half spectrum `xh` (last axis
    of full length n), completed by X(-k) = conj X(k)."""
    m = xh.shape[-1]
    neg = [(-np.arange(s)) % s for s in xh.shape[:-1]]
    tail = xh[np.ix_(*neg, np.arange(n - m, 0, -1))]
    return np.concatenate([xh, tail.conj()], axis=-1)


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
