"""Periodic-box field grids and the discrete Fourier pair used throughout.

A field on the torus [0, L_1) x ... x [0, L_d) is sampled on a regular grid.
The momentum representation uses the physicists' convention

    vhat(k) = sum_x v(x) e^{-i k.x} dV,      k = 2 pi m / L,

so that vhat(0) approximates the integral of v over the box and the inverse
carries the 1/(2 pi)^d in its measure.  A FieldGrid holds real position
samples only; FieldGrid.to_momentum returns its full complex spectrum as a
plain array.  Solvers whose fields are real work on the half spectrum instead
(last axis k >= 0, since X(-k) = conj X(k)) through one unnormalized
transform pair, half_fft and half_ifft.

A solver that repeats one linear map built from that pair (a heat step, a
convolution) wraps it in dense_map.  On grids of at most DENSE_CELLS cells
the map becomes one vector-matrix product: its matrix is the map applied to
the identity basis, so it is the same linear map, and it skips numpy's FFT
call overhead, which dominates there.  Above the crossover the FFTs win.
A map of a flat vector takes only the views it needs around that product
(a flat real vector to a flat real vector, none: the bare x @ matrix).

Every CSV table is written by table_block: per grid, the parts of one block
of rows `lead,label,value` are laid out once from the point labels, and a
block (one time step, one field) is one join of them, with the lead put in
once.  Values are written exactly as repr writes them, by a numpy formatter,
reprs (from floatrepr: Ryu's shortest round-trip digits, Adams, PLDI 2018),
so float(cell) gives each back exactly.  A table whose rows are solved one
at a time goes through stream_rows, which formats them while they are
solved: formatting holds the GIL, so from SPLIT_CELLS cells on, one forked
child formats every piece of rows sent down a pipe (_PIECE_CELLS, 2^13
cells, per reprs call) while this process solves, and a full pipe holds the
solve back.  It holds O(_PIECE_CELLS) cells and yields nothing before the
last row.
"""

from __future__ import annotations

import math
import os
import signal
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .floatrepr import reprs

@dataclass(frozen=True)
class FieldGrid:
    """Real field sampled on a regular grid of a periodic box."""

    box: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            raise ValueError("a FieldGrid holds real position samples, got complex values")
        object.__setattr__(self, "values", np.asarray(vals, dtype=float))
        if vals.ndim != len(self.box):
            raise ValueError(
                f"values have {vals.ndim} axes but box has {len(self.box)}"
            )

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

    def to_momentum(self) -> np.ndarray:
        """The full complex spectrum vhat(k), fftfreq layout."""
        return np.fft.fftn(self.values) * self.cell_volume

    def integral(self) -> float:
        """Integral over the box."""
        return float(np.sum(self.values) * self.cell_volume)

    def with_values(self, values: np.ndarray) -> "FieldGrid":
        return FieldGrid(self.box, values)


def half_spectrum(a: np.ndarray) -> np.ndarray:
    """The k >= 0 half of the last axis of a full (fftfreq-layout) array:
    its first n // 2 + 1 points, the layout of half_fft's output."""
    return a[..., : a.shape[-1] // 2 + 1]


def half_fft(x: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """Unnormalized DFT of a real array over its last `ndim` axes (all by
    default), on the half spectrum: rfft on the last axis, then fft on each
    other one; leading axes index a batch.

    The 1-D calls skip the n-D wrappers (fftn, rfftn), whose per-call
    overhead dominates at the small grids of the tree-level solvers.
    """
    out = np.fft.rfft(x)
    for ax in range(-(x.ndim if ndim is None else ndim), -1):
        out = np.fft.fft(out, axis=ax)
    return out


def half_ifft(xh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of half_fft over the last len(shape) axes of `xh`: the real
    array of grid `shape` whose half spectrum is `xh`, for each leading index."""
    for ax in range(-len(shape), -1):
        xh = np.fft.ifft(xh, axis=ax)
    return np.fft.irfft(xh, n=shape[-1])


def full_spectrum(xh: np.ndarray, n: int) -> np.ndarray:
    """Full spectrum of a real array from its half spectrum `xh` (the last
    axis of full length n), completed by X(-k) = conj X(k)."""
    neg = [(-np.arange(s)) % s for s in xh.shape[:-1]]
    mirror = xh[np.ix_(*neg, np.arange(n - xh.shape[-1], 0, -1))]
    return np.concatenate([xh, np.conjugate(mirror)], axis=-1)


DENSE_CELLS = 128  # dense_map's crossover: largest grid (in cells) run as a matrix


def dense_map(op, shape: tuple[int, ...], dtype=float):
    """`op`, a real-linear map of arrays of `shape` and `dtype` that also
    maps a batch along a leading axis, as one vector-matrix product on grids
    of at most DENSE_CELLS cells; `op` itself on larger grids.

    The matrix is `op` applied to the identity basis (a complex entry counts
    as two real coordinates), so both paths compute the same map.  Only
    vector @ matrix products: OpenBLAS starts threads for a matrix @ matrix
    product, which costs more than the FFTs it replaces at these sizes.  A
    map of flat vectors (contiguous if complex) takes only the views it
    needs around the product: a map of flat real vectors to flat real
    vectors is the bare x @ matrix.
    """
    if math.prod(shape) > DENSE_CELLS:
        return op
    size = math.prod(shape) * np.dtype(dtype).itemsize // 8
    images = op(np.eye(size).view(dtype).reshape(size, *shape))
    out_shape, out_dtype = images.shape[1:], images.dtype
    matrix = np.ascontiguousarray(images).reshape(size, -1).view(float)
    if len(shape) > 1:
        return lambda x: (x.reshape(-1).view(float) @ matrix).view(out_dtype).reshape(out_shape)
    if np.dtype(dtype) != float:
        return lambda x: (x.view(float) @ matrix).view(out_dtype).reshape(out_shape)
    if out_dtype != float or len(out_shape) > 1:
        return lambda x: (x @ matrix).view(out_dtype).reshape(out_shape)
    return lambda x: x @ matrix


def heat_change(g: FieldGrid, D: float, t: float):
    """x -> (e^{t D Lap} - 1) x on real fields of grid g, through dense_map.

    A repeated heat step is x + heat_change(x): the expm1 multiplier keeps
    the map's rounding relative to the change, so a dense matrix's rounding
    does not compound over thousands of steps as it would in e^{t D Lap} x.
    """
    less_one = np.expm1(-D * t * half_spectrum(g.ksquared()))
    return dense_map(lambda x: half_ifft(less_one * half_fft(x, g.dim), g.shape), g.shape)


def point_labels(axes, sep: str = ",") -> list[str]:
    """Label of every point of the grid spanned by `axes`, in C order: the
    point's coordinates, each formatted with repr, joined by `sep`."""
    cols = [m.ravel().tolist() for m in np.meshgrid(*axes, indexing="ij")]
    return [sep.join(map(repr, p)) for p in zip(*cols)]


def table_block(labels: list[str]):
    """The writer of a CSV table over the points `labels` (in C order):
    block(lead, cells) is the rows `lead,label,cell`, one per label, each
    ending in a newline, with `cells` one string per label.

    The parts of a block are laid out here once; a block puts its lead and
    cells into them by two slice assignments and is one str.join, which
    sizes its result once.  (A `%` template grows its result as it fills
    and leaves the heap more fragmented.)"""
    n = len(labels)
    parts = [None, None, None, "\n"] * n
    parts[1::4] = [f",{lab}," for lab in labels]

    def block(lead: str, cells) -> str:
        parts[::4] = [lead] * n
        parts[2::4] = cells
        return "".join(parts)

    return block


SPLIT_CELLS = 2 ** 15  # fewest table cells formatted with a forked process
_PIECE_CELLS = 2 ** 13  # cells per piece sent to the formatter child, formatted in one reprs call
_HERE_CELLS = 2 ** 9  # cells per piece formatted in this process, which holds a piece's strings
_READ_BYTES = 2 ** 15  # most bytes stream_rows reads back, and _format writes, at once


def _temp_fd() -> int:
    """A read-write temp file that is gone once closed, as a descriptor."""
    with tempfile.TemporaryFile() as f:
        return os.dup(f.fileno())


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _pieces(rows: Iterable[tuple[float, np.ndarray]], per_piece: int) -> Iterator[np.ndarray]:
    """The (lead, values) `rows` gathered into 2-D arrays of at most
    `per_piece` rows, row i [lead, *values]; each reuses the buffer of the
    one before, so a piece is spent before the next is drawn."""
    piece, n = None, 0
    for lead, values in rows:
        if piece is None:
            piece = np.empty((per_piece, 1 + len(values)))
        elif n == per_piece:  # a full piece, and more rows to come
            yield piece
            n = 0
        piece[n, 0] = lead
        piece[n, 1:] = values
        n += 1
    if n:
        yield piece[:n]


def _format(pieces: Iterable[np.ndarray], text, out: int) -> None:
    """Append the text of each piece of rows to the file `out`."""
    for block in pieces:
        _write_all(out, "".join(text(block)).encode())


def _send(pieces: Iterable[np.ndarray], pipe: int) -> None:
    """Write each piece of rows down the pipe: its rows and columns as two
    int64, then its floats."""
    for block in pieces:
        _write_all(pipe, np.array(block.shape, np.int64))
        _write_all(pipe, block)


def _received(r: int) -> Iterator[np.ndarray]:
    """The pieces of rows read from the pipe `r` until it closes: each its
    rows and columns as two int64, then its floats."""
    with open(r, "rb") as pipe:
        while head := pipe.read(16):
            rows, cols = np.frombuffer(head, np.int64).tolist()
            yield np.frombuffer(pipe.read(rows * cols * 8)).reshape(rows, cols)


def stream_rows(rows: Iterable[tuple[float, np.ndarray]], count: int, width: int,
                text: Callable[[np.ndarray], Iterable[str]]) -> Iterator[str]:
    """The text of a table of `count` rows of `width` cells each, which come
    one at a time from `rows` as (lead, values), values a flat float array
    of at most `width` entries, where text(block) yields the text of the
    rows of a 2-D array whose row i is [lead, *values] of one row.

    Nothing is yielded until `rows` is exhausted and every row is
    formatted, so a failed solve or a failed formatter writes no byte.
    Formatting holds the GIL, so threads cannot share it, but a forked
    process can.  A table of SPLIT_CELLS cells or more forks one child
    before its first row; rows are gathered in pieces of about _PIECE_CELLS
    cells, every piece goes down the child's pipe, and the child formats
    them all into a temp file.  A child that falls behind fills the pipe,
    which blocks `rows` until it catches up, so memory stays O(_PIECE_CELLS)
    whatever the table's length.  Smaller tables, and platforms without
    fork, are formatted here into the same kind of file, in pieces of about
    _HERE_CELLS cells: this process holds a piece's strings.  The file has no
    name; once the child is reaped it is read back in pieces (the text is
    ASCII).  The child leaves only by os._exit: 0 once the pipe is closed
    and all is written, 1 on any error; so it never runs the caller's code
    or flushes an inherited buffer.

    RuntimeError if the child fails.  The child is killed and reaped on
    every other exit, such as an exception from `rows` or a generator
    closed early."""
    out, pipe, pid = _temp_fd(), -1, 0
    try:
        if hasattr(os, "fork") and count * width >= SPLIT_CELLS:
            r, pipe = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(pipe)
                    _format(_received(r), text, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(r)
            try:
                _send(_pieces(rows, max(1, _PIECE_CELLS // width)), pipe)
            except BrokenPipeError:
                pass  # the child failed: waitpid tells how
            os.close(pipe)
            pipe = -1
            status = os.waitpid(pid, 0)[1]
            pid = 0
            if status:
                raise RuntimeError("the process formatting a table failed "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
        else:
            _format(_pieces(rows, max(1, _HERE_CELLS // width)), text, out)
        os.lseek(out, 0, os.SEEK_SET)
        while chunk := os.read(out, _READ_BYTES):
            yield chunk.decode()
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe >= 0:
            os.close(pipe)
        os.close(out)
