"""Periodic-box field grids and the discrete Fourier pair used throughout.

A field on the torus [0, L_1) x ... x [0, L_d) is sampled on a regular grid.
The momentum representation uses the physicists' convention

    vhat(k) = sum_x v(x) e^{-i k.x} dV,      k = 2 pi m / L,

so that vhat(0) approximates the integral of v over the box and the inverse
carries the 1/(2 pi)^d in its measure.  FieldGrid keeps full complex spectra,
so it can hold any momentum field.  Solvers whose fields are real work on the
half spectrum instead (last axis k >= 0, since X(-k) = conj X(k)) through one
unnormalized transform pair, half_fft and half_ifft.

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
once.  Values are written with repr, so float(cell) gives each back exactly.
A table whose rows are solved one at a time goes through stream_rows, which
formats them while they are solved: repr holds the GIL, so from SPLIT_CELLS
cells on, one forked child formats the pieces of rows sent down a pipe while
this process solves.  A full piece goes to the child if it has at most one
waiting, and is formatted here at once otherwise.  It holds O(_PIECE_CELLS)
cells and yields nothing before the last row.
"""

from __future__ import annotations

import math
import os
import signal
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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


def reprs(values: np.ndarray) -> tuple[str, ...]:
    """repr of each value in C order, the cells of a table_block."""
    return tuple(map(repr, np.ravel(values).tolist()))


SPLIT_CELLS = 2 ** 15  # fewest table cells formatted with a forked process
_PIECE_CELLS = 2 ** 11  # cells per piece, the rows stream_rows holds, sends and formats at once
_READ_BYTES = 2 ** 16  # most bytes stream_rows reads back at once


def _temp_fd() -> int:
    """A read-write temp file that is gone once closed, as a descriptor."""
    with tempfile.TemporaryFile() as f:
        return os.dup(f.fileno())


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Formatter:
    """A forked child that formats each piece of rows of a table sent down
    its pipe (the row count as 8 bytes, then the rows of `row_floats`
    floats).  After each piece it appends its text to the temp file `texts`
    and the new length of that file, as 8 bytes, to the temp file `ends`,
    so the parent sees how many pieces it has done and where each one's
    text ends.  It leaves only by os._exit: 0 once the pipe is closed and
    all is written, 1 on any error; so it never runs the caller's code or
    flushes an inherited buffer."""

    def __init__(self, text, row_floats: int):
        self.texts, self.ends, self.sent = _temp_fd(), _temp_fd(), 0
        r, self.pipe = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (r, self.pipe, self.texts, self.ends):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.pipe)
                self._format(text, r, row_floats)
                code = 0
            finally:
                os._exit(code)
        try:
            os.close(r)
        except BaseException:
            self.close()
            raise

    def _format(self, text, r: int, row_floats: int) -> None:
        """The child's work: every piece read from `r`."""
        size = 0
        with open(r, "rb") as pipe:
            while head := pipe.read(8):
                rows = int.from_bytes(head, "little")
                block = np.frombuffer(pipe.read(rows * row_floats * 8)).reshape(rows, row_floats)
                data = "".join(text(block)).encode()
                _write_all(self.texts, data)
                size += len(data)
                _write_all(self.ends, size.to_bytes(8, "little"))

    def in_flight(self) -> int:
        """Pieces sent and not yet formatted."""
        return self.sent - os.fstat(self.ends).st_size // 8

    def send(self, block: np.ndarray) -> None:
        try:
            _write_all(self.pipe, len(block).to_bytes(8, "little") + block.tobytes())
        except BrokenPipeError:
            self.finish()  # it failed: raises
            raise
        self.sent += 1

    def finish(self) -> list[int]:
        """Close the pipe and reap the child; where each piece's text
        starts, then where the last one ends: [0, end_1, ..., end_sent].
        RuntimeError if the child failed."""
        if self.pipe >= 0:
            os.close(self.pipe)
            self.pipe = -1
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        if status:
            raise RuntimeError("the process formatting a table failed "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        os.lseek(self.ends, 0, os.SEEK_SET)
        ends = b"".join(iter(lambda: os.read(self.ends, _READ_BYTES), b""))
        return [0] + [int.from_bytes(ends[i:i + 8], "little") for i in range(0, len(ends), 8)]

    def close(self) -> None:
        """Kill and reap the child if it runs, and close every file."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        for fd in (self.pipe, self.texts, self.ends):
            if fd >= 0:
                os.close(fd)
        self.pipe = self.texts = self.ends = -1


def stream_rows(rows: Iterable[tuple[float, np.ndarray]], count: int, width: int,
                text: Callable[[np.ndarray], Iterable[str]]) -> Iterator[str]:
    """The text of a table of `count` rows of `width` cells each, which come
    one at a time from `rows` as (lead, values), values a flat float array
    of at most `width` entries, where text(block) yields the text of the
    rows of a 2-D array whose row i is [lead, *values] of one row.

    Nothing is yielded until `rows` is exhausted and every row is
    formatted, so a failed solve or a failed formatter writes no byte.
    repr holds the GIL, so threads cannot share the formatting, but a
    forked process can.  Rows are gathered in pieces of about _PIECE_CELLS
    cells.  A table of SPLIT_CELLS cells or more forks one child (a
    _Formatter) when its first piece fills.  Each piece, once full, goes
    down the child's pipe if the child has at most one piece waiting, and
    is formatted here at once otherwise, so the child formats while `rows`
    runs, this process takes what the child cannot keep up with, and memory
    stays O(_PIECE_CELLS) whatever the table's length.  Smaller tables, and
    platforms without fork, are formatted here.  Every text goes to a temp
    file that has no name, and once the child is reaped the texts are
    yielded in row order, read back in pieces (the text is ASCII).

    RuntimeError if the child fails.  The child is killed and reaped on
    every other exit, such as an exception from `rows` or a generator
    closed early."""
    per_piece = max(1, _PIECE_CELLS // width)
    forks = hasattr(os, "fork") and count * width >= SPLIT_CELLS
    piece, n = None, 0  # the piece being filled and its rows
    # every formatted piece in row order, as the child's piece number or
    # as (start, stop) of its text in `here`
    order, here, here_size, child = [], -1, 0, None

    def put(block: np.ndarray) -> None:
        """Send `block` to the child if it has at most one piece waiting,
        else format it here now."""
        nonlocal here, here_size, child
        if forks and child is None:
            child = _Formatter(text, block.shape[1])
        if child and child.in_flight() < 2:
            order.append(child.sent)
            child.send(block)
            return
        if here < 0:
            here = _temp_fd()
        data = "".join(text(block)).encode()
        _write_all(here, data)
        order.append((here_size, here_size + len(data)))
        here_size += len(data)

    try:
        for lead, values in rows:
            if piece is None:
                piece = np.empty((per_piece, 1 + len(values)))
            elif n == per_piece:  # a full piece, and more rows to come
                put(piece)
                n = 0
            piece[n, 0] = lead
            piece[n, 1:] = values
            n += 1
        if n:
            put(piece[:n])
        ends = child.finish() if child else []
        for item in order:
            if isinstance(item, tuple):
                fd, (lo, hi) = here, item
            else:
                fd, lo, hi = child.texts, ends[item], ends[item + 1]
            os.lseek(fd, lo, os.SEEK_SET)
            while lo < hi:
                chunk = os.read(fd, min(_READ_BYTES, hi - lo))
                if not chunk:
                    raise RuntimeError("a table's text ended short")
                lo += len(chunk)
                yield chunk.decode()
    finally:
        if child:
            child.close()
        if here >= 0:
            os.close(here)
