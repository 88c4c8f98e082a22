"""Shared time-stepping kernels: Strang split steps and the time loop.

Every wave run advances through `drive`, the one loop over wave steps.  The
same Strang kernel drives the linear Schrodinger wave, the nonlinear
u-field, and the two-particle configuration-space wave; only the phase
factors and the kinetic Fourier multiplier differ, and factors that do not
change from step to step (and a static E on the grid) are built once and
memoized with `cached`.  On a 1D grid the kernel runs the 1D transforms,
which give the bits of the n-dimensional ones.  Phase
sub-steps multiply by unit-modulus factors, so |field| is untouched by them
and the total norm is conserved to round-off by the kinetic step's
unitarity.

`run_ahead` is the package's one fork: a child process runs a generator
and pickles its items back through a pipe, a block of them at a time,
while the calling process goes on.  `drive` reaches it through `ship`: a
run's field chain then steps ahead in the child, which ships what the
calling process records, and the readers, series and snapshots stay in
the calling process, in step order.  The classical soliton run
(`nls_step`), the Schrodinger wave with its Madelung fields (`ls_step`,
`madelung_extract`) and the coupled run's pilot wave with its reference
guidance point go on that way; the `entangled_pair` scenario's product
run goes on in the child as one item (`scenarios._concurrently`).
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from .errors import NonFiniteFieldError, SolidynError

# Relative amplitude thresholds shared by all solvers: below NODE_MASK_REL
# times the peak amplitude, Madelung quantities are masked and trajectories
# abort.  Only `FlowHistory.proximity_flags`, which the benchmark's layer
# list names and no walk calls, reads NODE_PROXIMITY_REL.
NODE_MASK_REL = 1e-8
NODE_PROXIMITY_REL = 1e-6
BOUNDARY_MASS_LIMIT = 1e-8
# Bytes `run_ahead` widens its pipe to where the kernel allows it: a child
# that ships a few arrays per step then runs some steps ahead of the reader
# instead of stalling on each write (the default pipe holds 64 KiB).
PIPE_BYTES = 1 << 20
# Items `run_ahead` packs into one pickle and one pipe write, so a short
# step that ships a few small arrays (the trap's soliton step at N = 256)
# pays a pickle and a write per block, not per step.
BLOCK_ITEMS = 16
PR_SET_PDEATHSIG = 1        # <linux/prctl.h>


def strang_step(samples, half_start, half_end, kinetic_phase):
    """One Strang split step of i du/dt = (W + K) u.

    Parameters
    ----------
    samples : complex ndarray
    half_start : first half phase exp(-i dt W(t) / 2) (`_half_phase`).
    half_end : second half phase exp(-i dt W(t + dt) / 2), or a callable
        receiving the post-kinetic samples and returning it (for nonlinear W).
    kinetic_phase : precomputed exp(-i dt K) multiplier in Fourier space.

    The output is built once, as half_start * samples, and both transforms
    then run in place on it (`out=`), so a step holds one grid array and
    `samples` is never written.  A 1D step calls `fft`/`ifft`, the one
    pocketfft call that `fftn`/`ifftn` would make without their per-axis
    bookkeeping, so the bits are the same.
    """
    out = half_start * samples
    forward, inverse = ((np.fft.fft, np.fft.ifft) if out.ndim == 1
                        else (np.fft.fftn, np.fft.ifftn))
    forward(out, out=out)
    out *= kinetic_phase
    inverse(out, out=out)
    if callable(half_end):
        half_end = half_end(out)
    out *= half_end
    return out


def _half_phase(w, dt, out=None):
    """The Strang half phase exp(-i dt w / 2) of a real potential `w`, with
    the bits of `np.exp` of the complex product -0.5j dt w, which is
    (+0.0, (-0.5 dt) w + 0.0): cos and sin of that angle are written into
    the real and imaginary views of `out` (a new complex array by
    default), and `w` becomes the angle.  Without the `+ 0.0` a w of +0.0
    would give the angle -0.0 and the sine -0.0, and with `w * -0.5 * dt`
    a subnormal w would round twice."""
    if out is None:
        out = np.empty(w.shape, dtype=complex)
    w *= -0.5 * dt
    w += 0.0
    np.cos(w, out=out.real)
    np.sin(w, out=out.imag)
    return out


def kinetic_multiplier(grid, mass, charge, vector_potential, dt):
    """exp(-i dt sum_a (k_a - eA_a)^2 / (2 m_a)) on the grid's wavenumber
    lattice; `mass` is one rest mass or one per axis."""
    masses = np.broadcast_to(mass, (grid.dim,))
    total = 0.0
    for axis in range(grid.dim):
        k = grid._k_along(axis)
        total = total + (k - charge * vector_potential[axis]) ** 2 \
            / (2.0 * masses[axis])
    return np.exp(-1j * dt * total)


def cached(store, name, grid, key, build):
    """Return build(), memoized in the dict `store` per (name, grid) for `key`.

    Each (name, grid) slot keeps only its latest key, so memory stays bounded
    and a factor whose key changes every step (a time-ramped A) is simply
    rebuilt every step.  The cached array is read-only.
    """
    slot = (name, grid.points, grid.lengths)
    entry = store.get(slot)
    if entry is None or entry[0] != key:
        value = build()
        value.flags.writeable = False
        entry = store[slot] = (key, value)
    return entry[1]


class RowBlock:
    """Rows appended one at a time into one typed block, which grows in
    place by a quarter when full (`ndarray.resize`, a `realloc`) and which
    `block()` trims to the rows written: the rows are never held twice.
    The block has the shape, dtype and bits of `np.asarray` of the rows (a
    row of a wider dtype widens it; no rows read shape (0,)).

    A float row of a 1D float64 block with room left is stored without
    `np.asarray`: no float widens float64, and the store casts as it."""

    def __init__(self):
        self._block, self._count = None, 0
        self._floats = False    # the block is 1D float64

    def append(self, row):
        if (self._floats and isinstance(row, float)
                and self._count < len(self._block)):
            self._block[self._count] = row
            self._count += 1
            return
        row = np.asarray(row)
        if self._block is None:
            self._block = np.empty((16,) + row.shape, row.dtype)
            self._floats = row.shape == () and row.dtype == np.float64
        elif row.dtype != self._block.dtype:
            self._block = self._block.astype(
                np.result_type(self._block.dtype, row.dtype), copy=False)
            self._floats = row.shape == () and self._block.dtype == np.float64
        if self._count == len(self._block):
            self._resize(self._count + self._count // 4)
        self._block[self._count] = row
        self._count += 1

    def block(self):
        """The (rows, *row shape) block."""
        if self._block is None:
            return np.empty(0)
        self._resize(self._count)
        return self._block

    def _resize(self, rows):
        # no view of the block exists before `block()` returns it
        self._block.resize((rows,) + self._block.shape[1:], refcheck=False)


def drive(state, steps, step, sample, ship=None, shared=()):
    """The time loop of every wave run.

    For i = 0 ... steps, `state = step(state, i)` (for i > 0) and then
    sample(state, i).  A sample is a dict of named quantities, or None to
    record nothing at that step; a quantity whose value is None is not
    recorded at that step.  Returns the final state and a dict with one
    array per quantity named by any sample: its recorded values, kept in
    one `RowBlock` (so `np.asarray` of them).

    With `ship`, the chain of states runs ahead in the child process of
    `run_ahead` (`shared` as there): it sends ship(state, i) after each
    step, and sample(item, i) receives that item here, in step order, in
    place of the state; the last item is returned in place of the final
    state.  So the calling process records while the child steps, and
    errors keep the order of the serial loop.  A sample may advance a
    chain of its own that reads the items (the coupled run's soliton).
    """
    def chain():
        # the loop's states, or with `ship` its items, made as they are read
        nonlocal state
        for i in range(steps + 1):
            if i:
                state = step(state, i)
            yield ship(state, i) if ship else state

    columns = defaultdict(RowBlock)
    with run_ahead(chain, shared) if ship else nullcontext(chain()) as items:
        for i, item in enumerate(items):
            for name, value in (sample(item, i) or {}).items():
                column = columns[name]      # named even if never recorded
                if value is not None:
                    column.append(value)
    return item, {name: column.block() for name, column in columns.items()}


@contextmanager
def run_ahead(items, shared=()):
    """The items of the generator `items()`, made in a forked child
    process and read here in order, while this process goes on.

    The fork is made at once.  The child pickles the items (protocol 5)
    into a pipe in blocks of `BLOCK_ITEMS`, the error that ended the
    generator with the last, and ends with `os._exit`; an object of
    `shared`, which both processes hold from before the fork, is pickled
    by reference.  Errors keep the order of the serial loop: the child's
    error raises where its item would have been read, with its class,
    message and attributes, and an error of this process ends the `with`
    block, which kills the child.  The child is reaped when the block
    ends, on every path; while it runs, a SIGTERM at its default action
    kills and reaps it first (`_end_child_on_sigterm`), and on Linux the
    kernel kills it when the thread that forked it ends
    (`_end_with_parent`).  Where `os.fork` does not exist, or this process
    may run on one CPU only, `items()` runs in this process instead.
    """
    if not hasattr(os, "fork") or _cpus() < 2:
        yield items()
        return
    import fcntl
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe, open(write_end, "wb") as sink:
        try:
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or over the limit
            pass
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                pipe.close()
                _end_with_parent(parent)
                _send(sink, items, shared)
                code = 0
            finally:
                os._exit(code)
        sink.close()
        restore = _end_child_on_sigterm(pid)
        ended = []              # the child's exit code, once reaped

        def reap(kill):
            if not ended:
                if kill:
                    os.kill(pid, signal.SIGKILL)
                # the child has ended or been killed: a SIGTERM from here
                # on may end this process at once
                restore()
                ended.append(os.waitstatus_to_exitcode(
                    os.waitpid(pid, 0)[1]))
            return ended[0]

        def received():
            while pipe.peek(1):
                unpickler = pickle.Unpickler(pipe)
                unpickler.persistent_load = shared.__getitem__
                try:
                    block, error = unpickler.load()
                except (EOFError, pickle.UnpicklingError):    # cut off
                    break
                yield from block
                if error is not None:
                    raise error
            code = reap(kill=False)
            if code:
                raise SolidynError(f"the concurrent run ended with no "
                                   f"result (exit status {code})")

        try:
            yield received()
        finally:
            reap(kill=True)


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send(pipe, items, shared):
    """Pickle the items of `items()` into the file `pipe` in blocks of up
    to `BLOCK_ITEMS`, one flushed (items, None) message each; the block
    an error of the generator cuts short goes as (items, error)."""
    ids = {id(obj): index for index, obj in enumerate(shared)}

    def send(block, error=None):
        pickler = pickle.Pickler(pipe, protocol=5)
        pickler.persistent_id = lambda obj: ids.get(id(obj))
        pickler.dump((block, error))
        pipe.flush()

    block = []
    try:
        for item in items():
            block.append(item)
            if len(block) == BLOCK_ITEMS:
                send(block)
                block = []
    except BaseException as err:
        send(block, err)
    else:
        if block:
            send(block)


def _end_with_parent(parent):
    """In a forked child: on Linux, have the kernel SIGKILL this process
    when the thread that forked it ends; then end at once if the process
    `parent` has ended already, before that request took hold."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _end_child_on_sigterm(pid):
    """Make a SIGTERM at its default action, which would end this process
    alone, first kill and reap the child `pid`; the process then ends by
    the same signal.  Returns the function that puts the default back.
    Off the main thread, where no handler can be set, or when SIGTERM has
    a handler already (whose exception reaps the child), nothing changes."""
    if signal.getsignal(signal.SIGTERM) != signal.SIG_DFL:
        return lambda: None

    def end(signum, frame):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    try:
        signal.signal(signal.SIGTERM, end)
    except ValueError:              # not the main thread
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)


def check_finite(samples, step_index):
    if not np.isfinite(samples).all():
        raise NonFiniteFieldError(f"non-finite field after step {step_index}")
