"""Time-grid checks, chunked array evaluation and the thread scheduler.

``_run_shares`` runs numbered work items on the calling thread plus helper
threads.  ``_on_chunks``, the one grid driver, checks the caller's times
against the species' time domain, lays them out as a flat grid and hands it
the fixed-size chunks, so every array entry point (``qm_like_joint``,
``qm_unlike_joint``, ``joint_probabilities``, ``lrm_like_joint``,
``p21_conditional``, ``p43_conditional``, the fitter's tables and
``evaluate_gap``) is one call of it.  Each output element depends only on
its own row, so the outputs are the same bits whatever the chunking or
thread count.

The one code path serves one point and 10^6 alike, so its fixed cost is kept
small: a one-value check compares Python floats (``_in_range``), one row of
constant weights is handed whole to every chunk, and the values of one point
come back without a reshape.  On a 2-core host ``_on_chunks`` costs ~8 us at
two scalar times with a kernel that does nothing, and a 1-D grid pays it once.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import threading
from typing import Callable

import numpy as np

# the most threads one call uses (the caller counts as one); numpy's ufunc
# loops and array work release the interpreter lock
_WORKERS = min(os.cpu_count() or 1, 8)
# points per chunk, so the kernels' temporaries stay in the core's cache; on
# a 2-core host 2^13 to 2^15 ran alike on one thread and 2^14 ran fastest on two
_CHUNK = 1 << 14
# chunks each thread must get before one more thread starts: a thread start
# costs about a millisecond on a shared host, so grids under 2^19 points (the
# CLI grids, the 200-point fit tables) stay on the calling thread
_CHUNKS_PER_WORKER = 16


def _in_range(values: np.ndarray, lo: float, hi: float) -> bool:
    """Whether every one of the values lies in [lo, hi]; a nan fails.

    One value is compared as a Python float, which reaches the decision of
    the min/max reductions without their ~2 us each.
    """
    if values.size == 1:
        return lo <= values.item() <= hi
    # a nan propagates through min and max, and the comparison then fails
    return values.size == 0 or bool(values.min() >= lo and values.max() <= hi)


def _check_times(params, *times) -> None:
    """Every time finite, non-negative and at most the species' ``params._max_time``."""
    for t in times:
        t = np.asarray(t, dtype=float)
        if not _in_range(t, 0.0, params._max_time):
            # x < inf is x <= the largest float
            if _in_range(t, 0.0, sys.float_info.max):
                raise ValueError(f"proper times must lie in [0, {params._max_time:.6g}] s, "
                                 "beyond which a decay rate or delta_m times t overflows")
            raise ValueError("proper times must be finite and non-negative")


def _run_shares(n_items: int, workers: int, work: Callable[[int], None]) -> None:
    """Call work(item) once for every item in range(n_items), on `workers` threads.

    The calling thread runs share 0 and ``workers - 1`` plain threads run the
    others, each in a copy of the caller's context (numpy's errstate lives
    there).  Each share claims the next unclaimed item, so a thread slowed by a
    busy core runs fewer.  A failure stops every share before its next item;
    once all have ended, the failure of the lowest item is raised.  Every lower
    item was claimed before it and has run, so that is the failure a serial
    run raises.
    """
    items, claim = itertools.count(), threading.Lock()
    errors: list[tuple[int, BaseException]] = []    # the shares stop once it has an entry

    def share(finished: threading.Event | None = None) -> None:
        item = -1
        try:
            while not errors:
                with claim:
                    item = next(items)
                if item >= n_items:
                    return
                work(item)
        except BaseException as exc:  # re-raised in the caller below
            errors.append((item, exc))
        finally:
            if finished is not None:
                finished.set()

    helpers: list[tuple[threading.Thread, threading.Event]] = []
    try:
        for _ in range(1, workers):
            finished = threading.Event()
            thread = threading.Thread(target=contextvars.copy_context().run, args=(share, finished))
            thread.start()
            helpers.append((thread, finished))
        share()
        # not Thread.join: an interrupted join can mark a running thread as
        # stopped (CPython 3.11), and the join below would then return at once
        for _, finished in helpers:
            finished.wait()
    except BaseException as exc:
        # starting a helper failed or an interrupt arrived while waiting
        errors.append((-1, exc))
        raise
    finally:
        for thread, _ in helpers:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def _on_chunks(kernel: Callable, params, t_a, t_b, *widths: tuple[int, ...],
               rows_at: Callable | None = None):
    """Evaluate kernel over the time grid (t_a, t_b) in chunks of _CHUNK points.

    The times are checked against ``params._max_time``, broadcast to one grid
    and flattened (times of one shape are viewed flat as they are, strided or
    not).  ``rows_at(t_a, t_b)``, if given, returns rows of k values on the
    last axis: one (k,) row is handed whole to every chunk, and per-point
    rows are broadcast over the grid and cut with it.  ``kernel(t_a, t_b,
    [rows,] *outputs)`` fills each chunk of one float output of shape
    (n, *width) per width, on one more thread per _CHUNKS_PER_WORKER chunks;
    the error of the lowest failing chunk is raised.  Returns the grid times
    and the outputs shaped (*grid, *width); a 0-d one comes back as a float.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    _check_times(params, t_a, t_b)
    if t_a.shape == t_b.shape:
        grid, inputs = t_a.shape, [t_a, t_b] if t_a.ndim == 1 else [t_a.reshape(-1), t_b.reshape(-1)]
    else:
        broadcast = np.broadcast_arrays(t_a, t_b)
        grid, inputs = broadcast[0].shape, [x.ravel() for x in broadcast]
    n = inputs[0].size
    shared = []
    if rows_at is not None:
        rows = rows_at(t_a, t_b)
        if rows.ndim == 1:      # constant weights: one row, not a copy of it per point
            shared.append(rows)
        else:
            inputs.append(np.broadcast_to(rows, grid + rows.shape[-1:]).reshape(n, rows.shape[-1]))
    outputs = [np.empty((n, *width)) for width in widths]
    arrays = inputs + outputs
    size = _CHUNK
    n_chunks = -(-n // size)

    def work(chunk: int) -> None:
        part = slice(chunk * size, (chunk + 1) * size)
        args = [x[part] for x in arrays]
        args[2:2] = shared      # after the times
        kernel(*args)

    _run_shares(n_chunks, max(1, min(_WORKERS, n_chunks // _CHUNKS_PER_WORKER)), work)
    results = inputs[:2] + outputs
    if grid == (n,):    # the flat layout is the grid's own
        return results
    if grid:
        return [x.reshape(grid + x.shape[1:]) for x in results]
    # two scalar times: the one point's values, a float where no axis is left
    return [x[0] if x.ndim > 1 else x.item() for x in results]
