"""Time-grid checks, chunked array evaluation and the thread scheduler.

``_run_shares`` runs numbered work items on the calling thread plus helper
threads.  ``_on_chunks``, the one grid driver, lays the caller's times out as
a flat grid and hands it the fixed-size chunks, so every array entry point
(``qm_like_joint``, ``qm_unlike_joint``, ``joint_probabilities``,
``lrm_like_joint``, the fitter's tables and ``evaluate_gap``) is one call of
it.  Each output element depends only on its own row, so the outputs are the
same bits whatever the chunking or thread count.
"""

from __future__ import annotations

import contextvars
import itertools
import os
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


def _check_times(*times) -> None:
    for t in times:
        arr = np.asarray(t, dtype=float)
        # a nan propagates through min, and the comparison then fails
        if arr.size and not (arr.min() >= 0.0 and arr.max() < np.inf):
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
    done = [threading.Event() for _ in range(1, workers)]

    def share(w: int) -> None:
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
            if w:
                done[w - 1].set()

    helpers: list[threading.Thread] = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(share, w))
            thread.start()
            helpers.append(thread)
        share(0)
        # not Thread.join: an interrupted join can mark a running thread as
        # stopped (CPython 3.11), and the join below would then return at once
        for event in done:
            event.wait()
    except BaseException as exc:
        # starting a helper failed or an interrupt arrived while waiting
        errors.append((-1, exc))
        raise
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def _on_chunks(kernel: Callable, t_a, t_b, *widths: tuple[int, ...], rows_at: Callable | None = None):
    """Evaluate kernel over the time grid (t_a, t_b) in chunks of _CHUNK points.

    The times are checked, broadcast to one grid and flattened (two 1-D arrays
    of one shape are used as they are, strided or not).  ``rows_at(t_a, t_b)``,
    if given, returns per-point rows (k values on the last axis) that are
    broadcast over the grid.  ``kernel(t_a, t_b, [rows,] *outputs)`` fills
    each chunk of one float output of shape (n, *width) per width, on one more
    thread per _CHUNKS_PER_WORKER chunks.  Returns the grid times and the
    outputs shaped (*grid, *width); a 0-d one comes back as a Python float.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    _check_times(t_a, t_b)
    if t_a.ndim == 1 and t_a.shape == t_b.shape:
        grid, inputs = t_a.shape, [t_a, t_b]
    else:
        broadcast = np.broadcast_arrays(t_a, t_b)
        grid, inputs = broadcast[0].shape, [x.ravel() for x in broadcast]
    n = inputs[0].size
    if rows_at is not None:
        # a row given once (constant weights) is broadcast over the grid, not copied per point
        rows = rows_at(t_a, t_b)
        inputs.append(np.broadcast_to(rows, grid + rows.shape[-1:]).reshape(n, rows.shape[-1]))
    outputs = [np.empty((n, *width)) for width in widths]
    arrays = inputs + outputs
    size = _CHUNK
    n_chunks = -(-n // size)

    def work(chunk: int) -> None:
        part = slice(chunk * size, (chunk + 1) * size)
        kernel(*[x[part] for x in arrays])

    _run_shares(n_chunks, max(1, min(_WORKERS, n_chunks // _CHUNKS_PER_WORKER)), work)
    results = inputs[:2] + outputs
    if grid == (n,):    # the flat layout is the grid's own
        return results
    shaped = [x.reshape(grid + x.shape[1:]) for x in results]
    return [x if x.ndim else float(x) for x in shaped]
