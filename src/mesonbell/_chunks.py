"""Time-grid checks, chunked array evaluation and the thread scheduler.

``_run_shares`` runs numbered work items on the calling thread plus helper
threads.  ``_on_chunks`` hands it the fixed-size chunks of a time grid, so
every array entry point (``qm_like_joint``, ``qm_unlike_joint``,
``joint_probabilities``, ``lrm_like_joint`` and the fitter's tables) evaluates
its kernel one cache-sized chunk at a time.  Each output element depends only
on its own row, so the outputs are the same bits whatever the chunking or
thread count.
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


def _grid(t_a, t_b) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(shape, t_a, t_b): the times checked, broadcast to their common shape and flattened.

    Two 1-D arrays of one shape are used as they are, strided or not.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    _check_times(t_a, t_b)
    if t_a.ndim == 1 and t_a.shape == t_b.shape:
        return t_a.shape, t_a, t_b
    t_a, t_b = np.broadcast_arrays(t_a, t_b)
    return t_a.shape, t_a.ravel(), t_b.ravel()


def _on_chunks(kernel: Callable, t_a: np.ndarray, t_b: np.ndarray, *widths: tuple[int, ...]):
    """Evaluate kernel over the flat time grid (t_a, t_b) of _grid in chunks of _CHUNK points.

    Preallocates one float output of shape (n, *width) per width and calls
    ``kernel(rows, t_a[rows], t_b[rows], *(out[rows] for out in outputs))``
    once per chunk of rows, on one more thread per _CHUNKS_PER_WORKER chunks.
    Returns the outputs.
    """
    outputs = [np.empty((t_a.size, *width)) for width in widths]
    size = _CHUNK
    n_chunks = -(-t_a.size // size)

    def work(chunk: int) -> None:
        rows = slice(chunk * size, (chunk + 1) * size)
        kernel(rows, t_a[rows], t_b[rows], *[out[rows] for out in outputs])

    _run_shares(n_chunks, max(1, min(_WORKERS, n_chunks // _CHUNKS_PER_WORKER)), work)
    return outputs
