"""Thread lanes that share out the blocks of one split computation.

``Lanes(T)`` is the calling thread plus a pool of T - 1 worker threads.
``map`` hands each block to whichever lane is free, the calling thread
among them, and returns once every block is done. A block writes its own
part of an array the caller allocated, so which thread runs it never
changes the bytes: they depend on the blocks alone. ``split`` cuts a
length into blocks that depend on that length only, so every thread
count gives the same blocks and the same bits.
"""

from __future__ import annotations

import threading
from typing import Optional

# Blocks in one split product.
SPLIT_BLOCKS = 4


def check_threads(threads: int) -> None:
    """The one rule for a thread count: ValueError below 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


class Lanes:
    """The calling thread plus ``threads - 1`` pool threads; close it, or
    use it in a ``with`` block, to join the pool threads."""

    def __init__(self, threads: int):
        check_threads(threads)
        self.threads = threads
        self._pool = None
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor  # slow to import

            self._pool = ThreadPoolExecutor(max_workers=threads - 1)

    def __enter__(self) -> "Lanes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def map(self, fn, items) -> list:
        """``[fn(x) for x in items]``, each item run by the first free lane.

        Every lane has finished when this returns or raises. An exception
        from a block reaches the caller as raised: the calling thread's
        own first, else the first pool thread's.
        """
        items = list(items)
        results = [None] * len(items)
        unclaimed = iter(range(len(items)))
        claim = threading.Lock()

        def lane():
            while True:
                with claim:
                    k = next(unclaimed, None)
                if k is None:
                    return
                results[k] = fn(items[k])

        helpers = [self._pool.submit(lane)
                   for _ in range(min(self.threads, len(items)) - 1)]
        try:
            lane()
        finally:
            for helper in helpers:
                helper.exception()  # waits: blocks write into the caller's arrays
        for helper in helpers:
            helper.result()
        return results


def split(n: int, lanes: Optional[Lanes]) -> list:
    """Slices cutting range(n) into blocks: the whole range without lanes;
    with lanes, min(n, SPLIT_BLOCKS) blocks of even size whatever their
    thread count."""
    count = 1 if lanes is None else max(1, min(n, SPLIT_BLOCKS))
    bounds = [n * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def run(lanes: Optional[Lanes], fn, items) -> list:
    """``lanes.map(fn, items)``; on the calling thread alone without lanes."""
    return [fn(x) for x in items] if lanes is None else lanes.map(fn, items)
