"""Data TLB model.

The paper collects the data-TLB miss rate (misses / instructions) as
one of its verification counters (§4.3).  We model a single-level,
fully-associative, LRU data TLB — adequate for the page-locality
question the counter answers.

``access_many`` is vectorized and bit-exact against a loop of the
per-element :meth:`TLB.access`: when the pages a trace touches plus
the already-resident set provably fit the TLB, no eviction can occur,
so the hit/miss outcome of every access and the final recency order
are computed in closed form from numpy set operations; otherwise the
trace is compressed (consecutive same-page accesses are guaranteed
MRU hits) and replayed through the same LRU dict ``access`` uses.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..telemetry.tracer import get_tracer
from .batch import as_addresses
from .setassoc import CacheStats


class TLB:
    """Fully-associative LRU translation look-aside buffer."""

    def __init__(self, entries: int = 64, page_bytes: int = 4096,
                 name: str = "dTLB") -> None:
        if entries < 1:
            raise ValueError(f"TLB needs at least one entry, got {entries}")
        if page_bytes & (page_bytes - 1):
            raise ValueError(f"page size must be a power of two, got {page_bytes}")
        self.name = name
        self.entries = entries
        self.page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        self._pages: dict[int, None] = {}
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Translate one byte address; returns True on TLB hit."""
        page = int(address) >> self._shift
        self.stats.accesses += 1
        if page in self._pages:
            del self._pages[page]
            self._pages[page] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.pop(next(iter(self._pages)))
        self._pages[page] = None
        return False

    def access_many(self, addresses: Iterable[int]) -> int:
        """Translate a trace; returns misses added."""
        with get_tracer().span("tlb_trace", phase="cache_sim") as sp:
            before = self.stats.misses
            arr = as_addresses(addresses)
            sp.set_attribute("accesses", int(arr.size))
            if arr.size:
                self._translate_batch(arr >> self._shift)
            return self.stats.misses - before

    def _translate_batch(self, pages: np.ndarray) -> None:
        """Replay a page trace; exact against a loop of :meth:`access`."""
        n = int(pages.size)
        resident = self._pages
        # Last-occurrence order of the touched pages: unique over the
        # reversed trace gives each page's distance from the end.
        rev_first = np.unique(pages[::-1], return_index=True)
        uniq, rev_idx = rev_first
        touched = set(uniq.tolist())
        if len(touched | resident.keys()) <= self.entries:
            # Capacity shortcut: no eviction can ever occur, so every
            # non-resident page misses exactly once (first occurrence)
            # and everything else hits.  Final recency order: untouched
            # residents keep their relative order; touched pages move
            # to MRU in order of their *last* access.
            misses = len(touched - resident.keys())
            last_order = uniq[np.argsort(rev_idx)[::-1]]
            for page in last_order.tolist():
                resident.pop(page, None)
                resident[page] = None
            self.stats.record_batch(n, n - misses)
            return
        # Eviction-prone: compress guaranteed MRU re-hits (consecutive
        # same-page accesses) and replay the rest through the LRU dict.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        compressed = pages[keep].tolist()
        hits = n - len(compressed)
        entries = self.entries
        for page in compressed:
            if page in resident:
                del resident[page]
                resident[page] = None
                hits += 1
            else:
                if len(resident) >= entries:
                    resident.pop(next(iter(resident)))
                resident[page] = None
        self.stats.record_batch(n, hits)

    def reset(self) -> None:
        self._pages.clear()
        self.stats.reset()

    @property
    def reach_bytes(self) -> int:
        """Address range covered by a full TLB."""
        return self.entries * self.page_bytes

    def __repr__(self) -> str:
        return f"<{self.name}: {self.entries} entries x {self.page_bytes} B pages>"
