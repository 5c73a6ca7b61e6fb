"""Trace coercion shared by the cache/TLB/branch models.

Each simulator in this package has one trace entry point
(``access_many`` / ``run_trace``) that runs whole numpy address arrays
at once and drops to tight Python loops only over the irreducibly
sequential state updates (per-set LRU stacks, saturating counters).
Next to it sits the per-element method (``access`` /
``predict_and_update``), the single-address API.  Both mutate the
*same* canonical state (the per-set LRU dicts, the counter table), so
calls can interleave freely and property tests pin the trace entry
point against a loop of the per-element method bit-exactly
(``tests/test_cache_batch.py``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def as_addresses(addresses: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce any address iterable to a 1-D int64 numpy array.

    Accepts ndarrays (cast without copy when already int64), ranges,
    lists, tuples and generators.
    """
    if isinstance(addresses, np.ndarray):
        arr = addresses.astype(np.int64, copy=False)
    else:
        arr = np.fromiter((int(a) for a in addresses), dtype=np.int64) \
            if not isinstance(addresses, (list, tuple, range)) \
            else np.asarray(addresses, dtype=np.int64)
    return np.ravel(arr)
