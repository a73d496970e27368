"""What is left of the former weight-enumeration kernels.

Minimum weights are computed by the Brouwer-Zimmermann engine in
`lincode._min_weight`.  This module only keeps `numba_enabled()`, which the
benchmark's environment record (perfbench/worker.py) reads.
"""

from __future__ import annotations


def numba_enabled() -> bool:
    """Always False: qckit uses numpy only.  Kept because the benchmark's
    environment record (perfbench/worker.py) reads it."""
    return False
