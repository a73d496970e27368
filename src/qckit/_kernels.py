"""Exhaustive codeword-weight enumeration by numpy blocks.

The enumeration visits one representative per scalar class of nonzero
codewords.  For each leading message coordinate the coefficient is pinned
to 1, and the tail coordinates run over all prime-subfield digit vectors of
the scaled rows omega^j * G_i.  The lowest tail digits (up to 4096
combinations) form a precomputed block of codewords.  An odometer over the
remaining digits keeps the block's common prefix, so each step costs one
table lookup over the whole block.

An optional syndrome matrix (the Gram matrix of the scaled rows against a
second code) is carried through the same blocks.  Codewords with a zero
syndrome are skipped, which gives minimum weights over set differences
such as C1 \\ C2-perp.  A budget stops the enumeration after exactly that
many codewords.
"""

from __future__ import annotations

import numpy as np


def numba_enabled() -> bool:
    """Always False: enumeration is numpy only.  Kept because the benchmark's
    environment record (perfbench/worker.py) reads it."""
    return False


def gray_min_weight(rows, syn, add_tab, p, t, k, budget):
    """Minimum weight over the nonzero scalar classes, within `budget` codewords.

    `rows` holds the k*t scaled rows and `syn` their syndromes (k*t by 0 when
    no syndrome is tracked).  Returns (best, visited, complete) with
    visited <= budget; best is n + 1 when no codeword qualified.
    """
    n = rows.shape[1]
    ns = syn.shape[1]
    best = n + 1
    visited = 0

    def expand(block, row):
        """block + v*row for every digit v, stacked digit-major."""
        mult = np.zeros(len(row), dtype=np.int64)
        out = []
        for _ in range(p):
            out.append(add_tab[block, mult[None, :]])
            mult = add_tab[mult, row]
        return np.concatenate(out, axis=0)

    for lead in range(k):
        ltail = (k - 1 - lead) * t
        base = lead * t
        # low block over the trailing digits
        low = 0
        size = 1
        while low < ltail and size * p <= 4096:
            size *= p
            low += 1
        T = np.zeros((1, n), dtype=np.int64)
        TS = np.zeros((1, ns), dtype=np.int64)
        for d in range(low):
            T = expand(T, rows[base + t + d])
            if ns:
                TS = expand(TS, syn[base + t + d])
        nhigh = ltail - low
        # odometer over the high digits, prefix maintained incrementally
        prefix = rows[base]
        prefix_s = syn[base]
        digits = np.zeros(nhigh, dtype=np.int64)
        high_rows = rows[base + t + low:base + t + ltail]
        high_srows = syn[base + t + low:base + t + ltail]
        while True:
            take = max(0, min(T.shape[0], budget - visited))  # the budget may end inside a block
            wts = np.count_nonzero(add_tab[T[:take], prefix[None, :]], axis=1)
            if ns:
                keep = np.count_nonzero(add_tab[TS[:take], prefix_s[None, :]], axis=1) > 0
                wts = wts[keep]
            visited += take
            if wts.size:
                best = min(best, int(wts.min()))
            if visited >= budget:
                return best, visited, False
            # advance odometer
            pos = 0
            while pos < nhigh:
                digits[pos] += 1
                prefix = add_tab[prefix, high_rows[pos]]
                if ns:
                    prefix_s = add_tab[prefix_s, high_srows[pos]]
                if digits[pos] < p:
                    break
                # wrapped around: p additions of the row sum to zero, state is reset
                digits[pos] = 0
                pos += 1
            if pos == nhigh:
                break
    return best, visited, True
