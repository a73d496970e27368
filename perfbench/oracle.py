"""Independent reference arithmetic for pinning expected outputs.

Nothing here imports qckit.  Field elements use the same integer encoding as
qckit (coefficient vector on the power basis, read little-endian base p) over
an explicitly given modulus, so tables built here can be compared entry by
entry with qckit's.  The distance oracle enumerates every codeword as a sum
of two half-spans, which shares no code with qckit's Gray walk.
"""

from __future__ import annotations

import numpy as np

# Least monic irreducible moduli, coefficients from x^0 up.
MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (5, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
}


def field_tables(p: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) tables of F_{p^t} over the modulus in MODULI."""
    modulus = MODULI[(p, t)]
    q = p**t

    def digits(a):
        return [(a // p**i) % p for i in range(t)]

    def encode(cs):
        return sum(c * p**i for i, c in enumerate(cs))

    def mul(a, b):
        prod = [0] * (2 * t - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * t - 2, t - 1, -1):
            c = prod[deg]
            if c:
                for i, m in enumerate(modulus):
                    prod[deg - t + i] = (prod[deg - t + i] - c * m) % p
        return encode(prod[:t])

    add = np.array([[encode([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)], dtype=np.int64)
    mult = np.array([[mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    return add, mult


def rank(gen: np.ndarray, add: np.ndarray, mul: np.ndarray) -> int:
    """Row rank by Gaussian elimination over the tabulated field."""
    q = add.shape[0]
    neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)])
    inv = np.array([0] + [int(np.nonzero(mul[a] == 1)[0][0]) for a in range(1, q)])
    m = gen.copy()
    r = 0
    for col in range(m.shape[1]):
        piv = next((i for i in range(r, m.shape[0]) if m[i, col]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = mul[inv[m[r, col]], m[r]]
        for i in range(m.shape[0]):
            if i != r and m[i, col]:
                m[i] = add[m[i], mul[neg[m[i, col]], m[r]]]
        r += 1
    return r


def _span(rows: np.ndarray, add: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        words = np.concatenate([add[words, mul[c, row][None, :]] for c in range(add.shape[0])])
    return words


def min_weight(gen: np.ndarray, add: np.ndarray, mul: np.ndarray,
               outside: np.ndarray | None = None) -> int:
    """Least weight of a nonzero codeword of the full-rank code spanned by gen.

    With `outside` (rows h_j), only codewords with some nonzero inner product
    <c, h_j> count: the minimum over C minus the dual of span(outside).
    Returns n + 1 when no codeword qualifies.
    """
    k, n = gen.shape
    aug = gen
    if outside is not None:
        prods = mul[gen[:, None, :], outside[None, :, :]]
        syn = np.zeros(prods.shape[:2], dtype=np.int64)
        for col in range(n):
            syn = add[syn, prods[:, :, col]]
        aug = np.hstack([gen, syn])
    q = add.shape[0]
    low = 0
    while low < k and q ** (low + 1) <= 1 << 16:
        low += 1
    low_words = _span(aug[k - low:], add, mul)
    high_words = _span(aug[:k - low], add, mul)
    best = n + 1
    for i, prefix in enumerate(high_words):
        words = add[low_words, prefix[None, :]]
        weights = np.count_nonzero(words[:, :n], axis=1)
        keep = np.ones(len(words), dtype=bool)
        if i == 0:
            keep[0] = False  # the zero codeword
        if outside is not None:
            keep &= np.count_nonzero(words[:, n:], axis=1) > 0
        if keep.any():
            best = min(best, int(weights[keep].min()))
    return best
