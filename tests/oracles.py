"""Independent reference oracles used by the tests.

These deliberately avoid the library paths they are checking: distances come
from a plain counting-order enumeration (no information sets), information
sets from one scalar elimination per set, duals from
brute-force orthogonality over the whole ambient space, echelon forms and
Gram matrices from one scalar field operation per entry, irreducibility from
trial division, and mid-size distances from a MacWilliams transform of the
naive dual enumeration.
"""

from __future__ import annotations



def naive_min_distance(code) -> int | None:
    """Messages in counting order, codeword rebuilt from scratch each time."""
    field, k, n = code.field, code.k, code.n
    q = field.order
    if k == 0:
        return None
    assert q**k <= 10**6, "oracle is for small codes"
    best = n + 1
    for msg in range(1, q**k):
        rem = msg
        word = [0] * n
        for i in range(k):
            coef = rem % q
            rem //= q
            if coef:
                row = code.gen[i]
                word = [field.add(w, field.mul(coef, int(r))) for w, r in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return best


def scalar_rref(field, mat):
    """Textbook Gauss-Jordan on lists with GF.add/mul/inv; returns (rows, pivots)."""
    r = [[int(v) for v in row] for row in mat]
    n = len(mat[0]) if len(mat) else 0
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, len(r)) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = field.inv(r[row][col])
        r[row] = [field.mul(inv, v) for v in r[row]]
        for i in range(len(r)):
            if i != row and r[i][col] != 0:
                f = field.neg(r[i][col])
                r[i] = [field.add(a, field.mul(f, b)) for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r[:row], tuple(pivots)


def eliminated_information_sets(field, gen):
    """Greedy information sets by elimination alone: scalar RREF of gen with
    the not-yet-used columns first, read back in the original column order,
    until an elimination finds no pivot on an unused column (rank 0).
    Returns [(Gamma_j as lists, r_j)]."""
    n = len(gen[0])
    used = [False] * n
    sets = []
    while True:
        fresh = [c for c in range(n) if not used[c]]
        order = fresh + [c for c in range(n) if used[c]]
        rows, piv = scalar_rref(field, [[int(row[c]) for c in order] for row in gen])
        new = [pos for pos in piv if pos < len(fresh)]
        if not new:
            return sets
        gamma = [[0] * n for _ in rows]
        for i, row in enumerate(rows):
            for pos, c in enumerate(order):
                gamma[i][c] = row[pos]
        for pos in new:
            used[order[pos]] = True
        sets.append((gamma, len(new)))


def scalar_gram(field, a, b):
    """a @ b.T entry by entry with GF.add/mul."""
    out = []
    for x in a:
        line = []
        for y in b:
            s = 0
            for u, v in zip(x, y):
                s = field.add(s, field.mul(int(u), int(v)))
            line.append(s)
        out.append(line)
    return out


def brute_dual_vectors(code):
    """All vectors of the ambient space orthogonal to every generator."""
    field, n = code.field, code.n
    q = field.order
    assert q**n <= 2**18, "oracle is for tiny ambient spaces"
    out = []
    for idx in range(q**n):
        rem = idx
        vec = []
        for _ in range(n):
            vec.append(rem % q)
            rem //= q
        ok = True
        for row in code.gen:
            s = 0
            for a, b in zip(vec, row):
                s = field.add(s, field.mul(a, int(b)))
            if s != 0:
                ok = False
                break
        if ok:
            out.append(tuple(vec))
    return out


def trial_division_irreducible(coeffs, p) -> bool:
    """Monic polynomial over F_p, tested by dividing by every lower-degree
    monic irreducible (built up by the same sieve)."""
    def pmod(a, f):
        a = list(a)
        df = len(f) - 1
        while len(a) - 1 >= df and a:
            c = a[-1]
            if c:
                k = len(a) - 1 - df
                for i in range(df + 1):
                    a[k + i] = (a[k + i] - c * f[i]) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    deg = len(coeffs) - 1
    irreducibles = []
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            rem = idx
            cand = []
            for _ in range(d):
                cand.append(rem % p)
                rem //= p
            cand.append(1)
            if all(pmod(cand, f) for f in irreducibles if len(f) - 1 <= d // 2):
                irreducibles.append(cand)
    return all(pmod(coeffs, f) for f in irreducibles)


def macwilliams_weights(dual_weight_counts, n, q, dual_size):
    """Weight distribution of the primal code from the dual's distribution."""
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def poly_pow(a, e):
        r = [1]
        while e:
            if e & 1:
                r = poly_mul(r, a)
            a = poly_mul(a, a)
            e >>= 1
        return r

    total = [0] * (n + 1)
    for w, c in enumerate(dual_weight_counts):
        if not c:
            continue
        term = poly_mul(poly_pow([1, q - 1], n - w), poly_pow([1, -1], w))
        for i, v in enumerate(term):
            total[i] += c * v
    assert all(v % dual_size == 0 for v in total)
    return [v // dual_size for v in total]
