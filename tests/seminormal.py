"""Independent trace oracle: exact seminormal matrix models.

Builds the generators of the two-parameter deformation of the signed
permutation group on the basis of standard bitableaux, with entries in
Q evaluated at an exact rational value of u^(1/2).  Traces of words read
off from these matrices are computed without touching the package's
strip-removal evaluator, so agreement between the two is a real check.

Two parameter regimes:

* build_b_generators: T_0 has eigenvalues u and -1 (the kind B trace
  theorem's algebra);
* build_q1_generators: T_0 squares to 1, which is where the kind D
  algebra embeds via T'_0 -> T_0 T_1 T_0.

All relations (quadratics, the order-4 braid, adjacent braids and
commutations) are verified by verify_relations before any trace is
trusted.
"""

from fractions import Fraction

__all__ = [
    "std_bitableaux",
    "build_b_generators",
    "build_q1_generators",
    "verify_relations",
    "word_for_b_cycles",
    "word_for_b_cycles_in_order",
    "word_for_d_cycles",
    "trace_of_word",
    "eval_halflaurent",
]


def std_bitableaux(alpha, beta):
    """All standard fillings of the pair of diagrams, largest entry last.

    A tableau is a dict entry -> (side, row, col) with side 0 for alpha,
    rows and columns 1-indexed.
    """
    n = sum(alpha) + sum(beta)
    out = []

    def shrink(shape, r):
        parts = list(shape)
        parts[r] -= 1
        if parts[r] == 0:
            parts.pop(r)
        return tuple(parts)

    def rec(a, b, k, acc):
        if k == 0:
            out.append(dict(acc))
            return
        for side, shape in ((0, a), (1, b)):
            for r, part in enumerate(shape):
                if r + 1 < len(shape) and shape[r + 1] == part:
                    continue  # not a removable corner
                acc[k] = (side, r + 1, part)
                if side == 0:
                    rec(shrink(a, r), b, k - 1, acc)
                else:
                    rec(a, shrink(b, r), k - 1, acc)
                del acc[k]

    rec(tuple(alpha), tuple(beta), n, {})
    return out


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _identity(n):
    m = _zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _mat_mul(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            for j in range(n):
                if bk[j]:
                    oi[j] += c * bk[j]
    return out


def trace_of_word(gens, word):
    m = _identity(len(gens[0]))
    for g in word:
        m = _mat_mul(m, gens[g])
    return sum(m[i][i] for i in range(len(m)))


def _build(alpha, beta, usq, t0_value, content):
    u = usq * usq
    tabs = std_bitableaux(alpha, beta)
    index = {frozenset(t.items()): k for k, t in enumerate(tabs)}
    dim = len(tabs)
    gens = []

    t0 = _zeros(dim)
    for k, t in enumerate(tabs):
        t0[k][k] = t0_value(t[1][0])
    gens.append(t0)

    n = sum(alpha) + sum(beta)
    for i in range(1, n):
        m = _zeros(dim)
        for k, t in enumerate(tabs):
            gi, gj = content(t[i]), content(t[i + 1])
            d = (u - 1) / (1 - gi / gj)
            m[k][k] = d
            swapped = dict(t)
            swapped[i], swapped[i + 1] = t[i + 1], t[i]
            at = index.get(frozenset(swapped.items()))
            if at is not None:
                m[k][at] = 1 + d
        gens.append(m)
    return gens


def build_b_generators(alpha, beta, usq):
    u = usq * usq

    def content(box):
        side, i, j = box
        return u ** (j - i + 1) if side == 0 else -(u ** (j - i))

    return _build(alpha, beta, usq, lambda side: u if side == 0 else Fraction(-1), content)


def build_q1_generators(alpha, beta, usq):
    u = usq * usq

    def content(box):
        side, i, j = box
        return u ** (j - i) if side == 0 else -(u ** (j - i))

    return _build(
        alpha, beta, usq, lambda side: Fraction(1) if side == 0 else Fraction(-1), content
    )


def verify_relations(gens, usq, t0_squares_to_one=False):
    u = usq * usq
    dim = len(gens[0])

    def quadratic_ok(t, ev1, ev2):
        # (T - ev1)(T - ev2) = 0 entrywise
        sq = _mat_mul(t, t)
        for i in range(dim):
            for j in range(dim):
                expect = (ev1 + ev2) * t[i][j] - ev1 * ev2 * (1 if i == j else 0)
                if sq[i][j] != expect:
                    return False
        return True

    ev0 = (Fraction(1), Fraction(-1)) if t0_squares_to_one else (u, Fraction(-1))
    assert quadratic_ok(gens[0], *ev0), "quadratic fails at T_0"
    for a, t in enumerate(gens[1:], start=1):
        assert quadratic_ok(t, u, Fraction(-1)), f"quadratic fails at T_{a}"

    if len(gens) >= 2:
        ab = _mat_mul(gens[0], gens[1])
        ba = _mat_mul(gens[1], gens[0])
        assert _mat_mul(ab, ab) == _mat_mul(ba, ba), "order-4 braid fails"
    for i in range(1, len(gens) - 1):
        left = _mat_mul(_mat_mul(gens[i], gens[i + 1]), gens[i])
        right = _mat_mul(_mat_mul(gens[i + 1], gens[i]), gens[i + 1])
        assert left == right, f"braid fails at {i}"
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            assert _mat_mul(gens[i], gens[j]) == _mat_mul(gens[j], gens[i]), (
                f"commutation fails at {i},{j}"
            )


def word_for_b_cycles(cycles, n):
    """Generator indices of the endpoint word, barred cycles first ascending."""
    return word_for_b_cycles_in_order(sorted(cycles, key=lambda x: (x > 0, abs(x))), n)


def word_for_b_cycles_in_order(cycles, n):
    """Generator indices of the endpoint word, cycles in the order given.

    This is the word mn_trace evaluates: a cycle from k to l spells
    s_k .. s_(l-1), after the walk s_(k-1) .. s_1 t s_1 .. s_(k-1) if it is
    barred.
    """
    word = []
    prev = 0
    for c in cycles:
        k, l = prev + 1, prev + abs(c)
        if c < 0:
            word.extend(range(k - 1, 0, -1))
            word.append(0)
            word.extend(range(1, k))
        word.extend(range(k, l))
        prev = l
    if prev > n:
        raise ValueError("cycles exceed n")
    return word


def word_for_d_cycles(cycles, n):
    """Same, in the Q=1 model, with the extra generator spelled T_0 T_1 T_0."""
    cyc = sorted(cycles, key=lambda x: (x > 0, abs(x)))
    word = []
    prev = 0
    start = 0
    if cyc and cyc[0] < 0:
        if cyc[0] != -1 or len(cyc) < 2 or cyc[1] >= 0:
            raise ValueError("bars must form a leading [-1, -c] pair")
        c = abs(cyc[1])
        word.extend([0, 1, 0, 1])
        word.extend(range(2, 1 + c))
        prev = 1 + c
        start = 2
    for c in cyc[start:]:
        if c < 0:
            raise ValueError("bars must form a leading [-1, -c] pair")
        word.extend(range(prev + 1, prev + c))
        prev += c
    if prev > n:
        raise ValueError("cycles exceed n")
    return word


def eval_halflaurent(value, usq):
    """Evaluate a package HalfLaurent at the exact point u^(1/2) = usq."""
    return sum(Fraction(c) * usq ** k for k, c in value.terms.items())
