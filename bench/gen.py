"""Seeded automaton generators for the benchmark workloads.

Automata are drawn as plain oracle.Doc values and written to documents with
fuzzdet's own serialize_automaton, so the program only ever sees the text it
would get from a user. The same seed gives byte-identical documents.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import Doc, count_vectors, minimal_size, on_ints, words_up_to

FRACTIONS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(3, 4), Fraction(1)]


def pool(kind: str, top_index: int | None) -> list:
    """Nonzero values a random entry may take."""
    if kind == "chain":
        return list(range(1, top_index + 1))
    if kind == "boolean":
        return [Fraction(1)]
    return FRACTIONS


def _entry(rng: random.Random, values: list, zero_bias: float, zero):
    return zero if rng.random() < zero_bias else rng.choice(values)


def random_doc(rng: random.Random, kind: str, n: int, alphabet: tuple[str, ...],
               top_index: int | None = None, zero_bias: float = 0.5) -> Doc:
    """Random automaton; each entry is zero with probability zero_bias.

    State 0 is initial with the top degree, so a single changed value can
    always show on some short word (see near_miss).
    """
    values = pool(kind, top_index)
    zero = 0 if kind == "chain" else Fraction(0)

    def vec():
        return [_entry(rng, values, zero_bias, zero) for _ in range(n)]

    delta = {x: [vec() for _ in range(n)] for x in alphabet}
    sigma = vec()
    sigma[0] = values[-1]
    return Doc(kind, top_index, alphabet, sigma, delta, vec())


# goguen3's values: a document over them closes its values exactly as
# goguen3 does, so its preflight does the same work.
GOGUEN3_VALUES = [Fraction(3, 10), Fraction(1, 2), Fraction(1)]


def forward_goguen_doc(rng: random.Random, n: int, alphabet: tuple[str, ...]) -> Doc:
    """Goguen automaton with fractional degrees only on forward edges i < j.

    Self-loops are crisp and backward edges absent, so every path uses each
    fractional edge at most once: the constructions stay finite and small,
    while the value closure (products of fractions) is infinite and makes
    preflight run to its cap. Its values are always 0 and GOGUEN3_VALUES,
    each placed on some forward edge, so preflight does goguen3's work for
    every seed, and the preflight-bound calls of a workload cost alike.
    """
    zero, one = Fraction(0), Fraction(1)
    delta = {}
    for x in alphabet:
        rows = []
        for i in range(n):
            rows.append([zero if j < i else
                         rng.choice([zero, one]) if j == i else
                         _entry(rng, GOGUEN3_VALUES, 0.4, zero) for j in range(n)])
        delta[x] = rows
    sigma = [one] + [_entry(rng, GOGUEN3_VALUES, 0.7, zero) for _ in range(n - 1)]
    tau = [_entry(rng, GOGUEN3_VALUES, 0.3, zero) for _ in range(n)]
    slots = [(x, i, j) for x in alphabet for i in range(n) for j in range(i + 1, n)]
    for (x, i, j), v in zip(rng.sample(slots, len(GOGUEN3_VALUES)), GOGUEN3_VALUES):
        delta[x][i][j] = v
    return Doc("goguen", None, alphabet, sigma, delta, tau)


def nth_from_end(n: int, alphabet: tuple[str, str] = ("a", "b")) -> Doc:
    """Boolean NFA for 'the n-th symbol from the end is a': n + 1 states.

    State 0 loops on every symbol and guesses the a; states 1..n count the
    remaining symbols; state n accepts. Its minimal DFA has 2^n states.
    """
    a, b = alphabet
    one, zero = Fraction(1), Fraction(0)
    size = n + 1
    delta = {x: [[zero] * size for _ in range(size)] for x in alphabet}
    for x in alphabet:
        delta[x][0][0] = one
        for i in range(1, n):
            delta[x][i][i + 1] = one
    delta[a][0][1] = one
    sigma = [one] + [zero] * n
    tau = [zero] * n + [one]
    return Doc("boolean", None, alphabet, sigma, delta, tau)


def mirror(doc: Doc) -> Doc:
    """Reverse automaton: swap sigma and tau, transpose every matrix."""
    delta = {x: [list(col) for col in zip(*rows)] for x, rows in doc.delta.items()}
    return Doc(doc.kind, doc.top_index, doc.alphabet, list(doc.tau), delta,
               list(doc.sigma))


def permuted(rng: random.Random, doc: Doc) -> Doc:
    """The same automaton with its states renumbered: an equivalent document."""
    n = doc.n
    order = list(range(n))
    rng.shuffle(order)
    sigma = [doc.sigma[old] for old in order]
    tau = [doc.tau[old] for old in order]
    delta = {x: [[rows[order[i]][order[j]] for j in range(n)] for i in range(n)]
             for x, rows in doc.delta.items()}
    return Doc(doc.kind, doc.top_index, doc.alphabet, sigma, delta, tau)


def near_miss(rng: random.Random, doc: Doc, max_len: int = 2) -> Doc | None:
    """Change one value so that some word of length <= max_len changes degree.

    Candidates (an entry of sigma, tau or a matrix, and a new value) are
    tried in seeded order, sigma and tau first: a changed vector entry keeps
    the transition structure, so a construction that stops on the original
    (a forward Goguen document, say) stops on the near miss too. The oracle
    picks the first candidate that shows. None when no single change shows,
    as for some automata accepting everything.
    """
    n = doc.n
    values = pool(doc.kind, doc.top_index) + [doc.bottom]
    vectors = [("sigma", i, None) for i in range(n)] + [("tau", i, None) for i in range(n)]
    matrices = [(x, i, j) for x in doc.alphabet for i in range(n) for j in range(n)]
    rng.shuffle(vectors)
    rng.shuffle(matrices)
    slots = vectors + matrices
    words = list(words_up_to(doc.alphabet, max_len))
    base = [doc.degree(w) for w in words]
    for where, i, j in slots:
        for v in rng.sample(values, len(values)):
            cand = Doc(doc.kind, doc.top_index, doc.alphabet, list(doc.sigma),
                       {x: [list(r) for r in rows] for x, rows in doc.delta.items()},
                       list(doc.tau))
            if where == "sigma":
                cand.sigma[i] = v
            elif where == "tau":
                cand.tau[i] = v
            else:
                cand.delta[where][i][j] = v
            if any(cand.degree(w) != d for w, d in zip(words, base)):
                return cand
    return None


def in_band(doc: Doc, reverse_band: tuple[int, int], minimal_band: tuple[int, int],
            forward_cap: int) -> bool:
    """Whether the oracle counts reverse Nerode and minimal cdfa sizes inside the
    bands, and at most forward_cap forward Nerode states."""
    scaled = on_ints(doc)
    rev = count_vectors(scaled, forward=False, cap=reverse_band[1])
    if rev is None or rev < reverse_band[0]:
        return False
    if count_vectors(scaled, forward=True, cap=forward_cap) is None:
        return False
    size = minimal_size(scaled, forward_cap)
    return size is not None and minimal_band[0] <= size <= minimal_band[1]


def random_in_band(rng: random.Random, kind: str, n: int, alphabet: tuple[str, ...],
                   top_index: int | None, zero_bias: float, reverse_band: tuple[int, int],
                   minimal_band: tuple[int, int], forward_cap: int) -> Doc:
    """Random automaton whose reverse Nerode and minimal cdfa sizes lie in bands.

    incl costs about (minimal states) x (reverse states) implication meets and
    brzozowski about (minimal states) x (reverse states)^2, and an unfiltered
    draw spans four orders of magnitude of run time. The bands, counted by the
    oracle, keep every document's work comparable, so that a handful of
    documents gives the same medians for every seed.
    """
    while True:
        doc = random_doc(rng, kind, n, alphabet, top_index, zero_bias)
        if in_band(doc, reverse_band, minimal_band, forward_cap):
            return doc
