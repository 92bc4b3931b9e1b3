"""Generators and independent oracles shared by the test modules.

The boolean oracle below works on plain Python sets and lists on purpose:
it must not share code with the library paths it checks. The slow
constructions the package replaced live here too, each once: the d
vectors from their definitions (d_epsilon, d_step), reverse,
identity_matrix and cdfa_as_fuzzy_automaton. They compute on lattice
values with the lattice's checked scalar operations (_sup, _inf_resid),
never with the library's loops.
"""

import argparse
import itertools
import random
from collections import deque
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cache

from fuzzdet import (
    BOOLEAN,
    DEFAULT_CAP,
    GODEL,
    LUKASIEWICZ,
    CapExceeded,
    Cdfa,
    DimensionMismatch,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    InvarianceViolation,
    LatticeMismatch,
    SemiringClosure,
    ValueSet,
    mat_compose,
    chain,
    mat_vec,
    vec_mat,
)
from fuzzdet.cli import METHODS


class K(IntEnum):
    """An int subclass a caller may hold numbers in: no count and no chain
    value, which are plain ints, but coerce reads one."""
    ZERO = 0
    FOUR = 4


class G(Fraction):
    """A Fraction subclass: no unit-interval value, but coerce reads one."""


class S(str, Enum):
    """A str subclass a caller may hold names in: no lattice kind, alphabet
    symbol or symbol of a cdfa's word, which are plain strs, whatever it equals."""
    X = "x"
    GODEL = "godel"


def value_pool(lattice):
    if lattice.kind == "chain":
        return list(range(lattice.top_index + 1))
    if lattice.kind == "boolean":
        return [Fraction(0), Fraction(1)]
    return [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def random_value(rng, lattice, zero_bias=0.45):
    if rng.random() < zero_bias:
        return lattice.bottom
    return rng.choice(value_pool(lattice))


def random_vector(rng, lattice, n, zero_bias=0.45):
    return FuzzyVector(lattice, tuple(random_value(rng, lattice, zero_bias)
                                      for _ in range(n)))


def random_matrix(rng, lattice, n, zero_bias=0.45):
    return FuzzyMatrix(lattice, tuple(
        tuple(random_value(rng, lattice, zero_bias) for _ in range(n))
        for _ in range(n)))


def random_automaton(rng, lattice, n, alphabet=("x", "y"), zero_bias=0.45):
    return FuzzyAutomaton(
        lattice, tuple(alphabet),
        random_vector(rng, lattice, n, zero_bias),
        {x: random_matrix(rng, lattice, n, zero_bias) for x in alphabet},
        random_vector(rng, lattice, n, zero_bias))


def moore_cases():
    """(lattice, automaton) for the Moore quotient test: 15 seeded automata
    for each n from 2 to 5 on each lattice but Goguen, where nerode seldom
    terminates."""
    rng = random.Random(5)
    return [(lattice, random_automaton(rng, lattice, n))
            for lattice in (BOOLEAN, GODEL, LUKASIEWICZ, chain(3), chain(7))
            for n in range(2, 6) for _ in range(15)]


def nth_from_end(n, alphabet=("x", "y")):
    """Boolean automaton for 'the n-th symbol from the end is x', n + 1 states.

    State 0 loops on every symbol and guesses the x; states 1..n count the
    symbols left, and state n accepts. Its minimal cdfa has 2^n states.
    """
    x = alphabet[0]
    size = n + 1
    delta = {y: [[0] * size for _ in range(size)] for y in alphabet}
    for y in alphabet:
        delta[y][0][0] = 1
        for i in range(1, n):
            delta[y][i][i + 1] = 1
    delta[x][0][1] = 1
    return FuzzyAutomaton.build(BOOLEAN, alphabet, [1] + [0] * n, delta, [0] * n + [1])


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


# -- boolean oracle: subset construction plus Moore minimization -----------


def subset_dfa(a):
    """Accessible subset automaton of a boolean fuzzy automaton.

    Returns (transitions, accepting): transitions[s][i] is the successor of
    subset-state s under alphabet symbol i, accepting[s] is a bool.
    """
    n = a.n
    succ = {}
    for x in a.alphabet:
        rows = a.delta[x].entries
        succ[x] = [frozenset(j for j in range(n) if rows[i][j] == 1)
                   for i in range(n)]
    init = frozenset(i for i in range(n) if a.sigma[i] == 1)
    finals = {i for i in range(n) if a.tau[i] == 1}
    index = {init: 0}
    order = [init]
    transitions = []
    queue = [init]
    while queue:
        s = queue.pop(0)
        row = []
        for x in a.alphabet:
            t = frozenset(j for i in s for j in succ[x][i])
            if t not in index:
                index[t] = len(order)
                order.append(t)
                queue.append(t)
            row.append(index[t])
        transitions.append(row)
    accepting = [bool(s & finals) for s in order]
    return transitions, accepting


def moore_classes(transitions, terminals):
    """The Nerode classes of a complete accessible deterministic automaton,
    crisp or fuzzy: a class index per state.

    Moore's refinement (E. F. Moore, 1956, "Gedanken-experiments on
    sequential machines") from the partition by terminal degree, or by
    acceptance: states stay together while their successors do.
    """
    first = {}
    cls = [first.setdefault(t, len(first)) for t in terminals]
    while True:
        signatures = {}
        refined = []
        for s in range(len(transitions)):
            key = (cls[s], tuple(cls[t] for t in transitions[s]))
            if key not in signatures:
                signatures[key] = len(signatures)
            refined.append(signatures[key])
        if refined == cls:
            return cls
        cls = refined


def boolean_accepts_from(a, start, word):
    """Set-walk acceptance of a boolean automaton from an explicit state set."""
    n = a.n
    succ = {x: [set(j for j in range(n) if a.delta[x].entries[i][j] == 1)
                for i in range(n)] for x in a.alphabet}
    finals = {i for i in range(n) if a.tau[i] == 1}
    s = set(start)
    for x in word:
        s = {j for i in s for j in succ[x][i]}
    return bool(s & finals)


# -- psi construction helper ------------------------------------------------


def clone_extend(a):
    """Append a fully interchangeable copy of the last state.

    The copy shares its row, its column, sigma and tau with the original,
    so the relation gluing the two is reflexive and left invariant. Returns
    (extended automaton, gluing psi).
    """
    n = a.n
    lat = a.lattice
    delta = {}
    for x, m in a.delta.items():
        rows = [tuple(r) + (r[n - 1],) for r in m.entries]
        rows.append(rows[n - 1])
        delta[x] = FuzzyMatrix(lat, tuple(rows))
    sigma = FuzzyVector(lat, a.sigma.entries + (a.sigma[n - 1],))
    tau = FuzzyVector(lat, a.tau.entries + (a.tau[n - 1],))
    extended = FuzzyAutomaton(lat, a.alphabet, sigma, delta, tau)
    base = [list(row) for row in identity_matrix(lat, n + 1).entries]
    base[n - 1][n] = lat.top
    base[n][n - 1] = lat.top
    psi = FuzzyMatrix(lat, tuple(tuple(row) for row in base))
    return extended, psi


def psi_glued(a, psi):
    """The automaton (sigma, psi ∘ delta_x, psi ∘ tau) whose reverse tree psi glues."""
    delta = {x: mat_compose(psi, m) for x, m in a.delta.items()}
    return FuzzyAutomaton(a.lattice, a.alphabet, a.sigma, delta, mat_vec(psi, a.tau))


def quasi_order_automaton(rng, lattice, n, alphabet=("x", "y"), zero_bias=0.45):
    """A random automaton with a random fuzzy quasi-order psi left invariant for it.

    psi is the reflexive-transitive closure of a random relation. Taking
    sigma = s ∘ psi and delta_x = m_x ∘ psi gives sigma ∘ psi = sigma and
    delta_x ∘ psi = delta_x <= psi ∘ delta_x. tau stays arbitrary, so psi ∘ tau
    usually differs from tau. Returns (automaton, psi).
    """
    top = lattice.top
    rows = random_matrix(rng, lattice, n, zero_bias).entries
    psi = FuzzyMatrix(lattice, tuple(
        tuple(top if i == j else v for j, v in enumerate(row))
        for i, row in enumerate(rows)))
    while (closed := mat_compose(psi, psi)) != psi:
        psi = closed
    sigma = vec_mat(random_vector(rng, lattice, n, zero_bias), psi)
    delta = {x: mat_compose(random_matrix(rng, lattice, n, zero_bias), psi)
             for x in alphabet}
    tau = random_vector(rng, lattice, n, zero_bias)
    return FuzzyAutomaton(lattice, tuple(alphabet), sigma, delta, tau), psi


# -- the value-level left invariance check that determinize replaced: its oracle --


def value_check_left_invariant(a, psi):
    """Check sigma ∘ psi <= sigma and delta_x ∘ psi <= psi ∘ delta_x for all x.

    Returns the first violated coordinate, or None when psi is left
    invariant. Reflexivity is not required here.
    """
    _check_psi_shape(a, psi)
    sp = vec_mat(a.sigma, psi)
    for j in range(a.n):
        if not sp[j] <= a.sigma[j]:
            return InvarianceViolation("sigma", (j,), sp[j], a.sigma[j])
    for x in a.alphabet:
        left = mat_compose(a.delta[x], psi)
        right = mat_compose(psi, a.delta[x])
        for i in range(a.n):
            for j in range(a.n):
                if not left.entries[i][j] <= right.entries[i][j]:
                    return InvarianceViolation(
                        x, (i, j), left.entries[i][j], right.entries[i][j])
    return None


def _check_psi_shape(a, psi):
    if psi.lattice != a.lattice:
        raise LatticeMismatch("psi is in another lattice")
    if psi.n_rows != a.n or psi.n_cols != a.n:
        raise DimensionMismatch(
            f"psi is {psi.n_rows}x{psi.n_cols}, expected {a.n}x{a.n}")


# -- saturation oracle for the semiring closure -------------------------------


def saturate_closure(lattice, seed, cap):
    """The value closure by brute force: saturate under join and tmul.

    Worklist saturation in insertion order, seeds sorted first, stopping the
    moment the working set holds more than cap values. Returns the same
    SemiringClosure that semiring_closure must return.
    """
    if isinstance(seed, ValueSet):
        seed_values = sorted(seed.elements)
    else:
        seed_values = sorted(lattice.coerce(v) for v in seed)

    ordered = []
    seen = set()
    for v in [lattice.bottom, lattice.top, *seed_values]:
        if v not in seen:
            seen.add(v)
            ordered.append(v)
    if len(ordered) > cap:
        return SemiringClosure(False, None, len(ordered), cap)

    queue = deque(ordered)
    join, tmul = lattice.join, lattice.tmul
    while queue:
        v = queue.popleft()
        for w in tuple(ordered):
            for r in (join(v, w), tmul(v, w)):
                if r in seen:
                    continue
                seen.add(r)
                ordered.append(r)
                queue.append(r)
                if len(ordered) > cap:
                    return SemiringClosure(False, None, len(ordered), cap)
    return SemiringClosure(True, ValueSet(lattice, frozenset(ordered)), len(ordered), cap)


# -- every construction from its definition, on lattice values ----------------


def _sup(lattice, xs, ys):
    """join_k tmul(xs[k], ys[k]), one checked scalar operation at a time."""
    acc = lattice.bottom
    for x, y in zip(xs, ys):
        acc = lattice.join(acc, lattice.tmul(x, y))
    return acc


def _inf_resid(lattice, xs, ys):
    """meet_k resid(xs[k], ys[k]), one checked scalar operation at a time."""
    acc = lattice.top
    for x, y in zip(xs, ys):
        acc = lattice.meet(acc, lattice.resid(x, y))
    return acc


def identity_matrix(lattice, n):
    """Crisp identity: top on the diagonal, bottom elsewhere."""
    top, bottom = lattice.top, lattice.bottom
    return FuzzyMatrix(
        lattice, tuple(tuple(top if i == j else bottom for j in range(n)) for i in range(n)))


def reverse(a):
    """Mirror image: swap sigma with tau and transpose every matrix.

    The reverse accepts each reversed word with the original degree.
    """
    delta = {x: FuzzyMatrix(a.lattice, tuple(zip(*m.entries))) for x, m in a.delta.items()}
    return FuzzyAutomaton(a.lattice, a.alphabet, a.tau, delta, a.sigma)


def cdfa_as_fuzzy_automaton(c):
    """Embed a cdfa as a fuzzy automaton with crisp initial set and transitions.

    State words and vectors are dropped; only the language matters to callers.
    """
    lat = c.lattice
    top, bottom = lat.top, lat.bottom
    n = c.n
    sigma = FuzzyVector(lat, tuple(top if i == c.initial else bottom for i in range(n)))
    delta = {}
    for xi, x in enumerate(c.alphabet):
        rows = []
        for s in range(n):
            target = c.transitions[s][xi]
            rows.append(tuple(top if j == target else bottom for j in range(n)))
        delta[x] = FuzzyMatrix(lat, tuple(rows))
    tau = FuzzyVector(lat, c.terminal)
    return FuzzyAutomaton(lat, c.alphabet, sigma, delta, tau)


# The d vectors, over the reverse Nerode states mus: edges[s][k] is the
# state that mus[s] is glued to under the k-th alphabet symbol.


def _implication_meet(lattice, vectors, scalars):
    """Componentwise meet_j (vectors[j][i] -> scalars[j])."""
    return FuzzyVector(lattice, tuple(_inf_resid(lattice, col, scalars)
                                      for col in zip(*vectors)))


def d_epsilon(a, mus):
    """Root vector of the inclusion-degree construction.

    d_eps(i) = meet over mu in mus of mu(i) -> (sigma ∘ mu): the degree to
    which everything accepted from state i is in the language.
    """
    return _implication_meet(a.lattice, mus, [_sup(a.lattice, a.sigma, mu) for mu in mus])


def d_step(a, d_u, x, mus, edges):
    """Successor d_{ux} of d_u under symbol x.

    d_{ux}(i) = meet over mu in mus of mu(i) -> (d_u ∘ mu_x), with mu_x the
    glued x-child of mu.
    """
    k = a.alphabet.index(x)
    return _implication_meet(a.lattice, mus,
                             [_sup(a.lattice, d_u, mus[row[k]]) for row in edges])


def shortlex_first_words(alphabet, root, step, key, keys):
    """Per key in keys, the first word u in shortlex order whose payload has
    that key, by enumerating every word, one length at a time, until each key
    has its word; no key's word is longer than len(keys) - 1. The empty
    word's payload is root and x·v's is step(p, x), with p v's payload:
    words grow on the left, as tau_u do. step is pure, so each (p, x) is
    computed once.
    """
    first, step = {}, cache(step)
    level = [((), root)]
    for _ in keys:
        for u, p in level:
            first.setdefault(key(p), u)
        if all(k in first for k in keys):
            break
        level = [((x,) + u, step(p, x)) for x in alphabet for u, p in level]
    return [first[k] for k in keys]


def _oracle_tree(alphabet, root, step, key, cap, prepend):
    """Breadth-first over states; a child whose key was seen is glued to it.

    step(p, x) is the payload of p's x-child and key(p) the FuzzyVector that
    names its state. Returns a CapExceeded the moment a (cap+1)-th state
    would be made, else (keys, payloads, transitions, words). Grown on the
    right, each word is the shortlex-least among the root's and every
    child's word glued to the state, a child's word being its parent state's
    first word extended; grown on the left (prepend), shortlex_first_words.
    """
    payloads, keys, first = [root], [key(root)], [()]
    index = {keys[0]: 0}
    transitions = []
    s = 0
    while s < len(payloads):
        row = []
        for x in alphabet:
            p = step(payloads[s], x)
            k = key(p)
            if k not in index:
                if len(keys) >= cap:
                    return CapExceeded(cap)
                index[k] = len(keys)
                payloads.append(p)
                keys.append(k)
                first.append(first[s] + (x,))
            row.append(index[k])
        transitions.append(tuple(row))
        s += 1
    if prepend:
        return keys, payloads, tuple(transitions), shortlex_first_words(alphabet, root, step,
                                                                         key, keys)
    rank = {x: i for i, x in enumerate(alphabet)}

    def order(w):
        return len(w), [rank[x] for x in w]

    words = list(first)
    for s, row in enumerate(transitions):
        for x, t in zip(alphabet, row):
            w = first[s] + (x,)
            if order(w) < order(words[t]):
                words[t] = w
    return keys, payloads, tuple(transitions), words


def slow_d_forward(a, rn, cap):
    """The forward phase grown state by state with d_epsilon and d_step.

    This is the inclusion-degree construction computed from its definition,
    over the library's reverse tree rn. Returns (result, closure_checks):
    result is a CapExceeded, or (transitions, terminals, words, d vectors)
    with states in breadth-first order and words in shortlex order.
    """
    mus, edges = rn.state_vectors, rn.state_edges
    checks = 0

    def step(d, x):
        nonlocal checks
        checks += 1
        return d_step(a, d, x, mus, edges)

    tree = _oracle_tree(a.alphabet, d_epsilon(a, mus), step, lambda d: d, cap, False)
    if isinstance(tree, CapExceeded):
        return tree, checks
    vectors, _, transitions, words = tree
    return (transitions, tuple(_sup(a.lattice, d, a.tau) for d in vectors), words,
            vectors), checks


def oracle_vertices(alphabet, root, step, prepend, cap):
    """Every vertex of a transition tree, by a plain breadth-first search.

    step(v, x) is vector v's x-child, a tuple of values. Returns a list of
    (word, pointer, closed, parent, symbol), root first: pointer is the
    1-based state number in order of first appearance and parent the
    parent vertex's index. None when more than cap states would be made.
    """
    vertices = [((), 1, False, None, None)]
    pointer = {root: 1}
    queue = deque([(0, root)])
    while queue:
        parent, v = queue.popleft()
        word = vertices[parent][0]
        for x in alphabet:
            child = step(v, x)
            closed = child in pointer
            if not closed:
                if len(pointer) >= cap:
                    return None
                pointer[child] = len(pointer) + 1
                queue.append((len(vertices), child))
            vertices.append(((x,) + word if prepend else word + (x,), pointer[child],
                             closed, parent, x))
    return vertices


def shortlex_least_words(alphabet, vertices):
    """Per state, the shortlex-least word over its vertices, ties by alphabet order."""
    rank = {x: i for i, x in enumerate(alphabet)}
    best = {}
    for word, pointer, *_ in vertices:
        key = (len(word), [rank[x] for x in word])
        if pointer not in best or key < best[pointer][0]:
            best[pointer] = (key, word)
    return [best[p][1] for p in sorted(best)]


def oracle_cdfa(a, method, psi=None, cap=DEFAULT_CAP):
    """The cdfa of a method (as the CLI names it), or its CapExceeded.

    Grows FuzzyVectors from each construction's definition with the
    lattice's scalar operations, sharing no code with the library's loops:
      nerode      sigma_u, terminal sigma_u ∘ tau;
      rnerode     tau_u, terminal sigma ∘ tau_u, words grown on the left;
      incl, psi   the d vectors over the reverse tree (glued by psi for
                  psi: root psi ∘ tau, children (psi ∘ delta_x) ∘ mu),
                  terminal d_u ∘ tau;
      brzozowski  states named by w_u = (sigma_u ∘ mu_s) over the reverse
                  states mu_s, terminal sigma_u ∘ tau.
    """
    lat, alphabet = a.lattice, a.alphabet
    columns = {x: list(zip(*a.delta[x].entries)) for x in alphabet}

    def vector(values):
        return FuzzyVector(lat, tuple(values))

    def forward(v, x):
        return vector(_sup(lat, v, col) for col in columns[x])

    def cdfa(tree, terminal):
        if isinstance(tree, CapExceeded):
            return tree
        keys, payloads, transitions, words = tree
        return Cdfa(lat, alphabet, transitions, 0, tuple(terminal(p) for p in payloads),
                    tuple(words), tuple(keys))

    def same(v):
        return v

    if method == "nerode":
        tree = _oracle_tree(alphabet, a.sigma, forward, same, cap, False)
        return cdfa(tree, lambda v: _sup(lat, v, a.tau))
    rows = {x: a.delta[x].entries for x in alphabet}
    root = a.tau
    if method == "psi":
        psi = psi if psi is not None else identity_matrix(lat, a.n)
        rows = {x: tuple(tuple(_sup(lat, p, col) for col in columns[x]) for p in psi.entries)
                for x in alphabet}
        root = vector(_sup(lat, p, a.tau) for p in psi.entries)
    rn = _oracle_tree(alphabet, root,
                      lambda v, x: vector(_sup(lat, r, v) for r in rows[x]),
                      same, cap, True)
    if method == "rnerode" or isinstance(rn, CapExceeded):
        return cdfa(rn, lambda v: _sup(lat, a.sigma, v))
    mus, _, edges, _ = rn
    if method == "brzozowski":
        tree = _oracle_tree(alphabet, a.sigma, forward,
                            lambda v: vector(_sup(lat, v, mu) for mu in mus), cap, False)
        return cdfa(tree, lambda v: _sup(lat, v, a.tau))

    tree = _oracle_tree(alphabet, d_epsilon(a, mus),
                        lambda d, x: d_step(a, d, x, mus, edges), same, cap, False)
    return cdfa(tree, lambda d: _sup(lat, d, a.tau))


# -- the argparse command line that cli.parse_args replaced: its oracle -------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzdet",
        description="Evaluate and crisp-determinize fuzzy finite automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="membership degree of one word")
    p.add_argument("file", help="automaton document")
    p.add_argument("word", help="dot-separated symbols, or _ for the empty word")
    p.set_defaults(handler="cmd_eval")

    p = sub.add_parser("det", help="determinize to a cdfa and report it")
    p.add_argument("file", help="automaton document")
    p.add_argument("--method", choices=METHODS, default="incl")
    p.add_argument("--psi", default=None, metavar="FILE",
                   help="psi matrix document, or 'identity' (psi method only)")
    p.add_argument("--max-states", type=int, default=DEFAULT_CAP, metavar="N")
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="write DOT here, '-' for stdout")
    p.add_argument("--stats", action="store_true",
                   help="print build counters to stderr")
    p.set_defaults(handler="cmd_det")

    p = sub.add_parser("equiv", help="compare the languages of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--method", default="incl", metavar="M[,M]",
                   help="construction per input, one name or a comma pair")
    p.add_argument("--psi", default=None, metavar="FILE")
    p.add_argument("--max-states", type=int, default=DEFAULT_CAP, metavar="N")
    p.set_defaults(handler="cmd_equiv")

    p = sub.add_parser("semiring", help="close the value set, report the k^n bound")
    p.add_argument("file", help="automaton document")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                   help="stop after this many distinct values")
    p.set_defaults(handler="cmd_semiring")

    return parser
