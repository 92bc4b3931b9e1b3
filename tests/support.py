"""Generators and independent oracles shared by the test modules.

The boolean oracle below works on plain Python sets and lists on purpose:
it must not share code with the library paths it checks.
"""

import argparse
import itertools
from collections import deque
from fractions import Fraction

from fuzzdet import (
    DEFAULT_CAP,
    CapExceeded,
    Cdfa,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    SemiringClosure,
    StateLabel,
    ValueSet,
    d_epsilon,
    d_step,
    dot,
    identity_matrix,
    mat_compose,
    vec_mat,
)
from fuzzdet.cli import METHODS


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


def subset_accepts(a, word):
    """Boolean word acceptance straight off the subset automaton."""
    transitions, accepting = subset_dfa(a)
    sym_index = {x: i for i, x in enumerate(a.alphabet)}
    s = 0
    for x in word:
        s = transitions[s][sym_index[x]]
    return accepting[s]


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


# -- slow inclusion-degree oracle --------------------------------------------


def slow_d_forward(a, rn, cap):
    """The forward phase grown state by state with d_epsilon and d_step.

    This is the inclusion-degree construction computed from its definition,
    over the reverse tree rn. Returns (result, closure_checks): result is a
    CapExceeded, or (transitions, terminals, words, d vectors) with states
    in breadth-first order and words in shortlex order.
    """
    root = d_epsilon(a, rn.state_vectors)
    vectors, words, index = [root], [()], {root: 0}
    transitions = []
    checks = 0
    s = 0
    while s < len(vectors):
        row = []
        for x in a.alphabet:
            child = d_step(a, vectors[s], x, rn)
            checks += 1
            t = index.get(child)
            if t is None:
                if len(vectors) >= cap:
                    return CapExceeded(states_built=len(vectors), cap=cap), checks
                t = index[child] = len(vectors)
                vectors.append(child)
                words.append(words[s] + (x,))
            row.append(t)
        transitions.append(tuple(row))
        s += 1
    terminals = tuple(dot(v, a.tau) for v in vectors)
    return (tuple(transitions), terminals, words, vectors), checks


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


def _columns(rows):
    return list(zip(*rows))


def _oracle_tree(alphabet, root, step, key, cap, prepend):
    """Breadth-first over states; a child whose key was seen is glued to it.

    step(p, x) is the payload of p's x-child and key(p) the FuzzyVector that
    names its state. Returns a CapExceeded the moment a (cap+1)-th state
    would be made, else (keys, payloads, transitions, words): each word is
    the shortlex-least among the root's and every child's word glued to the
    state, a child's word being its parent state's first word extended.
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
                    return CapExceeded(states_built=len(keys), cap=cap)
                index[k] = len(keys)
                payloads.append(p)
                keys.append(k)
                first.append((x,) + first[s] if prepend else first[s] + (x,))
            row.append(index[k])
        transitions.append(tuple(row))
        s += 1
    rank = {x: i for i, x in enumerate(alphabet)}

    def order(w):
        return len(w), [rank[x] for x in w]

    words = list(first)
    for s, row in enumerate(transitions):
        for x, t in zip(alphabet, row):
            w = (x,) + first[s] if prepend else first[s] + (x,)
            if order(w) < order(words[t]):
                words[t] = w
    return keys, payloads, tuple(transitions), words


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
    columns = {x: _columns(a.delta[x].entries) for x in alphabet}

    def vector(values):
        return FuzzyVector(lat, tuple(values))

    def forward(v, x):
        return vector(_sup(lat, v, col) for col in columns[x])

    def cdfa(tree, terminal):
        if isinstance(tree, CapExceeded):
            return tree
        keys, payloads, transitions, words = tree
        return Cdfa(lat, alphabet, transitions, 0, tuple(terminal(p) for p in payloads),
                    tuple(StateLabel(w, k) for w, k in zip(words, keys)))

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

    def d_vector(scalars):
        scalars = list(scalars)
        return vector(_inf_resid(lat, col, scalars) for col in _columns(mus))

    def d_next(d, x):
        i = alphabet.index(x)
        return d_vector(_sup(lat, d, mus[row[i]]) for row in edges)

    root = d_vector(_sup(lat, a.sigma, mu) for mu in mus)
    tree = _oracle_tree(alphabet, root, d_next, same, cap, False)
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
