"""Crisp determinization of fuzzy automata.

A crisp-deterministic fuzzy automaton (Cdfa) has a crisp transition table,
fuzzy terminal degrees, and a canonical word and a vector for each state,
and find_witness compares two. Only det and equiv load this module.

Every construction here grows the same kind of transition tree: start from a
root vector, expand each state by every alphabet symbol in order, and glue
a child to an earlier state the moment its vector repeats that state's.
The glued tree is the cdfa. What varies is the root, the child map, the
terminal map, and whether words grow on the right (forward constructions)
or on the left (reverse ones).

One breadth-first engine, _bfs, grows every such tree as its glued state
table, and keeps per state its edge row and the edge that made it, no word.
Its three users: _Run.grow, which adds one construction's cap, terminal
degrees and counters; find_witness, which grows the product of two cdfa up
to the first pair whose degrees differ; and Cdfa, whose every state must
be reached from initial. _words spells the words from the making edges.

Constructions:
  nerode           states sigma_u, children sigma_u ∘ delta_x
  reverse_nerode   states tau_u, children delta_x ∘ tau_u
  d_automaton      reverse Nerode first, then the inclusion-degree vectors
                   d_u; this one is minimal among equivalent cdfa
  brzozowski       reverse Nerode applied twice; the second reversal runs
                   over the first one's crisp table
  psi_d_automaton  d_automaton generalized by a reflexive, left invariant
                   fuzzy relation psi gluing the reverse tree; given a psi
                   matrix, it runs fuzzdet.psi, which holds all psi code

The d vectors are meets of implications: d_eps(a) = meet_mu mu(a) -> (sigma ∘ mu)
over the reverse Nerode states mu, and d_{ux}(a) = meet_mu mu(a) -> (d_u ∘ mu_x)
where mu_x is the glued x-child of mu in the reverse tree.

The last three share one forward phase, an index gather over the reverse
table: with v_s a word of reverse state s, w_u[s] = d_u ∘ mu_s = L(u v_s), so
w_eps is the reverse terminal column, w_{ux}[s] = w_u[edge(s, x)] and
L(u) = w_u[0]. Words glue exactly when their d vectors do, and d_u is the
implication meet of the mu_s against w_u, recovered once per state.

Every construction runs on a Carrier (see algebra and closure.carrier_of):
the values that enter it encoded once, so that its vectors are tuples of
bare codes (ints on every lattice but Goguen) and its tmul and resid are
bound for that automaton. Each ends in _Run.done, which decodes its tree
through to_cdfa. Decoded values stay in the subsemiring that sigma, delta
and tau generate, so their records are not checked again (Record._derived).
"""

import time
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, partial
from operator import itemgetter

from .algebra import (DEFAULT_CAP, Carrier, FuzzyMatrix, FuzzyVector, _pairs, _residual_meet,
                      _sup_product)
from .automata import FuzzyAutomaton, Word, check_alphabet, symbol_index
from .closure import automaton_values, carrier_of, require_cap
from .errors import AlphabetMismatch, DimensionMismatch, LatticeMismatch
from .lattice import Lattice, Record, Value, _write


# -- crisp-deterministic automata -----------------------------------------


class Cdfa(Record):
    """Crisp-deterministic fuzzy automaton.

    transitions[state][symbol_index] is the successor state; terminal[state]
    is the degree returned after reading a word that lands there. words[state]
    is the state's canonical access word and vectors[state] the FuzzyVector
    that defines it: sigma_u for nerode, tau_u for reverse_nerode, d_u for
    d_automaton and psi_d_automaton, w_u for brzozowski. Every state must be
    a plain int reached from initial, every word a plain tuple of its own symbols
    and every vector over the lattice: a caller's cdfa is checked, to_cdfa's is
    not, and its tables, any iterables, are each read once into a tuple, rows too.
    Equality, hash and repr cover exactly these seven fields.
    """

    __slots__ = ("lattice", "alphabet", "transitions", "initial", "terminal", "words",
                 "vectors")

    def __init__(self, lattice: Lattice, alphabet: Iterable[str],
                 transitions: Iterable[Iterable[int]], initial: int, terminal: Iterable[Value],
                 words: Iterable[Word], vectors: Iterable[FuzzyVector]):
        alphabet = check_alphabet(alphabet)
        transitions = tuple(map(tuple, transitions))
        n = len(transitions)
        if n < 1:
            raise ValueError("a cdfa needs at least one state")
        m = len(alphabet)
        for row in transitions:
            if len(row) != m:
                raise DimensionMismatch(f"transition row of width {len(row)}, expected {m}")
            for t in row:
                _state(t, n, "transition target")
        _state(initial, n, "initial state")
        terminal, words, vectors = tuple(terminal), tuple(words), tuple(vectors)
        if len(terminal) != n:
            raise DimensionMismatch(f"{len(terminal)} terminal degrees for {n} states")
        for t in terminal:
            lattice.check(t)
        for name, table in (("words", words), ("vectors", vectors)):
            if len(table) != n:
                raise DimensionMismatch(f"{len(table)} {name} for {n} states")
        for w, v in zip(words, vectors):
            if type(w) is not tuple or not all(type(x) is str and x in alphabet for x in w):
                raise ValueError(f"word {w!r} is not a tuple of alphabet symbols")
            if not isinstance(v, FuzzyVector) or v.lattice != lattice:
                raise LatticeMismatch("a state vector is not a FuzzyVector over the cdfa's lattice")
        reached = set(_bfs([initial], transitions.__getitem__, [], []))
        if len(reached) != n:
            missing = sorted(set(range(n)) - reached)
            raise ValueError(f"unreachable states: {missing}")
        super().__init__(lattice, alphabet, transitions, initial, terminal, words, vectors)

    @property
    def n(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        i = symbol_index(self.alphabet, symbol)
        return self.transitions[_state(state, self.n, "state")][i]


def _state(s, n: int, what: str) -> int:
    """s if it is a state of an n-state cdfa, a plain int in 0..n-1, else ValueError."""
    if type(s) is not int or not 0 <= s < n:
        raise ValueError(f"{what} {_write(s)} out of range")
    return s


def _bfs(states: list, children: Callable[[object], Iterable], edges: list[int],
         makers: list[int]) -> Iterator:
    """The one breadth-first engine: grow a glued tree from states = [root].

    Yields every state it makes, the root first, so the caller may stop.
    children(v) gives v's children in alphabet order. A child equal to an
    earlier state is glued to it; a new one is appended to states. edges
    gets each child's state, row by row, and makers the edge
    s * |alphabet| + i = len(edges) that made each state but the root.
    """
    index_of = {states[0]: 0}
    yield states[0]
    for v in states:
        for w in children(v):
            t = index_of.get(w)
            if t is None:
                t = index_of[w] = len(states)
                makers.append(len(edges))
                states.append(w)
                yield w
            edges.append(t)


def _words(makers: list[int], alphabet: tuple[str, ...], prepend: bool = False) -> list[Word]:
    """Each state's tree word: its maker's source word grown by its symbol."""
    symbols = [(x,) for x in alphabet]
    m = len(symbols)
    made: list[Word] = [()]
    for e in makers:
        u, x = made[e // m], symbols[e % m]
        made.append(x + u if prepend else u + x)
    return made


def find_witness(c1: Cdfa, c2: Cdfa) -> Word | None:
    """Shortest word on which the two cdfa disagree, None when equivalent.

    Breadth-first product search from the initial pair, the root; ties in one
    length break toward the earlier symbol, so the witness is shortlex-least.
    Callers must compare against None, the empty word is a valid witness.
    """
    if c1.lattice != c2.lattice:
        raise LatticeMismatch("cannot compare cdfa over different lattices")
    if c1.alphabet != c2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {c1.alphabet} vs {c2.alphabet}")
    t1, t2, d1, d2 = c1.transitions, c2.transitions, c1.terminal, c2.terminal
    makers: list[int] = []
    pairs = _bfs([(c1.initial, c2.initial)], lambda pq: zip(t1[pq[0]], t2[pq[1]]), [], makers)
    for p, q in pairs:
        if d1[p] != d2[q]:
            return _words(makers, c1.alphabet)[-1]
    return None


class BuildStats(Record):
    """Counters for one construction run; elapsed is wall seconds."""

    __slots__ = ("vertices", "closure_checks", "elapsed")

    def __str__(self) -> str:
        return (f"vertices={self.vertices} closure_checks={self.closure_checks} "
                f"elapsed={self.elapsed:.3f}s")


class CapExceeded(Record):
    """A construction needed more than cap distinct states and stopped."""

    __slots__ = ("cap",)

    def __str__(self) -> str:
        return "cap exceeded: {0} states built (max-states {0})".format(_write(self.cap))


class DetOutcome(Record):
    """Result of a determinization: a cdfa or a cap report, plus counters."""

    __slots__ = ("result", "stats")

    @property
    def ok(self) -> bool:
        return isinstance(self.result, Cdfa)

    @property
    def cdfa(self) -> Cdfa:
        if not isinstance(self.result, Cdfa):
            raise ValueError(str(self.result))
        return self.result


class TransitionTree:
    """A transition tree as its glued state table; vertices lists the tree.

    codes and terminal_codes hold each state's vector and terminal degree in
    the carrier's encoding; state_vectors and state_terminals decode them.
    state_edges[s][i] is s's target under symbol i; makers are _bfs's. Words
    grow on the left when prepend. A plain object, equal only to itself, as
    its Carrier is: compare two trees by their state_vectors or to_cdfa().
    """

    def __init__(self, carrier: Carrier, alphabet: tuple[str, ...], codes: list[tuple],
                 terminal_codes: list, state_edges: list[tuple[int, ...]], makers: list[int],
                 prepend: bool):
        self.carrier = carrier
        self.alphabet = alphabet
        self.codes = codes
        self.terminal_codes = terminal_codes
        self.state_edges = state_edges
        self.makers = makers
        self.prepend = prepend

    @property
    def n_states(self) -> int:
        return len(self.codes)

    @cached_property
    def vertices(self) -> "list[TreeVertex]":
        """The tree's vertices, which no construction reads: reference.tree_vertices."""
        from .reference import tree_vertices
        return tree_vertices(self)

    @cached_property
    def state_vectors(self) -> list[FuzzyVector]:
        return [self._decoded(v) for v in self.codes]

    @cached_property
    def state_terminals(self) -> list[Value]:
        return list(self.carrier.values(self.terminal_codes))

    def _decoded(self, codes: tuple) -> FuzzyVector:
        return FuzzyVector._derived(self.carrier.lattice, self.carrier.values(codes))

    def canonical_words(self) -> list[Word]:
        """Shortlex-least word per state over all words.

        made[t], made[s] grown by x for the edge s -> t under x that made t, is least grown
        on the right. Grown on the left, least[t] is the least (x,) + least[s] over edges
        s -> t under x with s one shorter, each s before t, so least[s] is final when read.
        """
        made = _words(self.makers, self.alphabet, self.prepend)
        if not self.prepend:
            return made
        rank = {x: i for i, x in enumerate(self.alphabet)}
        least = list(made)
        for s, row in enumerate(self.state_edges):
            for x, t in zip(self.alphabet, row):
                if len(least[s]) + 1 == len(made[t]):
                    least[t] = min(least[t], (x,) + least[s], key=lambda w: [rank[y] for y in w])
        return least

    def to_cdfa(self, vectors: Iterable[tuple] | None = None) -> Cdfa:
        """The glued table as a cdfa, with state_terminals and state_vectors.

        vectors are the cdfa's state vectors as codes, state_vectors by default.
        """
        return Cdfa._derived(self.carrier.lattice, self.alphabet, tuple(self.state_edges), 0,
                    tuple(self.state_terminals), tuple(self.canonical_words()),
                    tuple(self.state_vectors if vectors is None else map(self._decoded, vectors)))


class _Run:
    """One construction: cap, clock, counters, and the automaton as codes.

    The automaton's values and the extra ones make the Carrier; delta
    holds the rows of each delta_x by alphabet position.
    """

    def __init__(self, a: FuzzyAutomaton, cap: int, extra: Iterable[Value] = ()):
        require_cap(cap, "state cap")
        self.cap = cap
        self.vertices = self.checks = 0
        self.t0 = time.perf_counter()
        c = self.carrier = carrier_of(a.lattice, automaton_values(a).elements.union(extra))
        self.alphabet = a.alphabet
        self.sigma = c.codes(a.sigma)
        self.tau = c.codes(a.tau)
        self.delta = [tuple(map(c.codes, a.delta[x].entries)) for x in a.alphabet]

    def grow(self, root: tuple, children: Callable[[tuple], Iterable[tuple]],
             terminal: Callable[[tuple], object], prepend: bool = False
             ) -> TransitionTree | CapExceeded:
        """Expand a transition tree breadth-first until every leaf is closed.

        Vectors are tuples of carrier codes; children(v) lists v's children
        in alphabet order. Exceeds the cap the moment a (cap+1)-th distinct
        state would be created. Each child is one closure check and one
        vertex; the root, which _bfs yields first, is one more vertex.
        """
        codes, edges, makers, terminals = [root], [], [], []
        for v in _bfs(codes, children, edges, makers):
            if len(codes) > self.cap:
                self.checks += makers[-1] + 1
                self.vertices += makers[-1] + 1
                return CapExceeded(self.cap)
            terminals.append(terminal(v))
        self.checks += len(edges)
        self.vertices += len(edges) + 1
        rows = list(zip(*[iter(edges)] * len(self.alphabet)))  # edges cut into rows
        return TransitionTree(self.carrier, self.alphabet, codes, terminals, rows, makers, prepend)

    def sup_tree(self, root: tuple, matrices: Iterable[Iterable[tuple]], terminal: tuple,
                 prepend: bool) -> TransitionTree | CapExceeded:
        """Grow from root, with x-child matrices[x] ∘ v and terminal degree terminal ∘ v.

        Each matrix is given as its rows: nerode passes the columns of the
        delta_x, and the reverse trees the delta_x (psi-glued for psi_d_automaton).
        """
        c = self.carrier
        rows = [_pairs(c, m) for m in matrices]
        terminal_row = _pairs(c, (terminal,))
        return self.grow(root, lambda v: [_sup_product(c, r, v) for r in rows],
                         lambda v: _sup_product(c, terminal_row, v)[0], prepend)

    def reverse(self) -> TransitionTree | CapExceeded:
        """The reverse Nerode tree: root tau, x-children delta_x ∘ tau_u, terminal
        degrees sigma ∘ tau_u, and words on the left."""
        return self.sup_tree(self.tau, self.delta, self.sigma, True)

    def forward(self, rn: TransitionTree | CapExceeded, d_vectors: bool) -> DetOutcome:
        """The index gather over a reverse tree rn, as the outcome.

        w_eps is rn's terminal column, w_{ux}[s] = w_u[edge(s, x)] and the
        terminal degree is w_u[0]; words grow on the right. The state
        vectors are the w, or with d_vectors the d vectors done recovers
        from w: the implication meet of the reverse states' columns against w.
        """
        if isinstance(rn, CapExceeded):
            return self.done(rn)
        # itemgetter of one index returns the item, not a tuple; tuple(w) is w
        pick = [itemgetter(*col) if rn.n_states > 1 else tuple for col in zip(*rn.state_edges)]
        tree = self.grow(tuple(rn.terminal_codes), lambda w: [p(w) for p in pick], itemgetter(0))
        c = self.carrier
        recover = partial(_residual_meet, c, _pairs(c, zip(*rn.codes))) if d_vectors else None
        return self.done(tree, recover)

    def done(self, tree: TransitionTree | CapExceeded,
             recover: Callable[[tuple], tuple] | None = None) -> DetOutcome:
        """Every construction's end: tree's cdfa, whose state vectors are recover(codes)
        if given, or its cap report; then the clock, so that elapsed covers decoding."""
        if not isinstance(tree, CapExceeded):
            tree = tree.to_cdfa(recover and map(recover, tree.codes))
        elapsed = time.perf_counter() - self.t0
        return DetOutcome(tree, BuildStats(self.vertices, self.checks, elapsed))


# -- forward and reverse Nerode ------------------------------------------


def nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through left derivative vectors sigma_u = sigma ∘ delta_u.

    Need not terminate for every automaton; the cap turns divergence into a
    CapExceeded outcome.
    """
    run = _Run(a, cap)
    return run.done(run.sup_tree(run.sigma, [zip(*rows) for rows in run.delta], run.tau, False))


def reverse_nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through right derivative vectors, terminal sigma ∘ tau_u."""
    run = _Run(a, cap)
    return run.done(run.reverse())


# -- inclusion-degree construction ---------------------------------------


def d_automaton(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Minimal cdfa for the language via inclusion-degree vectors.

    Phase one grows the reverse Nerode tree; phase two gathers over its
    table, and each state's vector is its d vector: d_eps at the root,
    d_step(d_u, x) on the x-successor of d_u. Each phase respects the cap
    on its own state count. Terminates whenever the reverse phase does.
    """
    run = _Run(a, cap)
    return run.forward(run.reverse(), True)


# -- double reversal ------------------------------------------------------


def brzozowski(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Reverse-determinize twice; the second pass canonizes the first.

    Over the first pass's crisp table the second reverse Nerode pass is the
    gather d_automaton uses, so both share states and transitions; the
    state vectors are the w_u. Minimal, and terminates whenever reverse
    Nerode does.
    """
    run = _Run(a, cap)
    return run.forward(run.reverse(), False)


# -- psi-glued construction ----------------------------------------------


def psi_d_automaton(a: FuzzyAutomaton, psi: FuzzyMatrix | None = None,
                    cap: int = DEFAULT_CAP) -> DetOutcome:
    """Inclusion-degree construction over a psi-glued reverse tree.

    psi must be reflexive and left invariant; None means the identity
    relation, which is d_automaton exactly. The reverse phase grows
    vectors psi^eps = psi ∘ tau and psi^{xu} = psi ∘ delta_x ∘ psi^u; the
    forward phase is d_automaton's gather over that tree, with d vectors. A
    coarser psi can only glue more, never change the language.
    """
    if psi is None:
        return d_automaton(a, cap)
    from .psi import _psi_d_automaton
    return _psi_d_automaton(a, psi, cap)
