"""Fuzzy finite automata and their crisp-deterministic counterparts.

A fuzzy automaton is (sigma, delta, tau): a fuzzy set of initial states, one
transition matrix per symbol, a fuzzy set of terminal states. The degree of
a word u is sigma ∘ delta_u ∘ tau. A cdfa keeps fuzziness only in its
terminal map: transitions are an ordinary deterministic table and each state
carries the vector plus a canonical word that produced it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence

from .algebra import FuzzyMatrix, FuzzyVector, dot, vec_mat
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    LatticeMismatch,
    UnknownSymbol,
)
from .lattice import Lattice, Record, Value, _set

Word = tuple[str, ...]
RESERVED_SYMBOL = "alphabet symbol {!r} is ambiguous in words: '_' and '.' are reserved"


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """Validate an alphabet: nonempty distinct tokens without whitespace.

    No symbol is '_' or contains '.', so that every word prints unambiguously.
    """
    alphabet = tuple(symbols)
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    seen = set()
    for s in alphabet:
        if not isinstance(s, str) or not s or any(c.isspace() for c in s):
            raise ValueError(f"bad alphabet symbol {s!r}")
        if s == "_" or "." in s:
            raise ValueError(RESERVED_SYMBOL.format(s))
        if s in seen:
            raise ValueError(f"duplicate alphabet symbol {s!r}")
        seen.add(s)
    return alphabet


class FuzzyAutomaton(Record):
    """Fuzzy finite automaton over one lattice.

    delta maps each alphabet symbol to its n x n transition matrix. The
    constructor normalizes delta to alphabet order so equal automata
    serialize identically. Every entry of sigma, tau and delta lies in the
    lattice's carrier: the vectors and matrices check their entries when
    built, and the constructor checks that they share its lattice. Unhashable,
    as delta is a dict.
    """

    __slots__ = ("lattice", "alphabet", "sigma", "delta", "tau")
    __hash__ = None

    def __init__(self, lattice: Lattice, alphabet: tuple[str, ...], sigma: FuzzyVector,
                 delta: dict[str, FuzzyMatrix], tau: FuzzyVector):
        alphabet = check_alphabet(alphabet)
        n = len(sigma)
        if sigma.lattice != lattice or tau.lattice != lattice:
            raise LatticeMismatch("sigma/tau lattice differs from the automaton's")
        if len(tau) != n:
            raise DimensionMismatch(f"tau has length {len(tau)}, expected {n}")
        if set(delta) != set(alphabet):
            raise ValueError("delta keys must match the alphabet exactly")
        ordered = {}
        for x in alphabet:
            m = delta[x]
            if m.lattice != lattice:
                raise LatticeMismatch(f"transition matrix for {x!r} is in another lattice")
            if m.n_rows != n or m.n_cols != n:
                raise DimensionMismatch(
                    f"transition matrix for {x!r} is {m.n_rows}x{m.n_cols}, expected {n}x{n}")
            ordered[x] = m
        _set(self, "lattice", lattice)
        _set(self, "alphabet", alphabet)
        _set(self, "sigma", sigma)
        _set(self, "delta", ordered)
        _set(self, "tau", tau)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def build(cls, lattice: Lattice, alphabet: Sequence[str], initial: Iterable,
              transitions: Mapping[str, Iterable[Iterable]], terminal: Iterable
              ) -> "FuzzyAutomaton":
        """Construct from raw values, coercing every entry through the lattice."""
        sigma = FuzzyVector.from_values(lattice, initial)
        tau = FuzzyVector.from_values(lattice, terminal)
        delta = {x: FuzzyMatrix.from_rows(lattice, rows) for x, rows in transitions.items()}
        return cls(lattice, tuple(alphabet), sigma, delta, tau)

    def matrix(self, symbol: str) -> FuzzyMatrix:
        try:
            return self.delta[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None


def evaluate(a: FuzzyAutomaton, word: Sequence[str]) -> Value:
    """Membership degree of word: thread sigma through delta, then hit tau."""
    state = a.sigma
    for x in word:
        state = vec_mat(state, a.matrix(x))
    return dot(state, a.tau)


class StateLabel(Record):
    """Canonical word and defining vector of one cdfa state."""

    __slots__ = ("word", "vector")

    def __init__(self, word: Word, vector: FuzzyVector):
        _set(self, "word", word)
        _set(self, "vector", vector)


class Cdfa(Record):
    """Crisp-deterministic fuzzy automaton.

    transitions[state][symbol_index] is the successor state; terminal[state]
    is the degree returned after reading a word that lands there. Every
    state must be reachable from initial. Equality, hash and repr cover
    exactly these six fields.
    """

    __slots__ = ("lattice", "alphabet", "transitions", "initial", "terminal", "labels")

    def __init__(self, lattice: Lattice, alphabet: tuple[str, ...],
                 transitions: tuple[tuple[int, ...], ...], initial: int,
                 terminal: tuple[Value, ...], labels: tuple[StateLabel, ...]):
        alphabet = check_alphabet(alphabet)
        n = len(transitions)
        if n < 1:
            raise ValueError("a cdfa needs at least one state")
        m = len(alphabet)
        for row in transitions:
            if len(row) != m:
                raise DimensionMismatch(f"transition row of width {len(row)}, expected {m}")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        if len(terminal) != n:
            raise DimensionMismatch(f"{len(terminal)} terminal degrees for {n} states")
        lattice.check_all(terminal)
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} labels for {n} states")
        reached = {initial}
        frontier = deque([initial])
        while frontier:
            s = frontier.popleft()
            for t in transitions[s]:
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        if len(reached) != n:
            missing = sorted(set(range(n)) - reached)
            raise ValueError(f"unreachable states: {missing}")
        _set(self, "lattice", lattice)
        _set(self, "alphabet", alphabet)
        _set(self, "transitions", transitions)
        _set(self, "initial", initial)
        _set(self, "terminal", terminal)
        _set(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        if symbol not in self.alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet")
        return self.transitions[state][self.alphabet.index(symbol)]


def cdfa_evaluate(c: Cdfa, word: Sequence[str]) -> Value:
    """Run the deterministic table and read off the terminal degree."""
    state = c.initial
    for x in word:
        state = c.step(state, x)
    return c.terminal[state]


def find_witness(c1: Cdfa, c2: Cdfa) -> Word | None:
    """Shortest word on which the two cdfa disagree, None when equivalent.

    Breadth-first product search; ties inside one length break toward the
    earlier alphabet symbol, so the witness is shortlex-least. Callers must
    compare against None, the empty word is a valid witness.
    """
    if c1.lattice != c2.lattice:
        raise LatticeMismatch("cannot compare cdfa over different lattices")
    if c1.alphabet != c2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {c1.alphabet} vs {c2.alphabet}")
    start = (c1.initial, c2.initial)
    if c1.terminal[c1.initial] != c2.terminal[c2.initial]:
        return ()
    seen = {start}
    queue: deque[tuple[tuple[int, int], Word]] = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        for i, x in enumerate(c1.alphabet):
            pair = (c1.transitions[s1][i], c2.transitions[s2][i])
            if pair in seen:
                continue
            extended = word + (x,)
            if c1.terminal[pair[0]] != c2.terminal[pair[1]]:
                return extended
            seen.add(pair)
            queue.append((pair, extended))
    return None
