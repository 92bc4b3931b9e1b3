"""Automaton evaluation, reversal, cdfa semantics and equivalence search."""

import random
from fractions import Fraction as F

import pytest

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    AlphabetMismatch,
    Cdfa,
    DimensionMismatch,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    LatticeMismatch,
    UnknownSymbol,
    ValueSet,
    cdfa_evaluate,
    chain,
    d_automaton,
    dot,
    evaluate,
    find_witness,
    mat_compose,
    mat_vec,
    nerode,
    parse_automaton,
    serialize_automaton,
    vec_mat,
)
from fuzzdet.automata import check_alphabet
from support import (
    K,
    S,
    all_words,
    cdfa_as_fuzzy_automaton,
    random_automaton,
    reverse,
    value_pool,
)


def test_evaluate_fixture_words(goguen3):
    assert evaluate(goguen3, ()) == F(0)
    assert evaluate(goguen3, ("x",)) == F(1, 2)
    assert evaluate(goguen3, ("y",)) == F(1)
    assert evaluate(goguen3, ("y", "y")) == F(1)
    assert evaluate(goguen3, ("x", "x")) == F(1)


def test_evaluate_unknown_symbol(goguen3):
    with pytest.raises(UnknownSymbol):
        evaluate(goguen3, ("x", "z"))


def test_a_word_admits_only_plain_symbols(boolean3):
    """evaluate, Cdfa.step and cdfa_evaluate read a symbol through symbol_index:
    an enum member equal to a symbol is no symbol."""
    c = d_automaton(boolean3).cdfa
    for read in (lambda: evaluate(boolean3, (S.X,)), lambda: c.step(0, S.X),
                 lambda: cdfa_evaluate(c, ("x", S.X))):
        with pytest.raises(UnknownSymbol) as err:
            read()
        assert str(err.value) == "symbol <S.X: 'x'> is not in the alphabet"


def test_evaluate_matches_materialized_matrix_path():
    # independent path: build delta_u as an explicit matrix product first
    rng = random.Random(41)
    for lat in (GOGUEN, chain(3)):
        for _ in range(10):
            a = random_automaton(rng, lat, 3)
            for word in all_words(a.alphabet, 3):
                m = None
                for x in word:
                    m = a.delta[x] if m is None else mat_compose(m, a.delta[x])
                state = a.sigma if m is None else vec_mat(a.sigma, m)
                assert evaluate(a, word) == dot(state, a.tau)


def test_evaluate_prefix_incremental(goguen3):
    state = goguen3.sigma
    for i, x in enumerate(("x", "y", "x", "x")):
        state = vec_mat(state, goguen3.delta[x])
        word = ("x", "y", "x", "x")[: i + 1]
        assert dot(state, goguen3.tau) == evaluate(goguen3, word)


def test_automaton_values_in_carrier():
    one = FuzzyVector(GODEL, (F(1),))
    with pytest.raises(LatticeMismatch):
        FuzzyAutomaton(GODEL, ("x",), one, {"x": FuzzyMatrix(GODEL, ((F(-1),),))}, one)
    with pytest.raises(LatticeMismatch):
        FuzzyAutomaton(GOGUEN, ("x",), FuzzyVector(GOGUEN, (F(2),)),
                       {"x": FuzzyMatrix(GOGUEN, ((F(1),),))}, FuzzyVector(GOGUEN, (F(1),)))
    with pytest.raises(LatticeMismatch):
        FuzzyVector(GODEL, (F(3),))
    with pytest.raises(LatticeMismatch):
        FuzzyVector(chain(4), (1, F(1, 2)))
    with pytest.raises(LatticeMismatch):
        FuzzyMatrix(BOOLEAN, ((F(1), F(1, 2)),))
    with pytest.raises(LatticeMismatch):
        ValueSet(GODEL, frozenset({F(3)}))


def test_reverse_involution(goguen3):
    assert reverse(reverse(goguen3)) == goguen3
    assert reverse(goguen3).sigma.entries == (F(0), F(1), F(0))
    assert reverse(goguen3).tau.entries == (F(1), F(0), F(0))


def test_reverse_recognizes_mirrored_words():
    rng = random.Random(43)
    for lat in (GOGUEN, chain(3)):
        for _ in range(8):
            a = random_automaton(rng, lat, 3)
            r = reverse(a)
            for word in all_words(a.alphabet, 4):
                assert evaluate(r, word) == evaluate(a, word[::-1])


def test_right_language_step_fixture(goguen3):
    """One backward step: tau_{xu} = delta_x ∘ tau_u."""
    tau = goguen3.tau
    assert mat_vec(goguen3.delta["x"], tau).entries == (F(1, 2), F(1), F(1))
    tau_y = mat_vec(goguen3.delta["y"], tau)
    assert tau_y.entries == (F(1), F(1), F(3, 10))
    assert mat_vec(goguen3.delta["y"], tau_y).entries == tau_y.entries
    zeros = FuzzyVector(GOGUEN, (F(0),) * 3)
    assert mat_vec(goguen3.delta["x"], zeros).entries == zeros.entries


# the word and the vector of a one-state cdfa
ONE_WORD = ((),)
ONE_VECTOR = (FuzzyVector(GOGUEN, (F(0),)),)


def _product_cdfa():
    # minimal three-state machine of the product fixture, built by hand
    return Cdfa(
        lattice=GOGUEN,
        alphabet=("x", "y"),
        transitions=((1, 2), (2, 1), (2, 2)),
        initial=0,
        terminal=(F(0), F(1, 2), F(1)),
        words=((), ("x",), ("y",)),
        vectors=(
            FuzzyVector(GOGUEN, (F(1), F(0), F(1, 2))),
            FuzzyVector(GOGUEN, (F(1, 2), F(1, 2), F(1))),
            FuzzyVector(GOGUEN, (F(1), F(1), F(1))),
        ),
    )


def test_cdfa_evaluate():
    c = _product_cdfa()
    assert cdfa_evaluate(c, ()) == c.terminal[c.initial] == F(0)
    assert cdfa_evaluate(c, ("x",)) == F(1, 2)
    assert cdfa_evaluate(c, ("y",)) == F(1)
    for tail in all_words(("x", "y"), 3):
        assert cdfa_evaluate(c, ("y",) + tail) == F(1)
    with pytest.raises(UnknownSymbol):
        cdfa_evaluate(c, ("z",))


def test_alphabet_rejects_reserved_symbols():
    for alphabet in (("_",), ("x", "a.b"), (".",)):
        with pytest.raises(ValueError, match="reserved"):
            FuzzyAutomaton.build(GOGUEN, alphabet, [1], {x: [[1]] for x in alphabet}, [1])
        with pytest.raises(ValueError, match="reserved"):
            Cdfa(GOGUEN, alphabet, ((0,) * len(alphabet),), 0, (F(0),), ONE_WORD, ONE_VECTOR)


@pytest.mark.parametrize("transitions, initial, message", [
    (((0,), (1,)), 0, "unreachable states: [1]"),
    (((5,),), 0, "transition target 5 out of range"),
    # from 3, state 1 is reached only through 5, and 0, 2 and 4 only reach each other
    (((2, 2), (1, 1), (4, 0), (5, 5), (0, 0), (1, 3)), 3, "unreachable states: [0, 2, 4]"),
    # 1 leads into the reached states 3 and 0, but nothing leads to 1
    (((0, 0), (3, 0), (0, 0), (2, 2)), 3, "unreachable states: [1]"),
])
def test_cdfa_validation(transitions, initial, message):
    n = len(transitions)
    with pytest.raises(ValueError) as err:
        Cdfa(GOGUEN, ("x", "y")[:len(transitions[0])], transitions, initial, (F(0),) * n,
             ONE_WORD * n, ONE_VECTOR * n)
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("symbols, message", [
    ((), "alphabet must not be empty"),
    (("x", ""), "bad alphabet symbol ''"),
    (("x y",), "bad alphabet symbol 'x y'"),
    (("x", 1), "bad alphabet symbol 1"),
    (("x", "a#b"), "bad alphabet symbol 'a#b'"),
    (("#",), "bad alphabet symbol '#'"),
    (("x", "\x1c"), "bad alphabet symbol '\\x1c'"),
    (("y", S.X), "bad alphabet symbol <S.X: 'x'>"),
    (("\ud800",), "bad alphabet symbol '\\ud800'"),
    (("x", "a\udfffb"), "bad alphabet symbol 'a\\udfffb'"),
    (("x", "_"), "alphabet symbol '_' is ambiguous in words: '_' and '.' are reserved"),
    (("x.y",), "alphabet symbol 'x.y' is ambiguous in words: '_' and '.' are reserved"),
    (("x", "y", "x"), "duplicate symbol 'x'"),
])
def test_check_alphabet_rejects(symbols, message):
    with pytest.raises(ValueError) as err:
        check_alphabet(symbols)
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("transitions, initial, terminal, words, vectors, error, message", [
    ((), 0, (), (), (), ValueError, "a cdfa needs at least one state"),
    (((0, 0),), 0, (F(0),), ONE_WORD, ONE_VECTOR, DimensionMismatch,
     "transition row of width 2, expected 1"),
    (((1,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError, "transition target 1 out of range"),
    (((-1,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "transition target -1 out of range"),
    (((0,),), 1, (F(0),), ONE_WORD, ONE_VECTOR, ValueError, "initial state 1 out of range"),
    (((0,),), 0, (F(0), F(1)), ONE_WORD, ONE_VECTOR, DimensionMismatch,
     "2 terminal degrees for 1 states"),
    (((0,),), 0, (F(0),), ONE_WORD * 2, ONE_VECTOR, DimensionMismatch, "2 words for 1 states"),
    (((0,),), 0, (F(0),), (), ONE_VECTOR, DimensionMismatch, "0 words for 1 states"),
    (((0,),), 0, (F(0),), ONE_WORD, ONE_VECTOR * 2, DimensionMismatch,
     "2 vectors for 1 states"),
    (((0,),), 0, (F(0),), ONE_WORD, (), DimensionMismatch, "0 vectors for 1 states"),
    (((0,), (0,)), 0, (F(0),) * 2, ONE_WORD, ONE_VECTOR * 2, DimensionMismatch,
     "1 words for 2 states"),
    (((0.5,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "transition target 0.5 out of range"),
    (((0.0,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "transition target 0.0 out of range"),
    (((False,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "transition target False out of range"),
    (((0,),), 0.0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError, "initial state 0.0 out of range"),
    (((0,),), False, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "initial state False out of range"),
    (((0,),), K.ZERO, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "initial state <K.ZERO: 0> out of range"),
    (((K.ZERO,),), 0, (F(0),), ONE_WORD, ONE_VECTOR, ValueError,
     "transition target <K.ZERO: 0> out of range"),
    (((0,),), 0, (F(0),), (("zz", 3),), ONE_VECTOR, ValueError,
     "word ('zz', 3) is not a tuple of alphabet symbols"),
    (((0,),), 0, (F(0),), (["x"],), ONE_VECTOR, ValueError,
     "word ['x'] is not a tuple of alphabet symbols"),
    (((0,),), 0, (F(0),), ((S.X,),), ONE_VECTOR, ValueError,
     "word (<S.X: 'x'>,) is not a tuple of alphabet symbols"),
    (((0,),), 0, (F(0),), ONE_WORD, (FuzzyVector(GODEL, (F(1, 2),)),), LatticeMismatch,
     "a state vector is not a FuzzyVector over the cdfa's lattice"),
    (((0,),), 0, (F(0),), ONE_WORD, ((F(0),),), LatticeMismatch,
     "a state vector is not a FuzzyVector over the cdfa's lattice"),
])
def test_cdfa_constructor_rejects(transitions, initial, terminal, words, vectors, error,
                                  message):
    with pytest.raises(error) as err:
        Cdfa(GOGUEN, ("x",), transitions, initial, terminal, words, vectors)
    assert (type(err.value), str(err.value)) == (error, message)


# Names a document can and cannot hold, and an enum member equal to "x"
HOSTILE_NAMES = ("x", "y", "\u00e9", "a,b", '"', "\\", "x\u200b", "_", "x.y", "#", "a#b",
                 "a b", "\x1c", S.X, "\ud800", "a\udfffb")


def _draw_value(rng, lattice):
    if lattice.kind == "chain":
        return rng.choice((0, lattice.top_index, rng.randint(0, lattice.top_index)))
    if lattice.kind == "boolean":
        return F(rng.randint(0, 1))
    q = rng.randint(1, 6)
    return F(rng.randint(0, q), q)


def test_every_lattice_a_caller_can_build_round_trips():
    """Every automaton FuzzyAutomaton.build accepts is written and read back
    equal, and its document is a fixed point of serialize_automaton, over
    every lattice Lattice(...) admits and alphabets drawn, duplicates too,
    from HOSTILE_NAMES. A top index that is no plain int, an IntEnum's
    included, builds no lattice."""
    lattices = [BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ]
    for top in (1, 4, 10 ** 60, K.FOUR, True, F(4), 4.0):
        try:
            lattices.append(chain(top))
        except ValueError:
            assert type(top) is not int, top
    assert len(lattices) == 7
    rng = random.Random(33)
    built = refused = 0
    for _ in range(400):
        lattice = rng.choice(lattices)
        alphabet = rng.choices(HOSTILE_NAMES, k=rng.randint(1, 3))
        n = rng.randint(1, 3)
        ends = (lattice.bottom, lattice.top)[:n]

        def row():
            return ends + tuple(_draw_value(rng, lattice) for _ in range(n - len(ends)))

        try:
            a = FuzzyAutomaton.build(lattice, alphabet, row(),
                                     {x: [row() for _ in range(n)] for x in alphabet}, row())
        except ValueError:
            refused += 1
            continue
        built += 1
        text = serialize_automaton(a)
        assert parse_automaton(text) == parse_automaton(text.encode("utf-8").decode()) == a, text
        assert serialize_automaton(parse_automaton(text)) == text
    assert built > 50 and refused > 50, (built, refused)


def test_build_refuses_a_lone_surrogate():
    """No UTF-8 document can hold a lone surrogate, so no symbol may."""
    with pytest.raises(ValueError) as err:
        FuzzyAutomaton.build(GODEL, ("\ud800",), [1], {"\ud800": [[1]]}, [1])
    assert (type(err.value), str(err.value)) == (ValueError, "bad alphabet symbol '\\ud800'")


def test_cdfa_step_admits_only_a_state(boolean3):
    """step checks its state as Cdfa(...) checks initial: a plain int in range."""
    c = d_automaton(boolean3).cdfa
    for state in (-1, True, c.n, 1.0):
        with pytest.raises(ValueError) as err:
            c.step(state, "x")
        assert str(err.value) == f"state {state!r} out of range"
    assert [c.step(s, "x") for s in range(c.n)] == [row[0] for row in c.transitions]


def _vector(lattice, *values):
    return FuzzyVector(lattice, tuple(map(F, values)))


def _square(lattice, n):
    return FuzzyMatrix(lattice, ((F(1),) * n,) * n)


@pytest.mark.parametrize("sigma, delta, tau, error, message", [
    (_vector(GODEL, 1), {"x": _square(GOGUEN, 1)}, _vector(GOGUEN, 1), LatticeMismatch,
     "sigma/tau lattice differs from the automaton's"),
    (_vector(GOGUEN, 1), {"x": _square(GOGUEN, 1)}, _vector(GODEL, 1), LatticeMismatch,
     "sigma/tau lattice differs from the automaton's"),
    (_vector(GOGUEN, 1), {"x": _square(GOGUEN, 1)}, _vector(GOGUEN, 1, 0), DimensionMismatch,
     "tau has length 2, expected 1"),
    (_vector(GOGUEN, 1), {"y": _square(GOGUEN, 1)}, _vector(GOGUEN, 1), ValueError,
     "delta keys must match the alphabet exactly"),
    (_vector(GOGUEN, 1), {"x": _square(GOGUEN, 1), "y": _square(GOGUEN, 1)},
     _vector(GOGUEN, 1), ValueError, "delta keys must match the alphabet exactly"),
    (_vector(GOGUEN, 1), {"x": _square(GODEL, 1)}, _vector(GOGUEN, 1), LatticeMismatch,
     "transition matrix for 'x' is in another lattice"),
    (_vector(GOGUEN, 1), {"x": _square(GOGUEN, 2)}, _vector(GOGUEN, 1), DimensionMismatch,
     "transition matrix for 'x' is 2x2, expected 1x1"),
    (_vector(GOGUEN, 1), {"x": FuzzyMatrix(GOGUEN, ((F(1), F(0)),))}, _vector(GOGUEN, 1),
     DimensionMismatch, "transition matrix for 'x' is 1x2, expected 1x1"),
])
def test_fuzzy_automaton_constructor_rejects(sigma, delta, tau, error, message):
    with pytest.raises(error) as err:
        FuzzyAutomaton(GOGUEN, ("x",), sigma, delta, tau)
    assert (type(err.value), str(err.value)) == (error, message)


def test_find_witness_none_on_equal():
    c = _product_cdfa()
    assert find_witness(c, c) is None


def test_find_witness_empty_word():
    def one_state(value):
        return Cdfa(GOGUEN, ("x", "y"), ((0, 0),), 0, (value,), ONE_WORD,
                    (FuzzyVector(GOGUEN, (value,)),))

    w = find_witness(one_state(F(0)), one_state(F(1)))
    assert w == ()
    assert w is not None


def _word_acceptor(word_to_accept):
    # boolean-style four-state cdfa accepting exactly one two-symbol word
    second = {"x": 0, "y": 1}[word_to_accept[1]]
    transitions = [[2, 2], [2, 2], [2, 2], [2, 2]]
    transitions[0] = [1, 2] if word_to_accept[0] == "x" else [2, 1]
    transitions[1] = [3, 2] if second == 0 else [2, 3]
    return Cdfa(
        GOGUEN, ("x", "y"), tuple(tuple(r) for r in transitions), 0,
        (F(0), F(0), F(0), F(1)), ONE_WORD * 4, ONE_VECTOR * 4)


def test_find_witness_is_shortlex_least():
    c1 = _word_acceptor(("x", "x"))
    c2 = _word_acceptor(("x", "y"))
    assert find_witness(c1, c2) == ("x", "x")
    assert find_witness(c2, c1) == ("x", "x")
    c3 = _word_acceptor(("y", "x"))
    assert find_witness(c1, c3) == ("x", "x")


def test_find_witness_relabelled_copy_equivalent():
    c = _product_cdfa()
    # same machine with states 1 and 2 swapped
    relabelled = Cdfa(
        lattice=GOGUEN,
        alphabet=("x", "y"),
        transitions=((2, 1), (1, 1), (1, 2)),
        initial=0,
        terminal=(F(0), F(1), F(1, 2)),
        words=(c.words[0], c.words[2], c.words[1]),
        vectors=(c.vectors[0], c.vectors[2], c.vectors[1]),
    )
    assert find_witness(c, relabelled) is None


def test_find_witness_mismatch_errors():
    c = _product_cdfa()
    other_alphabet = Cdfa(GOGUEN, ("a", "b"), ((0, 0),), 0, (F(0),), ONE_WORD, ONE_VECTOR)
    with pytest.raises(AlphabetMismatch):
        find_witness(c, other_alphabet)
    other_lattice = Cdfa(chain(2), ("x", "y"), ((0, 0),), 0, (0,), ONE_WORD,
                         (FuzzyVector(chain(2), (0,)),))
    with pytest.raises(LatticeMismatch):
        find_witness(c, other_lattice)


def _renumbered(rng, c):
    """c with its states shuffled, initial away from 0 when c has two states or more."""
    order = list(range(c.n))
    rng.shuffle(order)
    while c.n > 1 and order[c.initial] == 0:
        rng.shuffle(order)
    back = sorted(range(c.n), key=order.__getitem__)  # back[order[s]] == s
    return Cdfa(c.lattice, c.alphabet,
                tuple(tuple(order[t] for t in c.transitions[s]) for s in back), order[c.initial],
                tuple(c.terminal[s] for s in back), tuple(c.words[s] for s in back),
                tuple(c.vectors[s] for s in back))


def _with_terminal(c, state, value):
    terminal = c.terminal[:state] + (value,) + c.terminal[state + 1:]
    return Cdfa(c.lattice, c.alphabet, c.transitions, c.initial, terminal, c.words, c.vectors)


@pytest.mark.parametrize("lattice", [BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(2), chain(4)])
def test_find_witness_against_evaluation(lattice):
    """A witness is the shortlex-least word on which cdfa_evaluate differs, and
    None means no word up to length 6 differs: on renumbered cdfa of random
    automata, of the same language or not, and on cdfa that differ in one
    state's terminal degree only."""
    rng = random.Random(1971)
    cdfas = []
    for _ in range(20):
        # a sparse Goguen automaton has a finite cdfa more often
        a = random_automaton(rng, lattice, rng.randint(2, 4),
                             zero_bias=0.6 if lattice is GOGUEN else 0.45)
        for construct in (nerode, d_automaton):
            outcome = construct(a, 200)
            if outcome.ok:
                cdfas.append(_renumbered(rng, outcome.cdfa))
    pairs = [(c, _renumbered(rng, c)) for c in cdfas]
    pairs += [(c, d) for c, d in zip(cdfas, cdfas[1:])]
    for c in cdfas:
        state = max(range(c.n), key=lambda s: len(c.words[s]))  # a longest word's
        other = next(v for v in reversed(value_pool(lattice)) if v != c.terminal[state])
        pairs.append((c, _renumbered(rng, _with_terminal(c, state, other))))
    found = {"none": 0, "empty": 0, "longer": 0}
    for c1, c2 in pairs:
        witness = find_witness(c1, c2)
        found["none" if witness is None else "longer" if witness else "empty"] += 1
        for word in all_words(c1.alphabet, 6 if witness is None else len(witness)):
            differs = cdfa_evaluate(c1, word) != cdfa_evaluate(c2, word)
            assert differs == (word == witness), (word, witness)
            if differs:
                break
    assert min(found.values()) >= 3, found


def test_cdfa_as_fuzzy_automaton_preserves_language():
    c = _product_cdfa()
    a = cdfa_as_fuzzy_automaton(c)
    for word in all_words(c.alphabet, 4):
        assert evaluate(a, word) == cdfa_evaluate(c, word)
