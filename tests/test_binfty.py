import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import binfty, cartan, g22
from crystal_grid.binfty import IotaPattern, ZSequence
from crystal_grid.cartan import CartanMatrix, CrystalFragment

A22 = g22.CARTAN
RANK1 = CartanMatrix((1,), ((2,),))
B2 = CartanMatrix((1, 2), ((2, -1), (-2, 2)))   # not symmetric: rows and columns differ


def lower(word):
    """The zero sequence lowered along a word of lowering steps, right to left."""
    steps = {"f": lambda x, i: binfty.apply_op(A22, x, "f", i)}
    return cartan.apply_word(steps, word, binfty.zero_sequence())[0]


def seq(pattern, entries):
    return ZSequence(pattern, tuple(sorted(entries.items())))


def nonzero_entries(x):
    """The nonzero entries of x, keyed by position."""
    return dict(x.support)


def test_pattern_validation():
    with pytest.raises(ValueError):
        IotaPattern((1, 1, 2), 40)
    with pytest.raises(ValueError):
        IotaPattern((1, 2), 3)
    IotaPattern((1,), 10)   # a single color is allowed for rank one


def test_pattern_rejects_a_list_of_colors():
    with pytest.raises(ValueError, match="tuple"):
        IotaPattern([1, 2, 3, 4], 40)


def test_sequence_rejects_a_list_of_values():
    pattern = IotaPattern((1, 2, 3, 4), 40)
    with pytest.raises(ValueError, match="tuple"):
        ZSequence(pattern, [(1, 1)])
    with pytest.raises(ValueError, match="tuple"):
        ZSequence(pattern, ([1, 1],))


@pytest.mark.parametrize("support, bad", [
    (((2, 1), (1, 1)), "(1, 1)"),
    (((1, 1), (1, 2)), "(1, 2)"),
    (((0, 1),), "(0, 1)"),
    (((3, 0),), "(3, 0)"),
    (((3, -1),), "(3, -1)"),
    (((3,),), "(3,)"),
])
def test_sequence_rejects_a_malformed_support(support, bad):
    with pytest.raises(ValueError, match=f"support pair {re.escape(bad)} is not"):
        ZSequence(IotaPattern((1, 2, 3, 4), 40), support)


def test_length_takes_no_part_in_equality():
    short, long = IotaPattern((1, 2, 3, 4), 8), IotaPattern((1, 2, 3, 4), 80)
    assert short == long and hash(short) == hash(long)
    assert short != IotaPattern((4, 3, 2, 1), 8)
    assert seq(short, {30: 1}) == seq(long, {30: 1})
    assert binfty.zero_sequence(short) == binfty.zero_sequence(long)


def test_sequence_pickles_and_copies():
    x = seq(IotaPattern((4, 3, 2, 1), 12), {2: 1, 5: 3})
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(y) is ZSequence and y == x and y.support == ((2, 1), (5, 3))


# Pinned values of the reference sigma below, which anchor the oracle.

def test_sigma_on_zero_sequence():
    colors, values = _window(binfty.zero_sequence())
    assert len(values) == 8
    for i in (1, 2, 3, 4):
        assert set(_naive_sigmas(A22, colors, values, i).values()) == {0}


def test_sigma_sees_only_higher_positions():
    colors, values = _window(seq(IotaPattern((1, 2, 3, 4), 40), {1: 1}))
    sigmas = _naive_sigmas(A22, colors, values, 1)
    assert sigmas[1] == 1
    assert sigmas[5] == 0


def test_sigma_weights_tail_by_pairings():
    colors, values = _window(seq(IotaPattern((1, 2, 3, 4), 40), {4: 2, 7: 1}))
    # color 4 twice, color 3 once
    assert _naive_sigmas(A22, colors, values, 3)[3] == -2 + 2   # against colors 4 then 3
    assert _naive_sigmas(A22, colors, values, 1)[1] == -1       # color 1 pairs only with color 3


def test_lowering_zero_picks_first_slot_of_color():
    x = binfty.zero_sequence()
    for i in (1, 2, 3, 4):
        y = binfty.apply_op(A22, x, "f", i)
        assert nonzero_entries(y) == {i: 1}


def test_raising_vanishes_on_zero():
    x = binfty.zero_sequence()
    assert all(binfty.apply_op(A22, x, "e", i) is None for i in (1, 2, 3, 4))


def test_mutual_inversion_on_random_words():
    rng = random.Random(13)
    for _ in range(200):
        word = [("f", rng.choice((1, 2, 3, 4))) for _ in range(rng.randrange(1, 7))]
        x = lower(word)
        for i in (1, 2, 3, 4):
            down = binfty.apply_op(A22, x, "f", i)
            assert binfty.apply_op(A22, down, "e", i) == x
            up = binfty.apply_op(A22, x, "e", i)
            if up is not None:
                assert binfty.apply_op(A22, up, "f", i) == x


def test_rank_one_sanity():
    pat = IotaPattern((1,), 10)
    x = binfty.zero_sequence(pat)
    for _ in range(3):
        x = binfty.apply_op(RANK1, x, "f", 1)
    assert binfty.extremes(RANK1, x, 1)[0] == 3
    for _ in range(3):
        x = binfty.apply_op(RANK1, x, "e", 1)
    assert x == binfty.zero_sequence(pat)


def test_lowering_raises_epsilon_by_one():
    rng = random.Random(99)
    for _ in range(100):
        word = [("f", rng.choice((1, 2, 3, 4))) for _ in range(rng.randrange(6))]
        x = lower(word)
        for i in (1, 2, 3, 4):
            y = binfty.apply_op(A22, x, "f", i)
            assert binfty.extremes(A22, y, i)[0] == binfty.extremes(A22, x, i)[0] + 1


def test_raising_outside_the_image_is_rejected():
    # sigma_4 = 2 comes from the tail alone, so raising picks the empty slot 4
    x = seq(IotaPattern((1, 2, 3, 4), 12), {8: 1})
    with pytest.raises(ValueError, match="outside the image of B"):
        binfty.apply_op(A22, x, "e", 4)


def test_counterexample_words_separate():
    word_a, word_b = g22.counterexample_words()
    distinct, xa, xb = binfty.words_distinct(word_a, word_b)
    assert distinct
    assert nonzero_entries(xa) == {1: 1, 4: 2, 7: 2, 9: 1}
    assert nonzero_entries(xb) == {4: 2, 7: 2, 9: 2}


def test_separation_is_stable():
    word_a, word_b = g22.counterexample_words()
    for pattern in (IotaPattern((1, 2, 3, 4), 80),
                    IotaPattern((4, 3, 2, 1), 40),
                    IotaPattern((4, 3, 2, 1), 80),
                    IotaPattern((2, 1, 4, 3), 40)):
        distinct, _, _ = binfty.words_distinct(word_a, word_b, pattern=pattern)
        assert distinct


def test_equal_words_are_not_distinct():
    word = g22.parse_word("f1")
    distinct, xa, xb = binfty.words_distinct(word, word)
    assert not distinct
    assert xa == xb


def test_commutator_regression_pin():
    # no external value exists for this pair; the model's answer is pinned
    # so convention drift is caught
    first = g22.parse_word("f1 f2")
    second = g22.parse_word("f2 f1")
    distinct, xa, xb = binfty.words_distinct(first, second)
    assert distinct
    assert nonzero_entries(xa) == {2: 1, 5: 1}
    assert nonzero_entries(xb) == {1: 1, 2: 1}


def test_rejects_raising_words():
    with pytest.raises(ValueError):
        binfty.words_distinct(g22.parse_word("e1"), g22.parse_word("f1"))


def test_ambient_axioms_on_reachable_set():
    frag = binfty.fragment(6)
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) > 500


def _direct_local(a):
    """The triple binfty.local gives, with each part from its own support walk."""
    return lambda x, i: (binfty.extremes(a, x, i)[0], binfty.apply_op(a, x, "e", i),
                         binfty.apply_op(a, x, "f", i))


def _logged(frag, log):
    """frag with each map call and its outcome appended to log."""
    def wrap(name, fn):
        def logged(*args):
            outcome = _outcome(fn, *args)
            log.append((name, args, outcome))
            if isinstance(outcome, type):
                fn(*args)   # raises that error again
            return outcome
        return logged
    return CrystalFragment(frag.cartan, frag.elements, wrap("wt", frag.wt),
                           wrap("local", frag.local))


@pytest.mark.parametrize("colors, length", [
    ((1, 2, 3, 4), 40), ((1, 2, 3, 4), 80), ((4, 3, 2, 1), 40), ((4, 3, 2, 1), 80),
])
def test_shared_walk_gives_the_checker_the_same_answers(colors, length):
    pattern = IotaPattern(colors, length)
    shared = binfty.fragment(6, pattern)
    direct = CrystalFragment(shared.cartan, shared.elements, shared.wt,
                             _direct_local(shared.cartan))
    assert len(shared.elements) == 971
    shared_log, direct_log = [], []
    report = cartan.check_crystal_axioms(_logged(shared, shared_log))
    assert report == cartan.check_crystal_axioms(_logged(direct, direct_log))
    assert report.ok
    # Every call the checker made, in order, got the same answer from both.
    assert shared_log == direct_log


def test_fragment_maps_agree_with_direct_calls_in_any_order():
    frag = binfty.fragment(3)
    pool = list(frag.elements[1:40])
    pool.append(ZSequence(pool[-1].pattern, pool[-1].support))   # equal value, other object
    pool.append(seq(IotaPattern((1, 2, 3, 4), 12), {8: 1}))    # e_4 picks a zero entry
    pool.append(seq(IotaPattern((4, 3, 2, 1), 8), {1: 1, 2: 1, 30: 1}))  # support past the length
    direct = _direct_local(A22)
    rng = random.Random(5)
    calls = [(slot, x, i) for slot in (0, 1, 2) for x in pool for i in (1, 2, 3, 4)]
    # Repeats of one element across colors and of one color across elements.
    calls += [(slot, pool[0], i) for i in (1, 2, 3, 4, 4, 3) for slot in (2, 0)]
    calls += [(slot, x, 2) for x in pool for slot in (1, 2)]
    calls += [rng.choice(calls) for _ in range(2000)]
    rng.shuffle(calls)
    seen = set()
    for slot, x, i in calls:
        expected = _raised(lambda: direct(x, i)[slot])
        assert _raised(lambda: frag.local(x, i)[slot]) == expected, (slot, x, i)
        seen.add(expected[0] if type(expected) is tuple else type(expected))
    assert seen == {int, type(None), ZSequence, ValueError}


def _raised(op, *args):
    """op(*args), or (type, message) of the error it raises."""
    try:
        return op(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_checker_walks_once_per_element_and_color(monkeypatch):
    frag = binfty.fragment(6)
    walks = 0
    walk = binfty.extremes

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(binfty, "extremes", counted)
    assert cartan.check_crystal_axioms(frag).ok
    # 971 elements x 4 colors = 3,884 walks, plus one per image outside the
    # fragment (its triple gives epsilon and the inverse image); 16,132 when
    # epsilon, e and f each walked on their own.
    assert walks == 6124


def test_closure_lowers_each_element_below_the_depth_once_per_color(monkeypatch):
    # 411 sequences of sum at most 5, times 4 colors; the 560 of sum 6 are
    # not lowered.  apply_op is looked up at call time.
    calls = 0
    step = binfty.apply_op

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(binfty, "apply_op", counted)
    frag = binfty.fragment(6)
    assert len(frag.elements) == 971
    assert calls == 1644


@pytest.mark.deep
def test_ambient_axioms_depth_8_length_80():
    frag = binfty.fragment(8, pattern=IotaPattern((1, 2, 3, 4), 80))
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 4645


@pytest.mark.deep
def test_ambient_axioms_depth_9_length_160():
    frag = binfty.fragment(9, pattern=IotaPattern((1, 2, 3, 4), 160))
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 9569


@pytest.mark.deep
def test_ambient_axioms_depth_10_length_160():
    frag = binfty.fragment(10, pattern=IotaPattern((1, 2, 3, 4), 160))
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 19089


@pytest.mark.deep
def test_ambient_axioms_depth_11_length_160():
    frag = binfty.fragment(11, pattern=IotaPattern((1, 2, 3, 4), 160))
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 37017


@pytest.mark.deep
def test_ambient_axioms_depth_12_length_8():
    # The depth-12 closure reaches position 27, far past the pattern's length
    # of 8, which therefore changes nothing.
    frag = binfty.fragment(12, pattern=IotaPattern((1, 2, 3, 4), 8))
    assert max(x.support[-1][0] for x in frag.elements if x.support) == 27
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 70025


def test_lengths_give_equal_fragments():
    for colors in ((1, 2, 3, 4), (4, 3, 2, 1)):
        fragments = [binfty.fragment(6, IotaPattern(colors, length)) for length in (8, 40, 80)]
        assert len(fragments[0].elements) == 971
        assert all(f.elements == fragments[0].elements for f in fragments)


# The dense oracle: the model as a list of entries over a window that the
# oracle builds itself, the support plus two periods, which holds a position
# of every color past the support.  Every sigma comes from one dense pass
# over the window, independent of the library's walk over the support.

def _window(x):
    """(colors, values): x's entries at positions 1..support end + two periods."""
    colors = x.pattern.colors
    return colors, x.entries() + (0,) * (2 * len(colors))


def _naive_sigmas(a, colors, values, i):
    """{k: sigma_k} over the window's positions k of color i."""
    row = a.entries[a.position(i)]
    n = len(colors)
    sigmas, tail = {}, 0
    for k in range(len(values), 0, -1):
        c = colors[(k - 1) % n]
        if c == i:
            sigmas[k] = values[k - 1] + tail
        tail += row[a.position(c)] * values[k - 1]
    return sigmas


def _naive_weight(a, colors, values):
    coeffs = [0] * len(a.index_set)
    for k, v in enumerate(values, 1):
        coeffs[a.position(colors[(k - 1) % len(colors)])] -= v
    return tuple(coeffs)


def _moved(values, k, delta):
    """values with entry k moved by delta, trailing zeros dropped."""
    moved = list(values)
    moved[k - 1] += delta
    while moved and not moved[-1]:
        moved.pop()
    return tuple(moved)


def _naive_steps(a, colors, values, i):
    """(epsilon_i, e_i, f_i) on the window; an image is its trimmed entries,
    and raising that picks a zero entry is ValueError."""
    sigmas = _naive_sigmas(a, colors, values, i)
    top = max(sigmas.values())
    argmax = [k for k, s in sigmas.items() if s == top]
    if top <= 0:
        raised = None
    elif not values[max(argmax) - 1]:
        raised = ValueError
    else:
        raised = _moved(values, max(argmax), -1)
    return top, raised, _moved(values, min(argmax), +1)


def _naive_closure(a, colors, depth):
    """The trimmed entries reached from zero by at most depth naive lowerings."""
    pad = (0,) * (2 * len(colors))
    seen = frontier = {()}
    for _ in range(depth):
        frontier = {_naive_steps(a, colors, w + pad, i)[2]
                    for w in frontier for i in a.index_set} - seen
        seen = seen | frontier
    return seen


def _outcome(op, *args):
    # Off the image of B(infinity), raising can pick a zero entry: ValueError.
    try:
        return op(*args)
    except ValueError as exc:
        return type(exc)


def _model_steps(a, x, i):
    """(epsilon_i, e_i, f_i) of the model, images read as their entries."""
    def image(kind):
        y = _outcome(binfty.apply_op, a, x, kind, i)
        if not isinstance(y, ZSequence):
            return y
        ZSequence(*y)   # the factory's result passes the public constructor's checks
        return y.entries()
    return binfty.extremes(a, x, i)[0], image("e"), image("f")


@pytest.mark.parametrize("colors", [(1, 2, 3, 4), (4, 3, 2, 1)])
def test_local_gives_epsilon_e_and_f_of_one_walk(colors):
    frag = binfty.fragment(8, IotaPattern(colors, 40))
    assert len(frag.elements) == 4645
    for x in frag.elements:
        for i in (1, 2, 3, 4):
            assert binfty.local(A22, x, i) == (binfty.extremes(A22, x, i)[0],
                                               binfty.apply_op(A22, x, "e", i),
                                               binfty.apply_op(A22, x, "f", i))


@pytest.mark.parametrize("colors", [(1, 2, 3, 4), (4, 3, 2, 1)])
def test_depth_8_closure_matches_the_dense_oracle(colors):
    frag = binfty.fragment(8, IotaPattern(colors, 40))
    assert len(frag.elements) == 4645
    assert {x.entries() for x in frag.elements} == _naive_closure(A22, colors, 8)
    for x in frag.elements:
        window = _window(x)
        for i in (1, 2, 3, 4):
            assert _model_steps(A22, x, i) == _naive_steps(A22, *window, i)


ORACLE_CASES = [
    (A22, (1, 2, 3, 4)),
    (A22, (4, 3, 2, 1)),
    (A22, (1, 2, 1, 3)),     # a repeated color that is not consecutive
    (RANK1, (1,)),
    (B2, (1, 2)),
    (B2, (2, 1)),
]


@st.composite
def oracle_sequences(draw):
    """Sparse, dense (every entry in 0..3), support at both ends, or a block of
    adjacent support points, so the walk's edges are all drawn.  Positions
    run up to 200, past the pattern's length as often as not."""
    a, colors = draw(st.sampled_from(ORACLE_CASES))
    length = draw(st.integers(2 * len(colors), 200))
    end = draw(st.integers(1, 200))     # positions 1..end may hold an entry
    shape = draw(st.sampled_from(("sparse", "dense", "ends", "adjacent")))
    if shape == "dense":
        values = draw(st.lists(st.integers(0, 3), min_size=end, max_size=end))
    else:
        values = [0] * end
        for _ in range(draw(st.integers(0, 8))):
            values[draw(st.integers(0, end - 1))] += draw(st.integers(1, 3))
        if shape == "ends":
            values[0] += draw(st.integers(1, 3))
            values[-1] += draw(st.integers(1, 3))
        elif shape == "adjacent":
            start = draw(st.integers(0, max(end - 2, 0)))
            for k in range(start, min(end, start + draw(st.integers(2, 6)))):
                values[k] += draw(st.integers(1, 3))
    support = tuple((k, v) for k, v in enumerate(values, 1) if v)
    return a, ZSequence(IotaPattern(colors, length), support)


@settings(max_examples=400, deadline=None)
@given(oracle_sequences())
def test_statistics_and_operators_match_the_naive_sigma(case):
    a, x = case
    window = _window(x)
    assert binfty.weight(a, x) == _naive_weight(a, *window)
    for i in sorted(set(x.pattern.colors)):
        assert _model_steps(a, x, i) == _naive_steps(a, *window, i)


def test_pattern_color_outside_the_cartan_matrix_is_rejected():
    with pytest.raises(ValueError, match="5"):
        binfty.words_distinct(g22.parse_word("f5"), g22.parse_word("f1"),
                              pattern=IotaPattern((1, 2, 3, 5), 40))


UNCARRIED = r"color 4 is not carried by the pattern \(1, 2, 3\)"


@pytest.mark.parametrize("call", [
    lambda x: binfty.extremes(A22, x, 4)[0],
    lambda x: binfty.apply_op(A22, x, "f", 4),
    lambda x: binfty.apply_op(A22, x, "e", 4),
])
def test_a_color_outside_the_pattern_is_named(call):
    with pytest.raises(ValueError, match=UNCARRIED):
        call(binfty.zero_sequence(IotaPattern((1, 2, 3), 40)))


def test_words_distinct_names_a_color_outside_the_pattern():
    with pytest.raises(ValueError, match=UNCARRIED):
        binfty.words_distinct(g22.parse_word("f4"), g22.parse_word("f1"),
                              pattern=IotaPattern((1, 2, 3), 40))


def test_fragment_rejects_a_color_outside_the_pattern_before_any_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("an operator ran before the pattern was checked")

    monkeypatch.setattr(binfty, "apply_op", no_step)
    with pytest.raises(ValueError, match=UNCARRIED):
        binfty.fragment(2, pattern=IotaPattern((1, 2, 3), 40))


def test_support_readers_agree_with_the_values():
    x = seq(IotaPattern((1, 2, 3, 4), 12), {1: 2, 2: 1, 8: 3})
    assert x.support == ((1, 2), (2, 1), (8, 3))
    assert x.entries() == (2, 1, 0, 0, 0, 0, 0, 3)
    assert x.pattern == IotaPattern((1, 2, 3, 4), 12)
    zero = binfty.zero_sequence()
    assert zero.support == () and zero.entries() == ()
