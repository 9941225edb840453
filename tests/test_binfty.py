import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import binfty, cartan, g22
from crystal_grid.binfty import IotaPattern, ZSequence
from crystal_grid.cartan import CartanMatrix, TruncationError

A22 = g22.CARTAN
RANK1 = CartanMatrix((1,), ((2,),))
B2 = CartanMatrix((1, 2), ((2, -1), (-2, 2)))   # not symmetric: rows and columns differ


def seq(pattern, entries):
    values = [0] * pattern.length
    for k, v in entries.items():
        values[k - 1] = v
    return ZSequence(pattern, tuple(values))


def nonzero_entries(x):
    """The nonzero entries of x, keyed by position."""
    return {k: x.values[k - 1] for k in x.support}


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
        ZSequence(pattern, [0] * 40)


# Pinned values of the reference sigma below, which anchor the oracle.

def test_sigma_on_zero_sequence():
    x = binfty.zero_sequence()
    assert all(_naive_sigma(A22, x, k) == 0 for k in range(1, 41))


def test_sigma_sees_only_higher_positions():
    pat = IotaPattern((1, 2, 3, 4), 40)
    x = seq(pat, {1: 1})
    assert _naive_sigma(A22, x, 1) == 1
    assert _naive_sigma(A22, x, 5) == 0


def test_sigma_weights_tail_by_pairings():
    pat = IotaPattern((1, 2, 3, 4), 40)
    x = seq(pat, {4: 2, 7: 1})      # color 4 twice, color 3 once
    assert _naive_sigma(A22, x, 3) == -2 + 2   # against colors 4 then 3
    assert _naive_sigma(A22, x, 1) == -1       # color 1 pairs only with color 3


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
        x = binfty.apply_word(A22, binfty.zero_sequence(), word)
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
    assert binfty.epsilon(RANK1, x, 1) == 3
    for _ in range(3):
        x = binfty.apply_op(RANK1, x, "e", 1)
    assert x == binfty.zero_sequence(pat)


def test_lowering_raises_epsilon_by_one():
    rng = random.Random(99)
    for _ in range(100):
        word = [("f", rng.choice((1, 2, 3, 4))) for _ in range(rng.randrange(6))]
        x = binfty.apply_word(A22, binfty.zero_sequence(), word)
        for i in (1, 2, 3, 4):
            y = binfty.apply_op(A22, x, "f", i)
            assert binfty.epsilon(A22, y, i) == binfty.epsilon(A22, x, i) + 1


def test_opposite_tie_break_fails_the_probes():
    # breaking ties toward the largest slot immediately escapes any
    # truncation: on the zero sequence every slot of the color is maximal
    with pytest.raises(TruncationError):
        _naive_apply_op(A22, binfty.zero_sequence(), "f", 1, tie="max")


def test_raising_outside_the_image_is_rejected():
    # sigma_4 = 2 comes from the tail alone, so raising picks the empty slot 4
    x = seq(IotaPattern((1, 2, 3, 4), 12), {8: 1})
    with pytest.raises(ValueError, match="outside the image of B"):
        binfty.apply_op(A22, x, "e", 4)


def test_an_entry_in_the_guard_band_is_rejected():
    # Under A2 this sequence had epsilon_1 = -1 at L = 4 but 0 once zero-padded.
    with pytest.raises(ValueError, match="position 4 inside the guard band"):
        ZSequence(IotaPattern((1, 2), 4), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="position 9 inside the guard band"):
        seq(IotaPattern((1, 2, 3, 4), 12), {2: 1, 9: 1, 11: 2})


def test_truncation_guard_reports():
    # weight down the early color-1 slot so the maximum lands in the guard band
    pat = IotaPattern((1, 2), 4)
    x = seq(pat, {2: 5})
    with pytest.raises(TruncationError):
        binfty.apply_op(CartanMatrix((1, 2), ((2, -1), (-1, 2))), x, "f", 1)


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


def _direct_fragment(depth, pattern):
    """binfty.fragment's elements with maps that call the module functions,
    so each map makes its own support walk."""
    frag = binfty.fragment(depth, pattern)
    a = frag.cartan
    return dataclasses.replace(
        frag,
        epsilon=lambda x, i: binfty.epsilon(a, x, i),
        apply_e=lambda x, i: binfty.apply_op(a, x, "e", i),
        apply_f=lambda x, i: binfty.apply_op(a, x, "f", i))


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
    return dataclasses.replace(frag, **{name: wrap(name, getattr(frag, name))
                                        for name in ("wt", "epsilon", "apply_e", "apply_f")})


@pytest.mark.parametrize("colors, length", [
    ((1, 2, 3, 4), 40), ((1, 2, 3, 4), 80), ((4, 3, 2, 1), 40), ((4, 3, 2, 1), 80),
    # The shortest truncation that holds every lowering word of length 6 from
    # zero; lowering two of the depth-6 elements reaches the guard band.
    ((1, 2, 3, 4), 19),
])
def test_shared_walk_gives_the_checker_the_same_answers(colors, length):
    pattern = IotaPattern(colors, length)
    shared, direct = binfty.fragment(6, pattern), _direct_fragment(6, pattern)
    assert shared.elements == direct.elements and len(shared.elements) == 971
    shared_log, direct_log = [], []
    report = cartan.check_crystal_axioms(_logged(shared, shared_log))
    assert report == cartan.check_crystal_axioms(_logged(direct, direct_log))
    assert report.ok
    # Every call the checker made, in order, got the same answer from both.
    assert shared_log == direct_log
    truncated = sum(outcome is TruncationError for _, _, outcome in shared_log)
    assert truncated == (2 if length == 19 else 0)
    # In this model f(e(b)) = b, so the checker's other TruncationError path,
    # f met as f_i e_i b, cannot be reached from a real element.


def test_fragment_maps_agree_with_direct_calls_in_any_order():
    frag = binfty.fragment(3)
    pool = list(frag.elements[1:40])
    pool.append(ZSequence(pool[-1].pattern, pool[-1].values))   # equal value, other object
    pool.append(seq(IotaPattern((1, 2, 3, 4), 12), {8: 1}))    # e_4 picks a zero entry
    pool.append(seq(IotaPattern((4, 3, 2, 1), 8), {1: 1, 2: 1, 3: 1}))  # f_4 truncates
    maps = {"epsilon": (frag.epsilon, lambda x, i: binfty.epsilon(A22, x, i)),
            "e": (frag.apply_e, lambda x, i: binfty.apply_op(A22, x, "e", i)),
            "f": (frag.apply_f, lambda x, i: binfty.apply_op(A22, x, "f", i))}
    rng = random.Random(5)
    calls = [(name, x, i) for name in maps for x in pool for i in (1, 2, 3, 4)]
    # Repeats of one element across colors and of one color across elements.
    calls += [(name, pool[0], i) for i in (1, 2, 3, 4, 4, 3) for name in ("f", "epsilon")]
    calls += [(name, x, 2) for x in pool for name in ("e", "f")]
    calls += [rng.choice(calls) for _ in range(2000)]
    rng.shuffle(calls)
    seen = set()
    for name, x, i in calls:
        mapped, direct = maps[name]
        expected = _raised(direct, x, i)
        assert _raised(mapped, x, i) == expected, (name, x.values, i)
        seen.add(expected if isinstance(expected, tuple) else type(expected))
    assert {int, type(None), ZSequence} < seen
    assert any(t[0] is TruncationError for t in seen if isinstance(t, tuple))
    assert any(t[0] is ValueError for t in seen if isinstance(t, tuple))


def _raised(op, *args):
    """op(*args), or (type, message) of the error it raises."""
    try:
        return op(*args)
    except (TruncationError, ValueError) as exc:
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
    # fragment (each read by epsilon and one operator); 16,132 when each map
    # walked on its own.
    assert walks == 6124


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


# Reference statistics: the O(L) per-position sigma loop, independent of the
# library's walk over the support, and everything built on it.

def _naive_sigma(a, x, k):
    pat = x.pattern
    row = a.entries[a.position(pat.color_at(k))]
    total = x.values[k - 1]
    for j in range(k + 1, pat.length + 1):
        xj = x.values[j - 1]
        if xj:
            total += row[a.position(pat.color_at(j))] * xj
    return total


def _naive_positions(x, i):
    return [k for k in range(1, x.pattern.length + 1) if x.pattern.color_at(k) == i]


def _naive_epsilon(a, x, i):
    return max(_naive_sigma(a, x, k) for k in _naive_positions(x, i))


def _naive_weight(a, x):
    coeffs = [0] * len(a.index_set)
    for k in range(1, x.pattern.length + 1):
        coeffs[a.position(x.pattern.color_at(k))] -= x.values[k - 1]
    return tuple(coeffs)


def _naive_apply_op(a, x, kind, i, tie):
    positions = _naive_positions(x, i)
    sigmas = {k: _naive_sigma(a, x, k) for k in positions}
    top = max(sigmas.values())
    argmax = [k for k in positions if sigmas[k] == top]
    if kind == "f":
        k = min(argmax) if tie == "min" else max(argmax)
        if k >= x.pattern.guard_start:
            raise TruncationError(f"position {k}")
        delta = +1
    else:
        if top <= 0:
            return None
        k = max(argmax) if tie == "min" else min(argmax)
        delta = -1
    values = list(x.values)
    values[k - 1] += delta
    return ZSequence(x.pattern, tuple(values))


def _outcome(op, *args):
    # Off the image of B(infinity), raising can pick a zero entry; both sides
    # then raise ValueError, the naive one through the sequence check.
    try:
        return op(*args)
    except (TruncationError, ValueError) as exc:
        return type(exc)


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
    adjacent support points, so the walk's edges are all drawn.  Entries are
    drawn below the guard band only: the model does not hold one there."""
    a, colors = draw(st.sampled_from(ORACLE_CASES))
    length = draw(st.integers(2 * len(colors), 80))
    below = length - len(colors)     # positions 1..below lie below the guard band
    shape = draw(st.sampled_from(("sparse", "dense", "ends", "adjacent")))
    if shape == "dense":
        values = draw(st.lists(st.integers(0, 3), min_size=below, max_size=below))
    else:
        values = [0] * below
        for _ in range(draw(st.integers(0, 8))):
            values[draw(st.integers(0, below - 1))] += draw(st.integers(1, 3))
        if shape == "ends":
            values[0] += draw(st.integers(1, 3))
            values[-1] += draw(st.integers(1, 3))
        elif shape == "adjacent":
            start = draw(st.integers(0, max(below - 2, 0)))
            for k in range(start, min(below, start + draw(st.integers(2, 6)))):
                values[k] += draw(st.integers(1, 3))
    return a, ZSequence(IotaPattern(colors, length), tuple(values) + (0,) * len(colors))


@settings(max_examples=400, deadline=None)
@given(oracle_sequences())
def test_statistics_and_operators_match_the_naive_sigma(case):
    a, x = case
    assert binfty.weight(a, x) == _naive_weight(a, x)
    for i in sorted(set(x.pattern.colors)):
        assert binfty.epsilon(a, x, i) == _naive_epsilon(a, x, i)
        for kind in ("e", "f"):
            out = _outcome(binfty.apply_op, a, x, kind, i)
            expected = _outcome(_naive_apply_op, a, x, kind, i, "min")
            assert out == expected
            if isinstance(expected, ZSequence):
                # == compares pattern and values only; the naive result's
                # support comes from the public constructor.
                assert out.support == expected.support


def test_pattern_color_outside_the_cartan_matrix_is_rejected():
    with pytest.raises(ValueError, match="5"):
        binfty.words_distinct(g22.parse_word("f5"), g22.parse_word("f1"),
                              pattern=IotaPattern((1, 2, 3, 5), 40))


def _padded(x):
    """x with L zeros appended: the same sequence under truncation length 2L."""
    pattern = IotaPattern(x.pattern.colors, 2 * x.pattern.length)
    return ZSequence(pattern, x.values + (0,) * x.pattern.length)


@settings(max_examples=200, deadline=None)
@given(oracle_sequences())
def test_zero_padding_changes_no_statistic(case):
    a, x = case
    y = _padded(x)
    assert binfty.weight(a, y) == binfty.weight(a, x)
    for i in sorted(set(x.pattern.colors)):
        assert binfty.epsilon(a, y, i) == binfty.epsilon(a, x, i)
        for kind in ("e", "f"):
            out = _outcome(binfty.apply_op, a, x, kind, i)
            if out is TruncationError:
                continue
            expected = _padded(out) if isinstance(out, ZSequence) else out
            assert _outcome(binfty.apply_op, a, y, kind, i) == expected


UNCARRIED = r"color 4 is not carried by the pattern \(1, 2, 3\)"


@pytest.mark.parametrize("call", [
    lambda x: binfty.epsilon(A22, x, 4),
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
    assert x.support == (1, 2, 8)
    assert x.support_end() == 8
    assert nonzero_entries(x) == {1: 2, 2: 1, 8: 3}
    zero = binfty.zero_sequence()
    assert zero.support == () and zero.support_end() == 0 and nonzero_entries(zero) == {}
