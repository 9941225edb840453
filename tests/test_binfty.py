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


def test_pattern_validation():
    with pytest.raises(ValueError):
        IotaPattern((1, 1, 2), 40)
    with pytest.raises(ValueError):
        IotaPattern((1, 2), 3)
    IotaPattern((1,), 10)   # a single color is allowed for rank one


def test_sigma_on_zero_sequence():
    x = binfty.zero_sequence()
    assert all(binfty.sigma(A22, x, k) == 0 for k in range(1, 41))


def test_sigma_sees_only_higher_positions():
    pat = IotaPattern((1, 2, 3, 4), 40)
    x = seq(pat, {1: 1})
    assert binfty.sigma(A22, x, 1) == 1
    assert binfty.sigma(A22, x, 5) == 0


def test_sigma_weights_tail_by_pairings():
    pat = IotaPattern((1, 2, 3, 4), 40)
    x = seq(pat, {4: 2, 7: 1})      # color 4 twice, color 3 once
    assert binfty.sigma(A22, x, 3) == -2 + 2   # against colors 4 then 3
    assert binfty.sigma(A22, x, 1) == -1       # color 1 pairs only with color 3


def test_lowering_zero_picks_first_slot_of_color():
    x = binfty.zero_sequence()
    for i in (1, 2, 3, 4):
        y = binfty.apply_op(A22, x, "f", i)
        assert binfty.support_dict(y) == {i: 1}


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
        binfty.apply_op(A22, binfty.zero_sequence(), "f", 1, tie="max")


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
    assert binfty.support_dict(xa) == {1: 1, 4: 2, 7: 2, 9: 1}
    assert binfty.support_dict(xb) == {4: 2, 7: 2, 9: 2}


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
    assert binfty.support_dict(xa) == {2: 1, 5: 1}
    assert binfty.support_dict(xb) == {1: 1, 2: 1}


def test_rejects_raising_words():
    with pytest.raises(ValueError):
        binfty.words_distinct(g22.parse_word("e1"), g22.parse_word("f1"))


def test_ambient_axioms_on_reachable_set():
    frag = binfty.fragment(6)
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) > 500


@pytest.mark.deep
def test_ambient_axioms_depth_8_length_80():
    frag = binfty.fragment(8, pattern=IotaPattern((1, 2, 3, 4), 80))
    report = cartan.check_crystal_axioms(frag)
    assert report.ok
    assert len(frag.elements) == 4645


# Reference statistics: the O(L) per-position sigma loop that the library's
# single right-to-left pass replaced, and everything built on it.

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


def _naive_phi(a, x, i):
    return _naive_epsilon(a, x, i) + cartan.pairing(a, i, _naive_weight(a, x))


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
    # Off the image of B(infinity), raising can pick a zero entry; the
    # sequence check then rejects the negative result on both sides.
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
def sparse_sequences(draw):
    a, colors = draw(st.sampled_from(ORACLE_CASES))
    length = draw(st.integers(2 * len(colors), 80))
    values = [0] * length
    for _ in range(draw(st.integers(0, 8))):
        values[draw(st.integers(0, length - 1))] += draw(st.integers(1, 3))
    return a, ZSequence(IotaPattern(colors, length), tuple(values))


@settings(max_examples=300, deadline=None)
@given(sparse_sequences())
def test_statistics_and_operators_match_the_naive_sigma(case):
    a, x = case
    assert binfty.weight(a, x) == _naive_weight(a, x)
    for k in range(1, x.pattern.length + 1):
        assert binfty.sigma(a, x, k) == _naive_sigma(a, x, k)
    for i in sorted(set(x.pattern.colors)):
        assert binfty.epsilon(a, x, i) == _naive_epsilon(a, x, i)
        assert binfty.phi(a, x, i) == _naive_phi(a, x, i)
        for kind in ("e", "f"):
            for tie in ("min", "max"):
                assert (_outcome(binfty.apply_op, a, x, kind, i, tie)
                        == _outcome(_naive_apply_op, a, x, kind, i, tie))


def test_pattern_color_outside_the_cartan_matrix_is_rejected():
    with pytest.raises(ValueError, match="5"):
        binfty.words_distinct(g22.parse_word("f5"), g22.parse_word("f1"),
                              pattern=IotaPattern((1, 2, 3, 5), 40))
