"""The contract of the hand-written value types: equality only with their own
type, equal values hash equal, no assignment, pickling and copying that keep
type and value, the dataclass-style repr, and every constructor check."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import crystal_grid
from crystal_grid import binfty, cartan, g22, grid, linalg, modules22, oracle
from crystal_grid.binfty import IotaPattern
from crystal_grid.cartan import CartanMatrix, CheckReport, CrystalFragment
from crystal_grid.linalg import QQ
from crystal_grid.modules22 import RankProfile, Resolution
from crystal_grid.oracle import SampleConfig
from crystal_grid.reps import CommutativityError, Representation
from crystal_grid.values import Frozen, Record

A2 = CartanMatrix((1, 2), ((2, -1), (-1, 2)))


def _one(field):
    return ((field.one,),)


# (a, b, c, repr of a, a read of a's caches): b equals a but is built another
# way, c is another value of the same type.
CASES = {
    "CartanMatrix": (
        lambda: A2,
        lambda: cartan.cartan_from_quiver(grid.build_grid((2,)), labels=(1, 2)),
        lambda: CartanMatrix((1, 2), ((2, -2), (-1, 2))),
        "CartanMatrix(index_set=(1, 2), entries=((2, -1), (-1, 2)))",
        lambda a: (a.position(2), a.pattern_rows((2, 1))),
    ),
    "CrystalFragment": (
        lambda: CrystalFragment(A2, (0, 1), len, max),
        lambda: CrystalFragment(cartan=CartanMatrix((1, 2), ((2, -1), (-1, 2))),
                                elements=(0, 1), wt=len, local=max),
        lambda: CrystalFragment(A2, (0, 2), len, max),
        "CrystalFragment(cartan=CartanMatrix(index_set=(1, 2), entries=((2, -1), (-1, 2))), "
        "elements=(0, 1), wt=<built-in function len>, local=<built-in function max>)",
        lambda a: a.colors,
    ),
    "CheckReport": (
        lambda: cartan.check_crystal_axioms(g22.fragment(3)),
        lambda: CheckReport(()),
        lambda: CheckReport(((5, 0, 1, "operators defined although epsilon is -infinity"),)),
        "CheckReport(violations=())",
        lambda a: a.ok,
    ),
    "GridQuiver": (
        lambda: grid.build_grid((2,)),
        lambda: grid.build_grid([2]),
        lambda: grid.build_grid((3,)),
        "GridQuiver(shape=(2,), vertices=((1,), (2,)), arrows=(((1,), (2,)),), relations=())",
        lambda a: a.arrows,
    ),
    "IotaPattern": (
        lambda: IotaPattern((1, 2, 3, 4), 40),
        lambda: IotaPattern((1, 2, 3, 4), 80),   # the length takes no part in equality
        lambda: IotaPattern((4, 3, 2, 1), 40),
        "IotaPattern(colors=(1, 2, 3, 4), length=40)",
        lambda a: (a.length, a.offsets(3),
                   binfty.extremes(g22.CARTAN, binfty.zero_sequence(a), 3)),
    ),
    "Representation": (
        lambda: modules22.multiset_rep({}),
        # Maps given as lists are stored as tuples of row tuples.
        lambda: Representation(QQ, (0, 0, 0, 0), [], [], [], []),
        lambda: Representation(linalg.PrimeField(7), (1, 1, 1, 1),
                               *(_one(linalg.PrimeField(7)) for _ in range(4))),
        "Representation(field=QQ, dims=(0, 0, 0, 0), f12=(), f13=(), f24=(), f34=())",
        lambda a: (a.f14, a.maps),
    ),
    "Resolution": (
        lambda: modules22._RESOLUTIONS[2],
        lambda: Resolution(stages=((7,), (4,)), diffs=(((1,),), ((1,),))),
        lambda: modules22._RESOLUTIONS[3],
        "Resolution(stages=((7,), (4,)), diffs=(((1,),), ((1,),)))",
        lambda a: a.stages,
    ),
    "RankProfile": (
        lambda: modules22.profile_of_multiset({11: 1}),
        lambda: modules22.rank_profile(modules22.indecomposable(11)),
        lambda: modules22.profile_of_multiset({11: 2}),
        "RankProfile(dims=(1, 1, 1, 1), r12=1, r13=1, r24=1, r34=1, source_rank=1, sink_rank=1, "
        "diag_rank=1)",
        lambda a: a.as_vector(),
    ),
    "SampleConfig": (
        lambda: SampleConfig(),
        lambda: SampleConfig(oracle.DEFAULT_PRIME, 50, seed=0),
        lambda: SampleConfig(seed=1),
        "SampleConfig(prime=32003, count=50, seed=0)",
        lambda a: (a.field().p, a.rng(3).random()),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    make_a, make_b, make_c, text, read = CASES[name]
    a, b, c = make_a(), make_b(), make_c()
    assert type(a).__name__ == name and type(b) is type(a) is type(c)
    # A tuple of its fields, or a slotted class: no instance __dict__.
    assert isinstance(a, (Record, Frozen)) and not hasattr(a, "__dict__")
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert a != c and not a == c
    # Equal by value to its own type only, never to its fields as a tuple.
    fields = tuple(getattr(a, f) for f in type(a)._fields)
    assert a != fields and not a == fields and fields != a and not fields == a
    assert a != None and not a == None  # noqa: E711
    assert repr(a) == text
    for attr in (*type(a)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 0)
    for attr in type(a)._fields:
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == make_a()
    for y in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(y) is type(a) and y == a and repr(y) == repr(a)
        assert read(y) == read(a)


def test_representation_equality_ignores_f14():
    a, b = modules22.indecomposable(11), modules22.indecomposable(11)
    object.__setattr__(b, "f14", ((QQ.zero,),))
    assert a == b and hash(a) == hash(b) and a.f14 != b.f14
    assert "f14" not in repr(b)


def test_fields_compare_hash_and_print_as_values():
    f7, also_f7, f11 = linalg.PrimeField(7), linalg.PrimeField(7), linalg.PrimeField(11)
    assert f7 == also_f7 and not f7 != also_f7 and hash(f7) == hash(also_f7)
    assert f7 != f11 and f7 != QQ and QQ != f7 and f7 != 7
    assert QQ == linalg.RationalField() and hash(QQ) == hash(linalg.RationalField())
    assert QQ != "QQ" and {f7: "x"}[also_f7] == "x"
    assert (repr(f7), repr(f11), repr(QQ)) == ("GF(7)", "GF(11)", "QQ")
    # A point's field takes part in its equality and hash.
    one = ((1,),)
    a, b = (Representation(field, (1, 1, 1, 1), one, one, one, one) for field in (f7, also_f7))
    assert a == b and hash(a) == hash(b)
    assert a != Representation(f11, (1, 1, 1, 1), one, one, one, one)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CartanMatrix((1, 2), ((2, -1),)), ValueError,
     "entries must be square over the index set"),
    (lambda: CartanMatrix((1,), ((1,),)), ValueError, "diagonal entries must equal 2"),
    (lambda: CartanMatrix((1, 2), ((2, 1), (1, 2))), ValueError,
     "off-diagonal entries must be nonpositive"),
    (lambda: CartanMatrix((1, 2), ((2, -1), (0, 2))), ValueError,
     "zero pattern must be symmetric"),
    (lambda: IotaPattern([1, 2], 8), ValueError, "color pattern must be a tuple, got a list"),
    (lambda: IotaPattern((), 8), ValueError, "empty color pattern"),
    (lambda: IotaPattern((1, 2, 1), 8), ValueError,
     "pattern must not repeat a color consecutively"),
    (lambda: IotaPattern((1, 2), 3), ValueError, "length shorter than two periods"),
    (lambda: Representation(QQ, (1, 1, 1), *[_one(QQ)] * 4), ValueError,
     "expected four nonnegative dimensions, got (1, 1, 1)"),
    (lambda: Representation(QQ, (1, 1, 1, 2), *[_one(QQ)] * 4), ValueError,
     "f24 has shape 1x1, expected 2x1"),
    (lambda: Representation(QQ, (1, 1, 1, 1), _one(QQ), _one(QQ), _one(QQ),
                            ((QQ.zero,),)), CommutativityError,
     "the square f24·f12 = f34·f13 does not commute"),
    (lambda: SampleConfig(prime=97), ValueError, "prime must be a prime >= 101"),
    (lambda: SampleConfig(count=0), ValueError, "sample count must be positive"),
    (lambda: SampleConfig(prime=1001), ValueError, "modulus 1001 is not prime"),
])
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_cli_imports_neither_dataclasses_nor_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import crystal_grid.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(crystal_grid.__file__))
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_suite_parameters_are_the_signatures():
    import inspect

    from crystal_grid import cli, suites
    assert set(cli._SUITE_PARAMETERS) == set(suites.SUITES)
    for name, suite in suites.SUITES.items():
        assert cli._SUITE_PARAMETERS[name] == {
            p.name: p.default for p in inspect.signature(suite).parameters.values()}, name
        assert list(cli._SUITE_PARAMETERS[name]) == list(inspect.signature(suite).parameters)
