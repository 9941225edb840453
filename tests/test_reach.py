"""Every function and method defined in ``src/`` is entered by some command.

A fixed table of CLI invocations (every command, every suite at a small
size, and both primes wherever the command samples) runs under
``sys.setprofile`` in one fresh interpreter, so that import-time code and
the ``lru_cache`` tables start cold whatever ran before in this process.
Each function defined in the package, nested ones included, must then have
been entered, unless ``UNREACHED`` lists it with the claimant that keeps
it: a caller outside the CLI, a ROADMAP item that will call it, or the
test that pins a protocol method only pickling, copying, repr, ``==`` or
``hash`` reach.  A helper that nothing calls fails here; so does a stale
entry in the list.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import crystal_grid

PACKAGE = Path(crystal_grid.__file__).resolve().parent

INVOCATIONS = (
    "graph --bound 3",
    "graph --bound 2 --format dot",
    "grid-info --grid 2,2",
    "grid-info --grid 4",
    "an --n 3 --start 0,0,0 --apply 'f1 f2 e1'",
    "g22 apply --start 0,0,0,0:0,0 --word 'f1 f2 e2'",
    "g22 components --dims 1,1,1,1",
    "g22 decomp --component 2,1,1,2:1,1",
    "oracle epsilon --component 1,1,1,2:1,1 --i 1 --samples 5 --seed 1",
    "oracle epsilon --component 1,1,1,2:1,1 --i 4 --kind eps_star --samples 5 --prime 101 "
    "--seed 1",
    "binfty compare --wordA 'f3 f1 f1 f3' --wordB 'f1 f1 f3 f3' --pattern 1,2,3,4",
    "verify axioms2x2 --bound 3",
    "verify axiomsAn --max-n 3 --bound 3",
    "verify star --bound 3",
    "verify duality --bound 3",
    "verify oracle --max-dim 2 --seed 1",
    "verify oracle --max-dim 2 --prime 101 --seed 1",
    "verify decomp --max-dim 2 --seed 1",
    "verify decomp --max-dim 2 --prime 101 --seed 1",
    "verify cbs",
    "verify counterexample",
    "verify connectivity --bound 3",
    "verify seminormal --bound 3",
)

_VALUE_CONTRACT = "tests/test_values.py::test_value_type_contract"
_FIELD_VALUES = "tests/test_values.py::test_fields_compare_hash_and_print_as_values"

# Qualified name (module.function or module.Class.method) -> its claimant.
UNREACHED = {
    "binfty.fragment": "bench/workloads.py (the ambient workload's axiom checks)",
    "binfty.local": "bench/workloads.py, through binfty.fragment",
    "binfty.weight": "bench/workloads.py, through binfty.fragment",
    "modules22.hom_dim": "bench/workloads.py::fill_caches",
    "modules22.profile_of_multiset": "bench/workloads.py::fill_caches",
    "modules22.ext2_dim": "ROADMAP item 1",
    "modules22.multiset_rep": "ROADMAP item 2",
    "reps.direct_sum": "ROADMAP item 2, through modules22.multiset_rep",
    "linalg.RationalField.reduce": "ROADMAP item 2 (linalg.nullspace over QQ)",
    "an.dual": "ROADMAP item 6",
    "binfty.IotaPattern.__eq__": f"{_VALUE_CONTRACT}[IotaPattern]",
    "binfty.IotaPattern.__hash__": f"{_VALUE_CONTRACT}[IotaPattern]",
    "binfty.ZSequence.__getnewargs__": "tests/test_binfty.py::test_sequence_pickles_and_copies",
    "linalg.PrimeField.__repr__": _FIELD_VALUES,
    "linalg.PrimeField.__eq__": _FIELD_VALUES,
    "linalg.PrimeField.__hash__": _FIELD_VALUES,
    "linalg.RationalField.__repr__": _FIELD_VALUES,
    "linalg.RationalField.__eq__": _FIELD_VALUES,
    "linalg.RationalField.__hash__": _FIELD_VALUES,
    "values._repr": _VALUE_CONTRACT,
    "values.Record.__getnewargs__": _VALUE_CONTRACT,
    "values.Frozen._args": _VALUE_CONTRACT,
    "values.Frozen.__eq__": _VALUE_CONTRACT,
    "values.Frozen.__hash__": _VALUE_CONTRACT,
    "values.Frozen.__setattr__": _VALUE_CONTRACT,
    "values.Frozen.__reduce__": _VALUE_CONTRACT,
}

# Runs in the child: profile from before the first import of the package,
# then make every call in-process; prints the exit codes and the
# (file, first line) of every code object entered.
_DRIVER = """
import contextlib, io, json, shlex, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from crystal_grid import cli
codes = []
for line in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(shlex.split(line)))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _defined():
    """{qualified name: (file, first line)} of every function in the package;
    a decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (path, first)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return found


def _trace():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                 if p]))
    done = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(INVOCATIONS)],
                          capture_output=True, text=True, check=True, env=env)
    result = json.loads(done.stdout)
    return result["codes"], {(os.path.realpath(f), line) for f, line in result["entered"]}


def test_every_function_in_src_is_reached_by_a_command():
    codes, entered = _trace()
    assert codes == [0] * len(INVOCATIONS)
    defined = _defined()
    assert len(defined) > 150      # the walk found the package
    assert sorted(set(UNREACHED) - set(defined)) == []
    unreached = {name for name, (path, line) in defined.items()
                 if (os.path.realpath(path), line) not in entered}
    assert sorted(unreached - set(UNREACHED)) == []       # no command enters these
    assert sorted(set(UNREACHED) - unreached) == []       # stale: a command enters these
