import contextlib
import hashlib
import io
import itertools
import json
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import cartan, cli, g22, modules22, oracle, suites


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_components_command(capsys):
    code, payload = run_json(capsys, "g22", "components", "--dims", "2,1,1,2")
    assert code == 0
    assert payload["count"] == 3
    assert payload["components"] == ["2,1,1,2:0,2", "2,1,1,2:1,1", "2,1,1,2:2,0"]
    assert payload["config"] == {"command": "g22 components", "dims": [2, 1, 1, 2]}


def test_components_trivial_and_deficient(capsys):
    assert run_json(capsys, "g22", "components", "--dims", "0,0,0,0")[1]["count"] == 1
    assert run_json(capsys, "g22", "components", "--dims", "1,2,2,1")[1]["count"] == 1


def test_components_rejects_malformed_dims():
    with pytest.raises(SystemExit) as err:
        cli.main(["g22", "components", "--dims", "2,x,1"])
    assert err.value.code == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_g22_apply_trace(capsys):
    code, payload = run_json(capsys, "g22", "apply",
                             "--start", "0,0,0,0:0,0",
                             "--word", "f3 f1 f1 f3 f4 f4")
    assert code == 0
    assert payload["result"] == "2,0,2,2:0,2"
    assert payload["trace"][0] == "0,0,0,0:0,0"
    assert len(payload["trace"]) == 7


def test_g22_apply_vanishing_word(capsys):
    code, payload = run_json(capsys, "g22", "apply",
                             "--start", "0,1,0,0:0,0", "--word", "f4")
    assert code == 0
    assert payload["result"] is None
    assert payload["trace"][-1] is None


def test_g22_decomp_schema(capsys):
    code, payload = run_json(capsys, "g22", "decomp", "--component", "2,1,1,2:1,1")
    assert code == 0
    assert payload["summands"] == {"M1": 1, "M4": 1, "M11": 1}
    assert payload["cbs"] is True


def test_an_command(capsys):
    code, payload = run_json(capsys, "an", "--n", "4",
                             "--apply", "f1 f2 e1", "--start", "0,0,0,0")
    assert code == 0
    # the rightmost step applies first and vanishes at the origin
    assert payload["result"] is None
    code, payload = run_json(capsys, "an", "--n", "2",
                             "--apply", "f1 f2", "--start", "0,0")
    assert payload["result"] == [1, 1]
    assert payload["trace"] == [[0, 0], [0, 1], [1, 1]]


def test_an_rejects_length_mismatch(capsys):
    code, _ = run(capsys, "an", "--n", "3", "--apply", "f1", "--start", "0,0")
    assert code == 2


def test_oracle_epsilon_report(capsys):
    code, payload = run_json(capsys, "oracle", "epsilon",
                             "--component", "1,1,1,2:1,1", "--i", "1",
                             "--samples", "50", "--prime", "32003", "--seed", "7")
    assert code == 0
    assert payload["value"] == 1
    assert payload["samples"] == 50
    assert payload["seed"] == 7
    assert payload["config"]["prime"] == 32003


def test_oracle_epsilon_reports_the_samples_drawn(capsys):
    code, payload = run_json(capsys, "oracle", "epsilon",
                             "--component", "0,0,0,0:0,0", "--i", "2", "--seed", "7")
    assert code == 0
    assert payload["value"] == 0
    assert payload["samples"] == 1
    assert payload["config"]["samples"] == 50


def test_oracle_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_GRID_SEED", "123")
    code, payload = run_json(capsys, "oracle", "epsilon",
                             "--component", "0,0,0,0:0,0", "--i", "1")
    assert code == 0
    assert payload["seed"] == 123


def test_seed_is_picked_only_for_suites_that_sample(capsys, monkeypatch):
    # A malformed CRYSTAL_GRID_SEED is a usage error only where a seed is
    # used; see test_invalid_input_is_usage_error for that side.
    def no_draw():
        raise AssertionError("a seed was drawn")

    monkeypatch.delenv("CRYSTAL_GRID_SEED", raising=False)
    monkeypatch.setattr(cli.random, "SystemRandom", no_draw)
    code, payload = run_json(capsys, "verify", "axioms2x2", "--bound", "1")
    assert code == 0 and payload["config"] == {"command": "verify", "suite": "axioms2x2",
                                               "bound": 1}
    monkeypatch.setenv("CRYSTAL_GRID_SEED", "abc")
    code, payload = run_json(capsys, "verify", "axioms2x2", "--bound", "1")
    assert code == 0 and payload["ok"] is True


def test_binfty_compare(capsys):
    code, payload = run_json(capsys, "binfty", "compare",
                             "--wordA", "f3 f1 f1 f3 f4 f4",
                             "--wordB", "f1 f1 f3 f3 f4 f4")
    assert code == 0
    assert payload["distinct"] is True
    assert payload["xA"] == [1, 0, 0, 2, 0, 0, 2, 0, 1]
    assert payload["xB"] == [0, 0, 0, 2, 0, 0, 2, 0, 2]


def test_binfty_compare_answers_at_every_length(capsys):
    # At length 8 the words reach past the length, which changes no answer.
    word = " ".join(["f4 f3 f2 f1"] * 4)
    answers = []
    for length in ("8", "40"):
        code, payload = run_json(capsys, "binfty", "compare", "--wordA", word,
                                 "--wordB", "f2", "--length", length)
        assert code == 0
        answers.append((payload["distinct"], payload["xA"], payload["xB"]))
    assert answers[0] == answers[1]
    assert answers[0][0] is True and len(answers[0][1]) > 8


def test_binfty_rejects_raising_words(capsys):
    code, _ = run(capsys, "binfty", "compare", "--wordA", "e1", "--wordB", "f1")
    assert code == 2


def _graph(seed, bound):
    """The closure of seed and, as a reference for ``graph``'s edges, every
    raising step between two of its nodes read backwards (f_i s = t exactly
    when e_i t = s), in node order, then color order."""
    nodes = cartan.lowering_closure(seed, sum(seed.dims), g22.apply_f, g22.COLORS, bound)
    order = {c: k for k, c in enumerate(nodes)}
    edges = sorted(((s, i, t) for t in nodes for i in g22.COLORS
                    if (s := g22.apply_e(t, i)) in order),
                   key=lambda e: (order[e[0]], e[1]))
    return nodes, edges


def test_graph_json_round_trips(capsys):
    code, out = run(capsys, "graph", "--bound", "4", "--format", "json")
    assert code == 0
    assert out.endswith("}\n")
    payload = json.loads(out)
    nodes, edges = _graph(g22.ZERO_COMPONENT, 4)
    assert nodes == list(g22.iter_components(4))
    name = g22.format_component
    assert payload["nodes"] == [{"id": name(c), "dims": list(c.dims), "ranks": list(c.ranks),
                                 "wt": list(g22.weight(c))} for c in nodes]
    assert payload["edges"] == [{"src": name(s), "color": i, "dst": name(t)}
                                for s, i, t in edges]


def test_dot_format(capsys):
    code, out = run(capsys, "graph", "--bound", "1", "--format", "dot")
    assert code == 0
    assert out == """digraph crystal_graph {
  "0,0,0,0:0,0";
  "0,0,0,1:0,0";
  "0,0,1,0:0,0";
  "0,1,0,0:0,0";
  "1,0,0,0:0,0";
  "0,0,0,0:0,0" -> "1,0,0,0:0,0" [label="1"];
  "0,0,0,0:0,0" -> "0,1,0,0:0,0" [label="2"];
  "0,0,0,0:0,0" -> "0,0,1,0:0,0" [label="3"];
  "0,0,0,0:0,0" -> "0,0,0,1:0,0" [label="4"];
}
"""


def test_graph_deterministic_bytes(capsys):
    _, first = run(capsys, "graph", "--bound", "3", "--format", "dot")
    _, second = run(capsys, "graph", "--bound", "3", "--format", "dot")
    assert first == second
    assert '[label="' in first


def test_json_round_trip(capsys):
    seed = g22.parse_component("1,1,1,1:1,1")
    code, out = run(capsys, "graph", "--seed", "1,1,1,1:1,1", "--bound", "6",
                    "--format", "json")
    assert code == 0
    assert out.endswith("\n")
    payload = json.loads(out)
    nodes, edges = _graph(seed, 6)
    name = g22.format_component
    assert payload["nodes"][0]["id"] == name(seed)
    assert [(n["id"], tuple(n["dims"]), tuple(n["ranks"]), tuple(n["wt"]))
            for n in payload["nodes"]] == [(name(c), c.dims, c.ranks, g22.weight(c))
                                           for c in nodes]
    assert [(e["src"], e["color"], e["dst"]) for e in payload["edges"]] == [
        (name(s), i, name(t)) for s, i, t in edges]


def test_graph_exports_are_deterministic(capsys):
    for fmt in ("json", "dot"):
        argv = ("graph", "--seed", "1,1,1,1:1,1", "--bound", "6", "--format", fmt)
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second and first[0] == 0


@pytest.mark.parametrize("argv, digest", [
    pytest.param("graph --bound 5 --format json",
                 "406d7e6c464800c1915bd86b09a020666c364d2cc872044336d9970c2ec293c2",
                 id="graph-zero-json"),
    pytest.param("graph --bound 5 --format dot",
                 "eadadac924ff8b016adb27495e180c68cf6399ecbb49d022fa34717e7702f231",
                 id="graph-zero-dot"),
    pytest.param("graph --seed 1,1,1,1:1,1 --bound 7 --format json",
                 "d64570adfaacab94ebe6a1b84cba2789c0dfd1758db84a0cdbcf0bfcba9fc519",
                 id="graph-seed-json"),
    pytest.param("graph --seed 1,1,1,1:1,1 --bound 7 --format dot",
                 "f5c5bf577fd15f95b19bf2907638eac1ea4adf92a186c70604ed76b0a3719867",
                 id="graph-seed-dot"),
    pytest.param("verify connectivity --bound 12",
                 "db94ca6290fd3f22746ea446179de136d871911f7ac5e1c74fc83b3cfb0c84bb",
                 id="connectivity"),
    pytest.param("verify duality --bound 4",
                 "d8b3af14f94c93a901ccbbe328ef04acb316c6bb1c65a1fd74b61859c872a76c",
                 id="duality-4"),
    pytest.param("verify duality --bound 10",
                 "3ce04c95bf132a02183a187a8a8fd632325e8b82c22f83561ab50f6aa301bad9",
                 id="duality-10"),
    pytest.param("verify duality --bound 14",
                 "eece3c9a11ba8d12591865243ad7f38145fb31c6bc6eda446ca43e575b28a93a",
                 id="duality-14", marks=pytest.mark.deep),
    pytest.param("verify star --bound 4",
                 "96ee75daf9cca4ceff3bb0a07b4618103cc93747d9918a0dbef054f337475211",
                 id="star-4"),
    pytest.param("verify star --bound 10",
                 "750049217de2a4084eeca85e2c87c98a8cbeee071d27af9305752a7cb2bf65b5",
                 id="star-10"),
    pytest.param("verify star --bound 14",
                 "9a30077749d2f495e17ba166da678099524ff6108969a9572ddf4171f240b7d1",
                 id="star-14", marks=pytest.mark.deep),
    pytest.param("verify axioms2x2 --bound 14",
                 "b260dd9e6a5876cdcbec3579702b5a8b4d067a7a443ade101563842071831f19",
                 id="axioms2x2-14"),
    pytest.param("verify axiomsAn --max-n 5 --bound 8",
                 "68d64471f4b51156b730847dbf1ae08d84ddb2563e0467b2f6e6c7a9ef687c5f",
                 id="axiomsAn-5-8"),
    pytest.param("verify seminormal --bound 12",
                 "c646040ef99c80b240d25ec2a2aa95b7ebe63cfcf04f252faae8796fe4b2a93d",
                 id="seminormal-12"),
    pytest.param("verify oracle --max-dim 4 --seed 1",
                 "147088dc7d91e6b85e847eb4c87b02156e88b54fe9d9dfa0fb243c0aab992f45",
                 id="oracle-4"),
    pytest.param("verify decomp --max-dim 4 --seed 1",
                 "1c65f89d7dbbe4b90a501b925266ae8bbf06bfe1760c9d5ebdcab7ba29ee7065",
                 id="decomp-4"),
    pytest.param("oracle epsilon --component 6,6,6,6:6,6 --i 1 --samples 400 --seed 1",
                 "dea9ad08ea9f43e5e2b3608202c5a238b3971307006925f3dd285ab5438259b0",
                 id="oracle-epsilon"),
    pytest.param("verify counterexample",
                 "363fdfdc5e1ff1027a048b4b6c49ce2c70be12710d7cdf0eec583980e864bb65",
                 id="counterexample"),
    pytest.param('binfty compare --wordA "f3 f1 f1 f3 f4 f4" --wordB "f1 f1 f3 f3 f4 f4"',
                 "a73a96be884e1f3fd5c2f91bb78f7dc40ff7a977fc37f7df0afcc898d473a415",
                 id="binfty-compare"),
])
def test_graph_and_connectivity_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *shlex.split(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_bound_below_seed(capsys):
    code, _ = run(capsys, "graph", "--seed", "1,1,1,1:1,1", "--bound", "2")
    assert code == 2


def test_graph_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _ = run(capsys, "graph", "--bound", "2", "--format", "dot", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph crystal_graph {")


def test_connectivity_reports_missing(monkeypatch):
    nodes = cartan.lowering_closure(g22.ZERO_COMPONENT, 0, g22.apply_f, g22.COLORS, 2)
    monkeypatch.setattr(cartan, "lowering_closure", lambda *args: nodes[:-1])
    report = suites.suite_connectivity(2)
    assert report["missing"] == [g22.format_component(nodes[-1])]
    assert report["missing_count"] == 1
    assert report["graph_connected"] is False and report["ok"] is False


def test_connectivity_lowers_each_component_below_the_bound_once_per_color(monkeypatch):
    # 953 components of total dimension at most 9, times 4 colors; the
    # connectivity words only raise.  The closure once also lowered the 426
    # components at the bound (5,516 calls).  apply_f is looked up at call
    # time.
    calls = 0
    step = g22.apply_f

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(g22, "apply_f", counted)
    assert suites.suite_connectivity(10)["ok"]
    assert calls == 3812


# Each call would check nothing; a suite refuses it rather than pass.
NOTHING_TO_CHECK = {
    "axioms2x2": (lambda: suites.suite_axioms2x2(-1), "negative bound -1"),
    "star": (lambda: suites.suite_star(-1), "negative bound -1"),
    "duality": (lambda: suites.suite_duality(-1), "negative bound -1"),
    "seminormal": (lambda: suites.suite_seminormal(-1), "negative bound -1"),
    "axiomsAn-bound": (lambda: suites.suite_axioms_an(max_n=2, bound=-1), "negative bound -1"),
    "axiomsAn-max-n": (lambda: suites.suite_axioms_an(max_n=0), "max_n 0 is below 1"),
    "oracle": (lambda: suites.suite_oracle(max_dim=-1), "negative max_dim -1"),
    "decomp": (lambda: suites.suite_decomp(max_dim=-1), "negative max_dim -1"),
}


@pytest.mark.parametrize("call, message", NOTHING_TO_CHECK.values(), ids=NOTHING_TO_CHECK)
def test_a_suite_with_nothing_to_check_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_counterexample(capsys):
    code, payload = run_json(capsys, "verify", "counterexample")
    assert code == 0
    assert payload["bc_equal"] is True
    assert payload["binfty_distinct"] is True


def test_verify_seminormal(capsys):
    code, payload = run_json(capsys, "verify", "seminormal")
    assert code == 0
    assert payload["witness"] == "1,1,1,2:1,1"
    assert payload["eps"] == 1 and payload["eps_prime"] == 0


def test_verify_axioms_small_bound(capsys):
    code, payload = run_json(capsys, "verify", "axioms2x2", "--bound", "5")
    assert code == 0
    assert payload["plain_violations"] == 0 and payload["star_violations"] == 0


@pytest.mark.deep
@pytest.mark.parametrize("suite, bound, counted, count", [
    ("axioms2x2", 22, "elements", 29536),
    ("star", 16, None, None),
    ("duality", 14, None, None),
    ("connectivity", 16, "components", 8121),
])
def test_verify_bounded_suites_deep(capsys, suite, bound, counted, count):
    code, payload = run_json(capsys, "verify", suite, "--bound", str(bound))
    assert code == 0 and payload["ok"] is True
    if counted:
        assert payload[counted] == count


@pytest.mark.deep
def test_verify_axioms_an_max_n_6_deep(capsys):
    code, payload = run_json(capsys, "verify", "axiomsAn", "--max-n", "6", "--bound", "10")
    assert code == 0 and payload["ok"] is True
    assert sorted(payload["violations"]) == ["1", "2", "3", "4", "5", "6"]


# Each component's samples depend only on the seed, so a box at seed 0
# repeats every check of the smaller boxes at seed 0: no box below 8 is run,
# and 8 fails sooner than 9 on the checks they share.


@pytest.mark.deep
def test_verify_oracle_max_dim_8(capsys):
    code, payload = run_json(capsys, "verify", "oracle", "--max-dim", "8", "--seed", "0")
    assert code == 0 and payload["ok"] is True
    assert payload["components"] == 14277 and payload["retries"] == 0


@pytest.mark.deep
def test_verify_oracle_max_dim_9(capsys):
    code, payload = run_json(capsys, "verify", "oracle", "--max-dim", "9", "--seed", "0")
    assert code == 0 and payload["ok"] is True
    assert payload["components"] == 23266 and payload["retries"] == 0


@pytest.mark.deep
def test_verify_decomp_max_dim_8(capsys):
    code, payload = run_json(capsys, "verify", "decomp", "--max-dim", "8", "--seed", "0")
    assert code == 0 and payload["ok"] is True
    assert payload["components"] == 14277 and payload["retries"] == 0


@pytest.mark.deep
def test_verify_decomp_max_dim_9(capsys):
    code, payload = run_json(capsys, "verify", "decomp", "--max-dim", "9", "--seed", "0")
    assert code == 0 and payload["ok"] is True
    assert payload["components"] == 23266 and payload["retries"] == 0


def test_verify_reports_config_seed(capsys):
    code, payload = run_json(capsys, "verify", "connectivity", "--bound", "5", "--seed", "3")
    assert code == 0
    assert "seed" not in payload["config"]
    code, payload = run_json(capsys, "verify", "oracle", "--max-dim", "1", "--samples", "5",
                             "--seed", "3")
    assert code == 0
    assert payload["config"]["seed"] == payload["seed"] == 3


def test_verify_oracle_with_flags(capsys):
    code, payload = run_json(capsys, "verify", "oracle",
                             "--max-dim", "2", "--samples", "10", "--seed", "3")
    assert code == 0
    assert payload["components"] == 103
    assert payload["config"]["seed"] == 3
    code, payload = run_json(capsys, "verify", "decomp", "--max-dim", "2", "--seed", "3")
    assert code == 0 and payload["ok"] is True


def test_failure_count_is_the_total_behind_the_capped_list(capsys, monkeypatch):
    # e* vanishes everywhere: the suite reads it off g22.local_star's raising slot.
    expected = sum(1 for c in g22.iter_components(4) for i in g22.COLORS
                   if g22.apply_e(g22.dual(c), g22.VERTEX_INVOLUTION[i]) is not None)
    local_star = g22.local_star

    def no_raising(c, i):
        eps, _, down = local_star(c, i)
        return eps, None, down

    monkeypatch.setattr(g22, "local_star", no_raising)
    code, payload = run_json(capsys, "verify", "duality", "--bound", "4")
    assert code == 1
    assert expected > 20
    assert payload["conjugation_failure_count"] == expected
    assert len(payload["conjugation_failures"]) == 20


@pytest.mark.parametrize("suite, options", [
    ("oracle", ["--samples", "1"]),
    ("decomp", []),
])
def test_sampling_retries_are_reported(capsys, monkeypatch, suite, options):
    argv = ["verify", suite, "--max-dim", "2", "--prime", "101", "--seed", "3", *options]
    second_attempts = set()
    sample = oracle.sample_component_point

    def counting(c, cfg, index, memo):
        if cfg.seed == 4:
            second_attempts.add(c)
        return sample(c, cfg, index, memo)

    monkeypatch.setattr(oracle, "sample_component_point", counting)
    code, first = run(capsys, *argv)
    assert code == 0
    assert json.loads(first)["retries"] == len(second_attempts) == 3
    assert run(capsys, *argv)[1] == first


def test_verify_decomp_fails_on_corrupted_generic_rank_data(capsys, monkeypatch):
    # Each component gets the generic profile of its rank pair swapped, where
    # that pair is another component: the decomposition keeps the dims but
    # not the source and sink ranks.
    generic = modules22.generic_profile

    def swapped(c):
        r1, r2 = c.ranks
        return generic(g22.Component(c.dims, (r2, r1)) if g22.ranks_valid(c.dims, (r2, r1))
                       else c)

    corrupted = [g22.format_component(c) for dims in itertools.product(range(3), repeat=4)
                 for c in g22.enumerate_components(dims)
                 if c.ranks[0] != c.ranks[1] and g22.ranks_valid(c.dims, c.ranks[::-1])]
    monkeypatch.setattr(modules22, "generic_profile", swapped)
    code, payload = run_json(capsys, "verify", "decomp", "--max-dim", "2", "--seed", "3")
    assert code == 1 and payload["ok"] is False
    assert payload["failure_count"] == len(corrupted) > 0
    assert payload["failures"] == corrupted[:20]


def test_grid_info(capsys):
    code, payload = run_json(capsys, "grid-info", "--grid", "3,2")
    assert code == 0
    assert payload["vertices"] == 6
    assert payload["arrows"] == 7
    assert payload["relations"] == 2
    code, payload = run_json(capsys, "grid-info", "--grid", "2,2")
    assert payload["cartan"] == [[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 2, -1], [0, -1, -1, 2]]
    code, _ = run(capsys, "grid-info", "--grid", "0,2")
    assert code == 2


# The stderr message pinned for some of the usage errors below.
USAGE_MESSAGES = {
    "verify oracle --max-dim 1": "error: CRYSTAL_GRID_SEED must be an integer, got 'abc'\n",
    "components --dims 1,2,3": "invalid choice: 'components'",
    "g22 components --dims 1,2,3,4,5": "expected 4 dimensions d1,d2,d3,d4, got 5",
    "an --n 0 --start 0 --apply f1": "argument --n: must be positive",
    "an --n -1 --start 0 --apply f1": "argument --n: must be positive",
}


@pytest.mark.parametrize("argv, env_seed", [
    ("verify axioms2x2 --bound -1", None),
    ("verify oracle --max-dim -1", None),
    ("oracle epsilon --component 1,1,1,2:1,1 --i 1 --samples 0", None),
    ("oracle epsilon --component 1,1,1,2:1,1 --i 1 --prime 4", None),
    ("verify oracle --samples 0", None),
    ("binfty compare --wordA f1 --wordB f1 --length 3", None),
    ("verify oracle --max-dim 1", "abc"),
    ("verify axiomsAn --max-n 0", None),
    ("graph --bound 2 --out /nonexistent/x", None),
    ("binfty compare --wordA f5 --wordB f1 --pattern 1,2,3,5", None),
    ("an --n 2 --start 1,0 --apply 'f*3'", None),
    ("an --n 2 --start 0,0 --apply 'f3 e1'", None),
    ("an --n 0 --start 0 --apply f1", None),
    ("an --n -1 --start 0 --apply f1", None),
    ("components --dims 1,2,3", None),
    ("g22 components --dims 1,2,3,4,5", None),
])
def test_invalid_input_is_usage_error(capsys, monkeypatch, argv, env_seed):
    if env_seed is None:
        monkeypatch.delenv("CRYSTAL_GRID_SEED", raising=False)
    else:
        monkeypatch.setenv("CRYSTAL_GRID_SEED", env_seed)
    try:
        code = cli.main(shlex.split(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err
    assert USAGE_MESSAGES.get(argv, "") in captured.err


# --- random argv ---------------------------------------------------------------
# Text becomes ints only in the parsers, so any argv either parses into checked
# values or is a usage error.  Each command is drawn from a small grammar over
# ints in -1..3 (bounds at most 2, to keep each run small); half the time one
# token is then swapped for junk.

_JUNK = st.sampled_from(["", "x", "1,x", "2.5", ":", ",", "1,,2", "--", "f", "e*"])
_INT = st.integers(-1, 3).map(str)
_BOUND = st.integers(-1, 2).map(str)


def _joined(min_size, max_size):
    return st.lists(st.integers(-1, 3), min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


_INTS = st.one_of(_joined(4, 4), _joined(0, 5))
_COMPONENT = st.one_of(
    st.sampled_from([g22.format_component(c) for c in g22.iter_components(2)]),
    st.builds("{}:{}".format, _INTS, st.one_of(_joined(2, 2), _joined(0, 3))))
_WORD = st.lists(st.builds("{}{}".format, st.sampled_from(["e", "f", "e*", "f*", "g"]),
                           st.integers(-1, 5)), max_size=4).map(" ".join)
_PRIME = st.sampled_from(["101", "2", "-1"])


def _option(name, values, required=False):
    """``[name, value]``; an option that argparse does not require is left out at times."""
    given = values.map(lambda value: [name, value])
    return given if required else st.one_of(st.just([]), given)


def _command(words, *options):
    return st.tuples(*options).map(lambda drawn: [*words, *(t for o in drawn for t in o)])


_COMMANDS = st.one_of(
    _command(["g22", "components"], _option("--dims", _INTS, True)),
    _command(["graph"], _option("--seed", _COMPONENT), _option("--bound", _BOUND, True),
             _option("--format", st.sampled_from(["dot", "json"]))),
    _command(["grid-info"], _option("--grid", _INTS, True)),
    _command(["an"], _option("--n", _INT, True), _option("--start", _INTS, True),
             _option("--apply", _WORD, True)),
    _command(["g22", "apply"], _option("--start", _COMPONENT, True),
             _option("--word", _WORD, True)),
    _command(["g22", "decomp"], _option("--component", _COMPONENT, True)),
    _command(["oracle", "epsilon"], _option("--component", _COMPONENT, True),
             _option("--i", _INT, True), _option("--kind", st.sampled_from(["eps", "eps_star"])),
             _option("--samples", _INT), _option("--prime", _PRIME), _option("--seed", _INT)),
    _command(["binfty", "compare"], _option("--wordA", _WORD, True),
             _option("--wordB", _WORD, True), _option("--pattern", _INTS),
             _option("--length", _INT)),
    st.sampled_from(sorted(suites.SUITES)).flatmap(lambda suite: _command(
        ["verify", suite], _option("--bound", _BOUND, True), _option("--max-n", _BOUND, True),
        _option("--max-dim", _BOUND, True), _option("--samples", _INT),
        _option("--prime", _PRIME), _option("--seed", _INT))),
)


@st.composite
def _argv(draw):
    argv = draw(_COMMANDS)
    if draw(st.booleans()):
        argv[draw(st.integers(0, len(argv) - 1))] = draw(_JUNK)
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_random_argv_exits_by_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(out.getvalue().splitlines()[-1])["ok"] is False
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()
