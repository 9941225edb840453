import json
import shlex

import pytest

from crystal_grid import cartan, cli, g22, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_components_command(capsys):
    code, payload = run_json(capsys, "components", "--dims", "2,1,1,2")
    assert code == 0
    assert payload["count"] == 3
    assert payload["components"] == ["2,1,1,2:0,2", "2,1,1,2:1,1", "2,1,1,2:2,0"]
    assert payload["config"]["dims"] == [2, 1, 1, 2]


def test_components_trivial_and_deficient(capsys):
    assert run_json(capsys, "components", "--dims", "0,0,0,0")[1]["count"] == 1
    assert run_json(capsys, "g22", "components", "--dims", "1,2,2,1")[1]["count"] == 1


def test_components_rejects_malformed_dims():
    with pytest.raises(SystemExit) as err:
        cli.main(["components", "--dims", "2,x,1"])
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


def test_oracle_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_GRID_SEED", "123")
    code, payload = run_json(capsys, "oracle", "epsilon",
                             "--component", "0,0,0,0:0,0", "--i", "1")
    assert code == 0
    assert payload["seed"] == 123


def test_binfty_compare(capsys):
    code, payload = run_json(capsys, "binfty", "compare",
                             "--wordA", "f3 f1 f1 f3 f4 f4",
                             "--wordB", "f1 f1 f3 f3 f4 f4")
    assert code == 0
    assert payload["distinct"] is True
    assert payload["xA"] == [1, 0, 0, 2, 0, 0, 2, 0, 1]
    assert payload["xB"] == [0, 0, 0, 2, 0, 0, 2, 0, 2]


def test_binfty_rejects_raising_words(capsys):
    code, _ = run(capsys, "binfty", "compare", "--wordA", "e1", "--wordB", "f1")
    assert code == 2


def test_graph_json_round_trips(capsys):
    code, out = run(capsys, "graph", "--bound", "4", "--format", "json")
    assert code == 0
    graph = cartan.graph_from_json(out)
    total = sum(g22.component_count((a, b, c, d))
                for a in range(5) for b in range(5) for c in range(5) for d in range(5)
                if a + b + c + d <= 4)
    assert len(graph.nodes) == total


def test_graph_deterministic_bytes(capsys):
    _, first = run(capsys, "graph", "--bound", "3", "--format", "dot")
    _, second = run(capsys, "graph", "--bound", "3", "--format", "dot")
    assert first == second
    assert '[label="' in first


def test_graph_bound_below_seed(capsys):
    code, _ = run(capsys, "graph", "--seed", "1,1,1,1:1,1", "--bound", "2")
    assert code == 2


def test_graph_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _ = run(capsys, "graph", "--bound", "2", "--format", "dot", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph crystal_graph {")


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


def test_verify_reports_config_seed(capsys):
    code, payload = run_json(capsys, "verify", "connectivity", "--bound", "5")
    assert code == 0
    assert "seed" in payload["config"]


def test_verify_oracle_with_flags(capsys):
    code, payload = run_json(capsys, "verify", "oracle",
                             "--max-dim", "2", "--samples", "10", "--seed", "3")
    assert code == 0
    assert payload["components"] == 103
    assert payload["config"]["seed"] == 3
    code, payload = run_json(capsys, "verify", "decomp", "--max-dim", "2", "--seed", "3")
    assert code == 0 and payload["ok"] is True


def test_failure_count_is_the_total_behind_the_capped_list(capsys, monkeypatch):
    expected = sum(1 for c in g22.iter_components(4) for i in g22.COLORS
                   if g22.apply_e(g22.dual(c), g22.VERTEX_INVOLUTION[i]) is not None)
    monkeypatch.setattr(g22, "apply_e_star", lambda c, i: None)
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
    argv = ["verify", suite, "--max-dim", "2", "--prime", "101", "--seed", "2", *options]
    second_attempts = set()
    sample = oracle.sample_component_point

    def counting(c, cfg, index):
        if cfg.seed == 3:
            second_attempts.add(c)
        return sample(c, cfg, index)

    monkeypatch.setattr(oracle, "sample_component_point", counting)
    code, first = run(capsys, *argv)
    assert code == 0
    assert json.loads(first)["retries"] == len(second_attempts) == 3
    assert run(capsys, *argv)[1] == first


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


@pytest.mark.parametrize("argv, env_seed", [
    ("verify axioms2x2 --bound -1", None),
    ("verify oracle --max-dim -1", None),
    ("oracle epsilon --component 1,1,1,2:1,1 --i 1 --samples 0", None),
    ("oracle epsilon --component 1,1,1,2:1,1 --i 1 --prime 4", None),
    ("verify oracle --samples 0", None),
    ("binfty compare --wordA f1 --wordB f1 --length 3", None),
    ("verify cbs", "abc"),
    ("verify axiomsAn --max-n 0", None),
    ("binfty compare --wordA '" + " ".join(["f4 f3 f2 f1"] * 4) + "' --wordB f2 --length 8",
     None),
    ("graph --bound 2 --out /nonexistent/x", None),
    ("binfty compare --wordA f5 --wordB f1 --pattern 1,2,3,5", None),
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
