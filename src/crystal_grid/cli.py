"""Command-line interface.

Every command prints a single JSON report whose "config" header holds the
full effective configuration, including the seed of every command that
samples, so any run can be reproduced byte for byte.  Exit codes: 0 clean,
1 a mathematical check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import an, binfty, cartan, g22, oracle, suites
from .oracle import DEFAULT_PRIME, SampleConfig


def _dims_arg(text: str):
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension vector {text!r}")
    if any(d < 0 for d in dims):
        raise argparse.ArgumentTypeError("dimensions must be nonnegative")
    return dims


def _nonnegative_int_arg(text: str, least: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError("must be positive" if least else "must be nonnegative")
    return value


def _positive_int_arg(text: str) -> int:
    return _nonnegative_int_arg(text, least=1)


def _component_arg(text: str):
    try:
        return g22.parse_component(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _word_arg(text: str):
    try:
        return g22.parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _pattern_arg(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad color pattern {text!r}")


def _pick_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CRYSTAL_GRID_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CRYSTAL_GRID_SEED must be an integer, got {env!r}") from None
    return random.SystemRandom().randrange(2**31)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _config(args, **extra) -> dict:
    cfg = {"command": args.command}
    if getattr(args, "subcommand", None):
        cfg["command"] = f"{args.command} {args.subcommand}"
    cfg.update(extra)
    return cfg


def cmd_graph(args) -> int:
    seed = args.seed_component
    nodes = cartan.lowering_closure(seed, sum(seed.dims), g22.apply_f, g22.COLORS, args.bound)
    ids = {c: g22.format_component(c) for c in nodes}
    # A step from a node below the bound lands in the closure, and one from
    # the bound above it: the edges are the steps that land on a node.
    edges = [(s, i, t) for s in nodes for i in g22.COLORS if (t := g22.apply_f(s, i)) in ids]
    if args.format == "dot":
        lines = ["digraph crystal_graph {"]
        lines += [f'  "{ids[c]}";' for c in nodes]
        lines += [f'  "{ids[s]}" -> "{ids[t]}" [label="{i}"];' for s, i, t in edges]
        text = "\n".join(lines) + "\n}\n"
    else:
        text = json.dumps({
            "nodes": [{"id": ids[c], "dims": list(c.dims), "ranks": list(c.ranks),
                       "wt": list(g22.weight(c))} for c in nodes],
            "edges": [{"src": ids[s], "color": i, "dst": ids[t]} for s, i, t in edges],
        }, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def cmd_grid_info(args) -> int:
    from .grid import build_grid

    q = build_grid(args.grid)
    a = cartan.cartan_from_quiver(q)
    payload = {
        "config": _config(args, grid=list(args.grid)),
        "vertices": len(q.vertices),
        "arrows": len(q.arrows),
        "relations": len(q.relations),
        "cartan": [list(row) for row in a.entries],
    }
    _emit(payload)
    return 0


def cmd_an(args) -> int:
    if len(args.start) != args.n:
        print("error: start vector length differs from --n", file=sys.stderr)
        return 2
    if any(not 1 <= color <= args.n for _, color in args.apply):
        print(f"error: word uses a color outside 1..{args.n}", file=sys.stderr)
        return 2
    state, trace = cartan.apply_word(an.STEPS, args.apply, args.start)
    payload = {
        "config": _config(args, n=args.n, start=list(args.start),
                          apply=g22.format_word(args.apply)),
        "result": list(state) if state is not None else None,
        "trace": [list(s) if s is not None else None for s in trace],
    }
    _emit(payload)
    return 0


def cmd_g22_apply(args) -> int:
    if any(color not in g22.COLORS for _, color in args.word):
        print("error: word uses a color outside 1..4", file=sys.stderr)
        return 2
    result, trace = cartan.apply_word(g22.STEPS, args.word, args.start)
    payload = {
        "config": _config(args, start=g22.format_component(args.start),
                          word=g22.format_word(args.word)),
        "result": g22.format_component(result) if result is not None else None,
        "trace": [g22.format_component(c) if c is not None else None for c in trace],
    }
    _emit(payload)
    return 0


def cmd_g22_components(args) -> int:
    comps = g22.enumerate_components(args.dims)
    payload = {
        "config": _config(args, dims=list(args.dims)),
        "count": len(comps),
        "components": [g22.format_component(c) for c in comps],
    }
    _emit(payload)
    return 0


def cmd_g22_decomp(args) -> int:
    from . import modules22

    ms = modules22.generic_decomposition(args.component)
    payload = {
        "config": _config(args, component=g22.format_component(args.component)),
        "summands": {f"M{k}": m for k, m in sorted(ms.items())},
        "cbs": modules22.cbs_check(ms),
    }
    _emit(payload)
    return 0


def cmd_oracle_epsilon(args) -> int:
    seed = _pick_seed(args)
    cfg = SampleConfig(prime=args.prime, count=args.samples, seed=seed)
    # Floor 0, not the closed form, so the estimate stays independent of g22.
    minima, drawn = oracle.sampled_minima(args.component, cfg, {(args.kind, args.i): 0})
    payload = {
        "config": _config(args, component=g22.format_component(args.component),
                          i=args.i, kind=args.kind, samples=args.samples,
                          prime=args.prime, seed=seed),
        "value": minima[args.kind, args.i],
        "samples": drawn,
        "seed": seed,
    }
    _emit(payload)
    return 0


def cmd_binfty_compare(args) -> int:
    for word in (args.word_a, args.word_b):
        if any(color not in args.pattern for _, color in word):
            print("error: word uses a color missing from the pattern", file=sys.stderr)
            return 2
    pattern = binfty.IotaPattern(args.pattern, args.length)
    distinct, xa, xb = binfty.words_distinct(args.word_a, args.word_b, pattern=pattern)
    payload = {
        "config": _config(args, wordA=g22.format_word(args.word_a),
                          wordB=g22.format_word(args.word_b),
                          pattern=list(args.pattern), length=args.length),
        "distinct": distinct,
        "xA": list(xa.entries()),
        "xB": list(xb.entries()),
    }
    _emit(payload)
    return 0


# Each suite's parameter names, which are also the names of its options.
# Read once, at import, so a wrapper put around a suite later (a profiler,
# say) does not hide them.
_SUITE_PARAMETERS = {name: suite.__code__.co_varnames[:suite.__code__.co_argcount]
                     for name, suite in suites.SUITES.items()}


def cmd_verify(args) -> int:
    kwargs = {name: _pick_seed(args) if name == "seed" else getattr(args, name)
              for name in _SUITE_PARAMETERS[args.suite]}
    report = suites.SUITES[args.suite](**kwargs)
    payload = {"config": _config(args, suite=args.suite, **kwargs)}
    payload.update(report)
    _emit(payload)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal-grid",
        description="Crystal operators on components of grid representation varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="breadth-first crystal graph from a seed component")
    p.add_argument("--seed", dest="seed_component", type=_component_arg,
                   default=g22.ZERO_COMPONENT)
    p.add_argument("--bound", type=_nonnegative_int_arg, default=4)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("grid-info", help="vertex/arrow/relation counts and Cartan matrix of a grid")
    p.add_argument("--grid", type=_dims_arg, required=True)
    p.set_defaults(func=cmd_grid_info)

    p = sub.add_parser("an", help="apply an operator word on the chain crystal")
    p.add_argument("--n", type=_positive_int_arg, required=True)
    p.add_argument("--start", type=_dims_arg, required=True)
    p.add_argument("--apply", type=_word_arg, required=True)
    p.set_defaults(func=cmd_an)

    g22_parser = sub.add_parser("g22", help="the 2x2 grid crystal")
    g22_sub = g22_parser.add_subparsers(dest="subcommand", required=True)

    p = g22_sub.add_parser("apply", help="apply an operator word to a component")
    p.add_argument("--start", type=_component_arg, required=True)
    p.add_argument("--word", type=_word_arg, required=True)
    p.set_defaults(func=cmd_g22_apply)

    p = g22_sub.add_parser("components", help="list the components of a dimension vector")
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.set_defaults(func=cmd_g22_components)

    p = g22_sub.add_parser("decomp", help="generic decomposition of a component")
    p.add_argument("--component", type=_component_arg, required=True)
    p.set_defaults(func=cmd_g22_decomp)

    oracle_parser = sub.add_parser("oracle", help="sampling oracle over a prime field")
    oracle_sub = oracle_parser.add_subparsers(dest="subcommand", required=True)

    p = oracle_sub.add_parser("epsilon", help="sampled minimum of a vertex statistic")
    p.add_argument("--component", type=_component_arg, required=True)
    p.add_argument("--i", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--kind", choices=("eps", "eps_star"), default="eps")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle_epsilon)

    binfty_parser = sub.add_parser("binfty", help="ambient sequence model comparisons")
    binfty_sub = binfty_parser.add_subparsers(dest="subcommand", required=True)

    p = binfty_sub.add_parser("compare", help="compare two lowering words from zero")
    p.add_argument("--wordA", dest="word_a", type=_word_arg, required=True)
    p.add_argument("--wordB", dest="word_b", type=_word_arg, required=True)
    p.add_argument("--pattern", type=_pattern_arg, default=binfty.DEFAULT_PATTERN)
    p.add_argument("--length", type=int, default=binfty.DEFAULT_LENGTH,
                   help="at least two pattern periods; the model stores only supports, "
                        "so the value changes no answer")
    p.set_defaults(func=cmd_binfty_compare)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--bound", type=_nonnegative_int_arg, default=8)
    p.add_argument("--max-n", dest="max_n", type=_positive_int_arg, default=5)
    p.add_argument("--max-dim", dest="max_dim", type=_nonnegative_int_arg, default=4)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
