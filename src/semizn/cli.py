"""Command-line surface.

Commands:
  check group|identity|inverse INSTANCE   decision procedures (exit 0/1/2)
  graph word INSTANCE --word "1 2 ..."    trace a word's graph
  graph analyze GRAPH                     structural report
  euler-close GRAPH                       union of translations, Eulerian
  syzygy INSTANCE                         relation-module generators
  frontend METABELIAN                     metabelian presentation -> instance
  verify WITNESS INSTANCE                 re-check an emitted witness

Exit status: 0 = yes/success, 1 = no/invalid, 2 = unknown, 64 = usage,
65 = malformed input, 70 = internal error (an exception no other status
covers, a failed self-check included: one `error: internal:` line on
stderr and nothing on stdout).  All structured output is canonical JSON on
stdout.
"""
from __future__ import annotations

import argparse
import json
import sys

from semizn import jsonio, positions
from semizn.closure import ClosureBudgetError, ClosurePreconditionError, eulerian_closure
from semizn.decide import (Budget, decide_group, decide_identity, decide_inverse,
                           verify_witness)
from semizn.geometry import is_face_accessible
from semizn.ggraph import graph_of_word
from semizn.group import magnus_frontend
from semizn.jsonio import FormatError

USAGE_EXIT = 64
DATA_EXIT = 65
SOFTWARE_EXIT = 70  # EX_SOFTWARE: never read as a verdict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _data_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(DATA_EXIT)


def _read(path: str, parse, *args):
    """parse(document, *args) of the JSON file at `path`; a file that cannot
    be read, parsed or decoded ends the run with one error line, exit 65."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _data_error(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _data_error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (UnicodeDecodeError, RecursionError) as exc:  # bad UTF-8, or nested past the depth limit
        _data_error(f"{path}: {exc}")
    except ValueError:  # the reader's int() stops at Python's digit limit
        _data_error(f"{path}: integer over {sys.get_int_max_str_digits():,} digits")
    try:
        return parse(doc, *args)
    except FormatError as exc:
        _data_error(f"{path}: {exc}")


def _load_instance(path: str):
    """The instance at `path`, checked against its module's gens_M if given."""
    gens = _read(path, jsonio.instance_from_json)
    try:
        gens.presentation.validate_strict(extra_vectors=[list(g.y) for g in gens.elements])
    except ValueError as exc:
        _data_error(f"{path}: module.gens_M: {exc}")
    return gens


def _budget(args) -> Budget:
    return Budget(
        degree=args.budget_degree,
        samples=args.samples,
        closure_n=args.closure_n,
        timeout=args.timeout,
    )


def _emit(doc):
    sys.stdout.write(jsonio.dumps(doc))


def _add_budget_flags(p):
    default = Budget()
    p.add_argument("--budget-degree", type=int, default=default.degree)
    p.add_argument("--samples", type=int, default=default.samples)
    p.add_argument("--closure-n", type=int, default=default.closure_n)
    p.add_argument("--timeout", type=float, default=default.timeout)
    p.add_argument("--certificate", action="store_true",
                   help="include per-face detail in reports")


def build_parser() -> _Parser:
    parser = _Parser(prog="semizn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decision procedures")
    p_check.add_argument("problem", choices=["group", "identity", "inverse"])
    p_check.add_argument("instance")
    p_check.add_argument("--target", type=int, default=1,
                         help="1-based generator index for the inverse problem")
    _add_budget_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_graph = sub.add_parser("graph", help="graph construction and analysis")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_word = graph_sub.add_parser("word")
    p_word.add_argument("instance")
    p_word.add_argument("--word", required=True, help='letters, e.g. "1 2 2 3"')
    p_word.add_argument("--dot", help="also write DOT to this path")
    p_word.set_defaults(func=_cmd_graph_word)
    p_analyze = graph_sub.add_parser("analyze")
    p_analyze.add_argument("graph")
    p_analyze.add_argument("--certificate", action="store_true")
    p_analyze.set_defaults(func=_cmd_graph_analyze)

    p_close = sub.add_parser("euler-close", help="Eulerian union of translations")
    p_close.add_argument("graph")
    p_close.add_argument("--max-n", type=int, default=Budget().closure_n)
    p_close.add_argument("--dot", help="also write the union's DOT to this path")
    p_close.set_defaults(func=_cmd_euler_close)

    p_syz = sub.add_parser("syzygy", help="relation-module generators")
    p_syz.add_argument("instance")
    p_syz.set_defaults(func=_cmd_syzygy)

    p_front = sub.add_parser("frontend", help="metabelian presentation -> instance")
    p_front.add_argument("presentation")
    p_front.add_argument("-o", "--output", help="write the instance here instead of stdout")
    p_front.set_defaults(func=_cmd_frontend)

    p_verify = sub.add_parser("verify", help="re-check a witness document")
    p_verify.add_argument("witness")
    p_verify.add_argument("instance")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _cmd_check(args) -> int:
    gens = _load_instance(args.instance)
    try:
        budget = _budget(args)
        if args.problem == "inverse" and not 1 <= args.target <= gens.K:
            raise ValueError(f"target index {args.target} out of range 1..{gens.K}")
    except ValueError as exc:  # a negative budget, or --target outside 1..K
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.problem == "group":
        verdict = decide_group(gens, budget)
    elif args.problem == "identity":
        verdict = decide_identity(gens, budget)
    else:
        verdict = decide_inverse(gens, args.target, budget)
    if args.certificate and verdict.kind == "yes":
        _, verdict.witness["escape_cells"] = positions.check_escape_condition(
            verdict.witness["positions"], verdict.witness["graph"].steps)
    _emit(jsonio.verdict_to_json(verdict))
    return verdict.exit_code


def _cmd_graph_word(args) -> int:
    gens = _load_instance(args.instance)
    try:
        word = [int(tok) for tok in args.word.split()]
    except ValueError:
        print("error: --word must be space-separated integers", file=sys.stderr)
        return USAGE_EXIT
    try:
        graph = graph_of_word(gens, word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    element = graph.represented_element(gens)
    doc = jsonio.graph_to_json(graph)
    doc["represents"] = {
        "y": jsonio.vector_to_json(element.y),
        "a": list(element.a),
    }
    _emit(doc)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
    return 0


def _cmd_graph_analyze(args) -> int:
    graph = _read(args.graph, jsonio.graph_from_json)
    accessible, report = is_face_accessible(graph)
    doc = {
        "symmetric": graph.is_symmetric(),
        "full_image": graph.is_full_image(),
        "face_accessible": accessible,
        "zn_generating": graph.is_zn_generating(),
        "inaccessible_faces": [r for r in report if not r["accessible"]],
    }
    if args.certificate:
        doc["faces"] = report
        fs = positions.position_polynomials(graph)
        doc["position_polynomials"] = [jsonio.poly_to_json(f) for f in fs]
    _emit(doc)
    return 0


def _cmd_euler_close(args) -> int:
    graph = _read(args.graph, jsonio.graph_from_json)
    if args.max_n < 0:
        print(f"error: max_n must be nonnegative, got {args.max_n}", file=sys.stderr)
        return USAGE_EXIT
    try:
        result = eulerian_closure(graph, max_n=args.max_n)
    except ClosurePreconditionError as exc:
        _emit({"error": "precondition", "failed": exc.failed, "report": exc.report})
        return 1
    except ClosureBudgetError as exc:
        _emit({"error": "budget", "max_n": exc.max_n})
        return 2
    _emit({
        "N": result.N,
        "translations": [list(z) for z in result.translations],
        "union": jsonio.graph_to_json(result.union),
    })
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(result.union.to_dot())
    return 0


def _cmd_syzygy(args) -> int:
    from semizn.algebra import syzygy_basis

    gens = _load_instance(args.instance)
    basis = syzygy_basis(gens.presentation, gens.ys, gens.steps)
    _emit({
        "K": basis.K,
        "generators": [[jsonio.poly_to_json(p) for p in g] for g in basis.generators],
    })
    return 0


def _cmd_frontend(args) -> int:
    pres, gen_words = _read(args.presentation, jsonio.metabelian_from_json)
    try:
        _, gens = magnus_frontend(pres, gen_words)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    doc = jsonio.instance_to_json(gens)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(doc))
    else:
        _emit(doc)
    return 0


def _cmd_verify(args) -> int:
    gens = _load_instance(args.instance)
    witness = _read(args.witness, jsonio.witness_from_json, gens)
    ok = verify_witness(witness, gens)
    _emit({"valid": ok})
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 1 would read as `no`
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return SOFTWARE_EXIT


if __name__ == "__main__":
    sys.exit(main())
