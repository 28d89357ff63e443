"""Command-line driver: a thin, single-threaded layer over the library.

Exit codes: 0 success, 1 validation or input failure, 2 usage error.
All output is deterministic given identical inputs; `--json` switches the
human-readable tables to machine-readable JSON.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

# every subcommand loads a model; each handler imports the rest of what it
# runs, so one process compiles only the modules its subcommand needs
from .model_io import ModelFile, ModelFormatError, _canonical_json, emit_model, load_model


class CliError(Exception):
    pass


def _load(path) -> ModelFile:
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except ModelFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None


def _graph_of(model: ModelFile, path):
    g = model.any_graph
    if g is None:
        raise CliError(f"{path}: file has no graph section")
    return g


def _open_of(model: ModelFile, path):
    if model.open_graph is None:
        raise CliError(f"{path}: file has no open_graph section")
    return model.open_graph


def _emit_json(obj) -> None:
    print(_canonical_json(obj))


def cmd_validate(args) -> int:
    from .algebra import validate_algebra

    failures = 0
    for path in args.files:
        try:
            model = _load(path)
        except CliError as exc:
            print(f"{path}: INVALID\n  {exc}")
            failures += 1
            continue
        problems = []
        # equal algebras, such as a file's table repeated inline in its graph, are checked once
        for algebra in dict.fromkeys(a for a in (model.algebra, getattr(model.any_graph, "algebra", None)) if a):
            report = validate_algebra(algebra)
            if not report.ok:
                problems.append(report.summary())
        if problems:
            print(f"{path}: INVALID")
            for text in problems:
                print("  " + text.replace("\n", "\n  "))
            failures += 1
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def _loop_rows(g, model: ModelFile):
    from .algebra import CATALOG, _coefficient_view
    from .homology import feedback, loop_polarity, simple_loops

    graph, algebra = g.graph, g.algebra
    loops, truncated = simple_loops(graph)
    has_sum = _coefficient_view(algebra) is not None
    is_sign = algebra == CATALOG["SIGN"]
    label_text, edge_ids, names = algebra.label_text, model.edge_ids, graph.vertex_names
    rows = []
    for loop in loops:
        polarity_text = label_text(loop_polarity(loop, g))
        tag = None
        if is_sign:
            tag = "reinforcing" if polarity_text == "+" else "balancing"
        rows.append(
            {
                "edges": [edge_ids[e] for e in loop.edges],
                "vertices": [names[v] for v in loop.vertices(graph)],
                "polarity": polarity_text,
                "feedback": label_text(feedback(loop, g)) if has_sum else None,
                "tag": tag,
            }
        )
    return rows, truncated


def cmd_loops(args) -> int:
    model = _load(args.file)
    g = _graph_of(model, args.file)
    rows, truncated = _loop_rows(g, model)
    if args.json:
        _emit_json({"loops": rows, "truncated": truncated})
        return 0
    print(f"{len(rows)} simple loop class(es)" + (" (truncated)" if truncated else ""))
    for i, row in enumerate(rows):
        cycle = " -> ".join(row["vertices"] + [row["vertices"][0]])
        parts = [f"loop {i}: edges [{', '.join(row['edges'])}]", cycle, f"polarity {row['polarity']}"]
        if row["feedback"] is not None:
            parts.append(f"feedback {row['feedback']}")
        if row["tag"]:
            parts.append(row["tag"])
        print("  " + "; ".join(parts))
    return 0


def cmd_motif(args) -> int:
    from .model_io import _match_groups_json
    from .motifs import MOTIF_NAMES, builtin_motif, find_motif_groups

    host_model = _load(args.host)
    host = _graph_of(host_model, args.host)
    if args.motif in MOTIF_NAMES:
        motif = builtin_motif(args.motif)
    else:
        motif = _graph_of(_load(args.motif), args.motif)
    limits = {key: getattr(args, key) for key in ("max_path_len", "max_results") if getattr(args, key) is not None}
    # one group per vertex assignment: its matches are the product of its
    # walk lists, written out without a record per match
    groups, truncated = find_motif_groups(motif, host, **limits)
    if args.json:
        # every walk chosen for motif edge e grades to the motif's label on e
        print(_match_groups_json(groups, [host.algebra.label_text(x) for x in motif.labels], truncated))
        return 0
    total = sum(count for _, _, count in groups)
    lines = [f"{total} match(es)" + (" (truncated)" if truncated else "")]
    motif_names, host_names, edge_ids = motif.graph.vertex_names, host.graph.vertex_names, host_model.edge_ids
    walk_texts: dict[int, list[str]] = {}  # id of a walk list -> its walks' texts
    for vertex_map, walks, count in groups:
        vertices = ", ".join(f"{motif_names[v]} -> {host_names[w]}" for v, w in enumerate(vertex_map))
        for listed in walks:
            if id(listed) not in walk_texts:
                walk_texts[id(listed)] = ["[" + ", ".join([edge_ids[e] for e in walk]) + "]" for walk in listed]
        combos = itertools.islice(itertools.product(*[walk_texts[id(listed)] for listed in walks]), count)
        first = len(lines) - 1
        lines.extend(f"  match {first + i}: {vertices}; paths {', '.join(combo)}" for i, combo in enumerate(combos))
    print("\n".join(lines))
    return 0


def _two_open_inputs(args):
    """Exactly two inputs: LEFT RIGHT, or --left and --right with no positional."""
    flags = [path for path in (args.left, args.right) if path is not None]
    if len(flags) == 1 or len(flags + args.inputs) != 2:
        raise CliError("need two open graphs: positional LEFT RIGHT or --left/--right")
    left_path, right_path = flags + args.inputs
    left = _open_of(_load(left_path), left_path)
    right = _open_of(_load(right_path), right_path)
    return left, right


def cmd_combine(args) -> int:
    from .open_graphs import compose, tensor

    left, right = _two_open_inputs(args)
    combine = compose if args.command == "compose" else tensor
    result = combine(left, right)
    _write(args.out, emit_model(ModelFile(open_graph=result)))
    print(
        f"wrote {args.out}: {result.inner.graph.n_vertices} vertices, "
        f"{result.inner.graph.n_edges} edges"
    )
    return 0


def cmd_homology(args) -> int:
    from .algebra import _coefficient_view
    from .homology import find_relations, h0, simple_loops

    model = _load(args.file)
    g = _graph_of(model, args.file)
    loops, truncated = simple_loops(g.graph)
    relations = find_relations(loops, args.bound)
    zeroth = h0(g.graph, g.algebra) if _coefficient_view(g.algebra) is not None else None

    def loop_term(vector):
        return " + ".join(
            (f"{c}*" if c > 1 else "") + f"g{i}" for i, c in enumerate(vector) if c
        ) or "0"

    if args.json:
        _emit_json(
            {
                "h0_components": zeroth.count if zeroth else None,
                "generators": [[model.edge_ids[e] for e in loop.edges] for loop in loops],
                "relations": [
                    {"lhs": list(r.lhs), "rhs": list(r.rhs)} for r in relations
                ],
                "truncated": truncated,
            }
        )
        return 0
    if zeroth:
        print(f"h0: {zeroth.description}")
    print(f"h1 generators ({len(loops)} simple loop class(es))" + (" (truncated)" if truncated else "") + ":")
    for i, loop in enumerate(loops):
        print(f"  g{i}: [{', '.join(model.edge_ids[e] for e in loop.edges)}]")
    print(f"relations at coefficient bound {args.bound}: {len(relations)}")
    for r in relations:
        print(f"  {loop_term(r.lhs)} = {loop_term(r.rhs)}")
    return 0


def cmd_emergence(args) -> int:
    from .emergence import emergence_report, format_word, glue

    left = _open_of(_load(args.left), args.left)
    right = _open_of(_load(args.right), args.right)
    glued = glue(left, right)
    report = emergence_report(glued)
    algebra = glued.composite.algebra
    # the glued composite is in no file, so its edges have no file ids:
    # e<i> is its i-th edge, the left graph's edges first, in file order
    rows = [
        {
            "edges": [f"e{e}" for e in row.loop.edges],
            "vertices": [glued.composite.graph.vertex_names[v] for v in row.loop.vertices(glued.composite.graph)],
            "status": "inherited" if row.inherited else "emergent",
            "grade_word": row.word,
            "polarity": algebra.label_text(row.polarity),
        }
        for row in report.rows
    ]
    if args.json:
        _emit_json(
            {
                "loops": rows,
                "inherited": report.inherited_count,
                "emergent": report.emergent_count,
                "truncated": report.truncated,
            }
        )
        return 0
    print(
        f"{len(rows)} loop(s): {report.emergent_count} emergent, "
        f"{report.inherited_count} inherited" + (" (truncated)" if report.truncated else "")
    )
    for row in rows:
        cycle = " -> ".join(row["vertices"] + [row["vertices"][0]])
        print(
            f"  [{row['status']}] {cycle}; word {format_word(row['grade_word'])}; "
            f"polarity {row['polarity']}"
        )
    return 0


def _resolve_hom(args, g):
    from .algebra import MonoidHom, collapse_hom, sign_hom, sign_section, validate_hom
    from .model_io import parse_algebra

    if args.hom:
        if args.hom == "collapse":
            return collapse_hom(g.algebra)
        named = {"sign": sign_hom, "sign-section": sign_section}
        if args.hom in named:
            return named[args.hom]()
        raise CliError(f"unknown hom {args.hom!r}; known: collapse, sign, sign-section")
    try:
        with open(args.hom_file, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object with keys source, target and map")
        keys = ("source", "target", "map")
        missing = [key for key in keys if key not in obj]
        if missing:
            raise ValueError(f"missing keys {missing}")
        unknown = sorted(obj.keys() - set(keys))
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        if not isinstance(obj["map"], list):
            raise ValueError("map must be a JSON list of target elements")
        source = parse_algebra(obj["source"])
        target = parse_algebra(obj["target"])
        mapping = tuple(target.parse_label(v) for v in obj["map"])
        hom = MonoidHom(source, target, mapping=mapping, name="from-file")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad hom file: {exc}") from None
    except RecursionError:
        raise CliError("bad hom file: nested too deeply to decode") from None
    report = validate_hom(hom)  # exhaustive over the finite source
    if not report.ok:
        first = report.violations[0]
        raise CliError(f"bad hom file: [{first.kind}/{first.code}] {first.message}")
    return hom


def cmd_change_labels(args) -> int:
    from .graphs import change_labels

    model = _load(args.file)
    g = _graph_of(model, args.file)
    hom = _resolve_hom(args, g)
    relabeled = change_labels(hom, g)
    out_model = ModelFile(
        graph=relabeled, vertex_ids=model.vertex_ids, edge_ids=model.edge_ids
    )
    _write(args.out, emit_model(out_model))
    print(f"wrote {args.out}")
    return 0


def cmd_decompose(args) -> int:
    from .homology import decompose_cycle, nat_chain

    model = _load(args.file)
    g = _graph_of(model, args.file)
    try:
        raw = json.loads(args.chain)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad --chain JSON: {exc.msg}") from None
    except RecursionError:
        raise CliError("bad --chain JSON: nested too deeply to decode") from None
    if not isinstance(raw, dict):
        raise CliError("--chain must be a JSON object of edge id -> coefficient")
    edge_index = {eid: e for e, eid in enumerate(model.edge_ids)}
    coeffs = {}
    for eid, value in raw.items():
        if eid not in edge_index:
            raise CliError(f"unknown edge id {eid!r} in --chain")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CliError(f"coefficient of {eid!r} must be a natural number")
        coeffs[edge_index[eid]] = value
    parts = decompose_cycle(nat_chain(coeffs), g.graph)
    rows = [[model.edge_ids[e] for e in loop.edges] for loop in parts]
    if args.json:
        _emit_json({"parts": rows})
        return 0
    print(f"{len(rows)} loop(s) in the decomposition")
    for row in rows:
        print(f"  [{', '.join(row)}]")
    return 0


def cmd_export_dot(args) -> int:
    from .model_io import export_dot

    text = export_dot(_graph_of(_load(args.file), args.file))
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monograph", description="Analyze graphs with monoid-labeled edges."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check files against schema and algebra axioms")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("loops", help="simple loop classes with polarity and feedback")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("motif", help="find motif occurrences in a host graph")
    p.add_argument("--motif", required=True, help="builtin motif name or a model file")
    p.add_argument("--host", required=True)
    # no defaults here: an option not given keeps find_motif_groups' own default
    p.add_argument("--max-path-len", type=int)
    p.add_argument("--max-results", type=int)
    p.add_argument("--json", action="store_true")

    for name, helptext in (
        ("compose", "glue two open graphs output-to-input"),
        ("tensor", "set two open graphs side by side"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("inputs", nargs="*", metavar="FILE")
        p.add_argument("--left")
        p.add_argument("--right")
        p.add_argument("--out", required=True)

    p = sub.add_parser("homology", help="components, loop generators and relations")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("emergence", help="tag composite loops inherited or emergent")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("change-labels", help="relabel a graph through a homomorphism")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hom", help="collapse, sign, or sign-section")
    group.add_argument("--hom-file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose", help="split a circulation into simple loops")
    p.add_argument("file")
    p.add_argument("--chain", required=True, help='JSON object: {"edge id": coefficient}')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export-dot", help="emit Graphviz text")
    p.add_argument("file")
    p.add_argument("--out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first `main()` call and reused by the rest:
    parsing leaves no state in it."""
    return build_parser()


def _handler(command: str):
    """The function that runs `command`, looked up when it runs: the parser
    holds no function, so a module function rebound after the parser was
    built (as a tracer does) is the one called."""
    name = "combine" if command in ("compose", "tensor") else command.replace("-", "_")
    return globals()["cmd_" + name]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the one place where a failure becomes an `error:` line: ValueError
    # covers the library's input checks, ModelFormatError and JSONDecodeError
    try:
        status = _handler(args.command)(args)
        # a reader that left shows here, inside the try, not at exit
        sys.stdout.flush()
        return status
    except (CliError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
