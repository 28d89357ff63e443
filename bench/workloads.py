"""The three workloads as seeded streams of operations.

An operation is one in-process `monograph.cli.main(argv)` call, or one
library certificate call where the CLI has no subcommand for the task.
`build(name, rng, workdir, smoke)` writes every input file under the
working directory and returns the stream of one round; paths in argv are
relative to that directory, so stdout does not depend on where it lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import monograph as mg

import gen
import oracle
from gen import Spec


@dataclass
class Op:
    """One operation: `argv` for the CLI, or a certificate `call`.

    `check(code, stdout)` returns None when the output verifies; for a
    certificate, `code` is the call's return value.  `family` and `size`
    place the operation in the growth report and the per-family trace.
    """

    kind: str
    check: Callable
    argv: Optional[list[str]] = None
    call: Optional[tuple[str, tuple]] = None
    family: str = ""
    size: int = 0
    info: dict = field(default_factory=dict)


def cert(name: str, args: tuple, expected_check: Callable, **kw) -> Op:
    """A library certificate call, looked up on the package at call time so
    the traced run sees the wrapped function."""
    return Op(name, lambda result, _out: expected_check(result), call=(name, args), **kw)


def interleave(rng: random.Random, groups: list[list[Op]]) -> list[Op]:
    """A seeded merge of the groups that keeps each group's own order."""
    pending = [list(g) for g in groups if g]
    stream = []
    while pending:
        weights = [len(g) for g in pending]
        g = rng.choices(pending, weights)[0]
        stream.append(g.pop(0))
        pending = [g for g in pending if g]
    return stream


def sign_graph(spec: Spec) -> mg.LabeledGraph:
    return mg.labeled_graph([f"v{i}" for i in range(spec.n)], list(zip(spec.src, spec.tgt)), mg.CATALOG["SIGN"], spec.labels)


def spec_of(g: mg.LabeledGraph, path: str = "") -> Spec:
    """The benchmark's view of a library graph: plain arrays and label texts."""
    labels = [g.algebra.label_text(x) for x in g.labels]
    return Spec(path, g.graph.n_vertices, list(g.graph.edge_src), list(g.graph.edge_tgt), labels)


def motif_spec(name: str) -> Spec:
    return spec_of(mg.builtin_motif(name), name)


# ------------------------------------------------------------------ loops-cld


def _circulation(rng: random.Random, loops: list[tuple[int, ...]]) -> dict[int, int]:
    chain: dict[int, int] = {}
    for loop in rng.sample(loops, min(len(loops), 4)):
        times = rng.randint(1, 3)
        for e in loop:
            chain[e] = chain.get(e, 0) + times
    return chain


def _decompose_op(spec: Spec, chain: dict[int, int]) -> Op:
    text = json.dumps({f"e{e}": c for e, c in sorted(chain.items())})
    return Op(
        "decompose",
        lambda code, out: oracle.check_decompose(spec, chain, code, out),
        argv=["decompose", spec.path, "--chain", text, "--json"],
        family=spec.family,
        size=spec.n,
    )


def _loop_ops(spec: Spec, bounds: tuple[int, ...], loops: int) -> list[Op]:
    ops = [
        Op(
            "loops",
            lambda code, out: oracle.check_loops(spec, code, out),
            argv=["loops", spec.path, "--json"],
            family=spec.family,
            size=spec.n,
        )
    ]
    for b in bounds:
        ops.append(
            Op(
                "homology",
                lambda code, out, b=b: oracle.check_homology(spec, b, code, out),
                argv=["homology", spec.path, "--bound", str(b), "--json"],
                family=spec.family,
                size=spec.n,
                info={"loops": loops, "bound": b},
            )
        )
    return ops


def pinned_cld(rng: random.Random, path: str, n: int, loops: int, total: int):
    """A random CLD whose loops have `total` edges between them.  Relation
    search cost and memory grow with that total, so pinning it (to the
    family's median) keeps each operation's cost alike across seeds."""
    while True:
        spec = gen.random_cld(rng, path, n, loops)
        found = sorted(oracle.loop_set(spec.n, spec.src, spec.tgt))
        if sum(map(len, found)) == total:
            return spec, found


# (V, loops k, total loop edges, relation bound, replicates): E = 2V.
# (b+1)^k stays far below the relation guard of 10^6 and each search near
# or under 300 ms.  The seven k = 9 searches at bound 2 cost alike and sit
# at the 90th percentile of the stream's 100 operations, so op_p90_ms
# reads a plateau.
CLD_SIZES = [(10, 8, 30, 1, 2), (14, 10, 44, 1, 2), (18, 11, 53, 1, 2), (22, 12, 62, 1, 2), (26, 12, 68, 1, 2),
             (30, 13, 75, 1, 2), (34, 13, 78, 1, 2), (40, 14, 90, 1, 2), (12, 6, 21, 2, 2), (20, 8, 35, 2, 2),
             (28, 9, 45, 2, 7)]
# complete DAG plus one back edge: one loop, ~2^V dead-end paths at seed
DAG_SIZES = [12, 14, 16, 17, 18, 19, 20]
DAG_HOMOLOGY = {16, 18, 20}
# rings past ~990 vertices exceed the interpreter's recursion limit at seed
RING_SIZES = [16, 128, 600, 1500]
RING_HOMOLOGY = {128, 1500}
RING_DECOMPOSE = {128, 600, 1500}

SMOKE_CLD = [(8, 4, 14, 2, 1), (12, 6, 21, 1, 1)]
SMOKE_DAG = [8, 10]
SMOKE_RING = [8, 1500]


def loops_cld(rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    groups = []
    slots = [slot[:4] for slot in (SMOKE_CLD if smoke else CLD_SIZES) for _ in range(slot[4])]
    for i, (n, k, total, bound) in enumerate(slots):
        spec, loops = pinned_cld(rng, f"cld-{i}-{n}.json", n, k, total)
        gen.write_graph(workdir, spec)
        ops = _loop_ops(spec, (bound,), k)
        ops.append(_decompose_op(spec, _circulation(rng, loops)))
        groups.append(ops)
    for n in SMOKE_DAG if smoke else DAG_SIZES:
        spec = gen.write_graph(workdir, gen.dag_plus_back_edge(rng, f"dag-{n}.json", n))
        groups.append(_loop_ops(spec, (1,) if n in DAG_HOMOLOGY or smoke else (), 1))
    for n in SMOKE_RING if smoke else RING_SIZES:
        spec = gen.write_graph(workdir, gen.directed_ring(rng, f"ring-{n}.json", n))
        ops = _loop_ops(spec, (2,) if n in RING_HOMOLOGY or smoke else (), 1)
        if n in RING_DECOMPOSE or smoke:
            ops.append(_decompose_op(spec, {e: 2 for e in range(n)}))
        groups.append(ops)
    return interleave(rng, groups)


# ------------------------------------------------------------------ motif-scan

# branch-pm at L = 3 on one host of each size: the growth series
GROWTH_HOSTS = [6, 8, 10, 15, 20, 25, 30]
# every slot below runs on three hosts of each size, so each slot's cost
# forms a cluster of alike values and the percentiles do not sit in gaps;
# the motif of a slot cycles through its names from host to host
SLOT_HOSTS = [6, 8, 10, 12, 15, 20]
SLOT_REPLICATES = 3
# ten alike searches on hosts of 20 vertices; with the slots' heavier
# searches they form a plateau around the 90th percentile of the stream
PLATEAU = ("gate-pm", 1, 20, 10)
SMOKE_GROWTH, SMOKE_SLOT_HOSTS = [5, 7], [6]
# hosts up to this size are also checked against the exhaustive test oracle
ORACLE_HOST_LIMIT = 8
MAX_RESULTS = 10000
# (catalog names to cycle through, path length)
MOTIF_SLOTS = [
    (("branch-pp", "branch-mm", "gate-pp", "gate-pm", "gate-mm"), 2),
    (("branch-pp", "branch-pm", "branch-mm", "gate-pp", "gate-pm", "gate-mm"), 1),
    (("positive-feedback-loop", "negative-feedback-loop", "double-negative-feedback-loop"), 3),
    (("coherent-feedforward", "incoherent-feedforward", "double-negative-feedforward"), 2),
    (("positive-stimulation", "negative-stimulation"), 3),
    (("positive-autoregulation", "negative-autoregulation"), 3),
    (("positive-autoregulation", "negative-autoregulation"), 1),
]


def _oracle_set(name: str, host: Spec, max_len: int):
    from helpers import oracle_motif_occurrences

    return oracle_motif_occurrences(mg.builtin_motif(name), sign_graph(host), max_len)


def _sample_match(rng: random.Random, motif: Spec, host: Spec, max_len: int):
    """A random occurrence drawn from the benchmark's own walk lists."""
    tables = {}
    for _ in range(2000):
        vmap = [rng.randrange(host.n) for _ in range(motif.n)]
        paths = []
        for s, t, label in zip(motif.src, motif.tgt, motif.labels):
            start = vmap[s]
            if start not in tables:
                tables[start] = oracle.walks(host, start, max_len)
            fits = [
                w for w in tables[start]
                if oracle.walk_end(host, start, w) == vmap[t] and oracle.sign_product(host.labels[x] for x in w) == label
            ]
            if not fits:
                break
            paths.append(rng.choice(fits))
        else:
            return vmap, paths
    return None


def _kleisli_certs(rng: random.Random, name: str, host: Spec, host_graph, max_len: int) -> list[Op]:
    motif = motif_spec(name)
    found = _sample_match(rng, motif, host, max_len)
    if found is None:
        return []
    vmap, paths = found
    ops = []
    # the sampled match, then the same match with one edge sent to the empty
    # path at its source, on an edge where that path cannot fit
    misfits = [e for e in range(motif.n_edges) if vmap[motif.src[e]] != vmap[motif.tgt[e]] or motif.labels[e] == "-"]
    for bad in [None] + rng.sample(misfits, min(1, len(misfits))):
        images = list(paths)
        expected = (True, None)
        if bad is not None:
            images[bad] = ()
            expected = (False, bad)
        k = mg.KleisliMorphism(
            mg.builtin_motif(name),
            host_graph,
            tuple(vmap),
            tuple(mg.Path(vmap[motif.src[e]], tuple(images[e])) for e in range(motif.n_edges)),
        )
        ops.append(
            cert("is_kleisli_morphism", (k,), lambda r, x=expected: oracle.check_result(x, r), family="host", size=host.n)
        )
    return ops


def _motif_op(name: str, host: Spec, max_len: int) -> Op:
    motif = motif_spec(name)
    exact = (lambda: _oracle_set(name, host, max_len)) if host.n <= ORACLE_HOST_LIMIT else None
    return Op(
        "motif",
        lambda code, out: oracle.check_motif(motif, host, max_len, MAX_RESULTS, code, out, exact),
        argv=["motif", "--motif", name, "--host", host.path, "--max-path-len", str(max_len), "--json"],
        family="host",
        size=host.n,
        info={"motif": name, "max_len": max_len},
    )


def motif_scan(rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    groups = []
    hosts = [(n, True) for n in (SMOKE_GROWTH if smoke else GROWTH_HOSTS)]
    hosts += [(n, False) for n in (SMOKE_SLOT_HOSTS if smoke else SLOT_HOSTS) for _ in range(1 if smoke else SLOT_REPLICATES)]
    plateau_motif, plateau_len, plateau_n, plateau_count = PLATEAU
    hosts += [(plateau_n, None) for _ in range(0 if smoke else plateau_count)]
    for i, (n, growth) in enumerate(hosts):
        host = gen.write_graph(workdir, gen.random_host(rng, f"host-{i}-{n}.json", n))
        if growth is None:
            ops = [_motif_op(plateau_motif, host, plateau_len)]
        elif growth:
            ops = [_motif_op("branch-pm", host, 3)]
            ops += _kleisli_certs(rng, rng.choice(["branch-pp", "gate-pm", "negative-feedback-loop"]), host, sign_graph(host), 3)
        else:
            # a fixed motif per host keeps the mix of motifs, and so the
            # stream's cost, the same on every seed
            ops = [_motif_op(names[i % len(names)], host, max_len) for names, max_len in MOTIF_SLOTS]
        groups.append(ops)
    return interleave(rng, groups)


# -------------------------------------------------------------- model-pipeline

# 100 operations per round, so that ten lie beyond the 90th percentile
CHAIN_LENGTH = 9
TENSOR_LENGTH = 5
GLUE_PAIRS = 24
RELABEL_SIZES = [20, 40, 80]
ASSOC_TRIPLES = 8
SIXTEEN_TABLES = 20


def _open_chain(rng: random.Random, workdir: Path, prefix: str, count: int, max_vertices: int = 7) -> list[Spec]:
    feet = [[f"{prefix}{i}_{j}" for j in range(rng.randint(1, 3))] for i in range(count + 1)]
    return [
        gen.write_open(
            workdir,
            gen.random_open(
                rng, f"{prefix}{i}.json", feet[i], feet[i + 1], rng.randint(3, max_vertices), rng.randint(max_vertices - 2, 2 * max_vertices - 5)
            ),
        )
        for i in range(count)
    ]


def _open_graph(spec: Spec) -> mg.OpenGraph:
    x = spec.extra
    return mg.OpenGraph(sign_graph(spec), tuple(x["left"]), tuple(x["right"]), tuple(x["leg_in"]), tuple(x["leg_out"]))


def _chain_ops(kind: str, parts: list[Spec], combine) -> list[Op]:
    """compose/tensor chains: each step reads back the previous step's file."""
    ops = []
    acc = parts[0]
    for i, nxt in enumerate(parts[1:], 1):
        expected = combine(acc, nxt, f"{kind}-{parts[0].path[:-5]}-{i}.json")
        ops.append(
            Op(
                kind,
                lambda code, out, x=expected: oracle.check_open_out(x, code, out),
                argv=[kind, acc.path, nxt.path, "--out", expected.path],
                family="open",
                size=expected.n_edges,
            )
        )
        acc = expected
    return ops


def _algebra_tables(rng: random.Random, smoke: bool) -> list[gen.Table]:
    """Product and subset-rig tables of fixed sizes 4 to 32, plus broken
    copies of the small ones.  The twenty 16-element rigs cost alike and
    the 90th percentile of the stream falls amid them, so op_p90_ms reads
    a plateau."""
    c2, c3 = gen.cyclic_group(2), gen.cyclic_group(3)
    if smoke:
        return [gen.product_table(c2, gen.capped_sum(2)), gen.break_table(rng, gen.subset_rig(c2))]
    base3 = [c3, gen.capped_sum(3), gen.left_zero(2)]
    base4 = [gen.cyclic_group(4), gen.capped_sum(4), gen.left_zero(3)]
    base5 = [gen.cyclic_group(5), gen.capped_sum(5), gen.left_zero(4)]
    small = [
        gen.product_table(rng.choice([c2, gen.capped_sum(2)]), rng.choice([c2, gen.boolean_rig()])),
        gen.product_table(gen.boolean_rig(), gen.subset_rig(c2)),
        gen.subset_rig(rng.choice(base3)),
        gen.product_table(rng.choice([c2, gen.capped_sum(2)]), rng.choice([gen.cyclic_group(4), gen.capped_sum(4)])),
    ]
    kinds = [
        lambda: gen.subset_rig(rng.choice(base4)),
        lambda: gen.subset_rig(rng.choice(base4)),
        lambda: gen.product_table(gen.subset_rig(rng.choice(base3)), gen.boolean_rig()),
        lambda: gen.product_table(gen.subset_rig(c2), gen.subset_rig(rng.choice([c2, gen.capped_sum(2)]))),
    ]
    sixteen = [kinds[i % len(kinds)]() for i in range(SIXTEEN_TABLES)]
    broken = [gen.break_table(rng, t) for t in small[:3]]
    return small + sixteen + [gen.subset_rig(rng.choice(base5))] + broken


def _glue_pair(rng: random.Random, workdir: Path, i: int) -> tuple[Spec, Spec]:
    shared = [f"s{j}" for j in range(rng.randint(1, 3))]
    n_x, n_y = rng.randint(len(shared), 5), rng.randint(len(shared), 5)
    x = gen.write_open(workdir, gen.random_open(rng, f"glue-{i}-x.json", [], shared, n_x, rng.randint(2, 6)))
    y = gen.write_open(workdir, gen.random_open(rng, f"glue-{i}-y.json", shared, [], n_y, rng.randint(2, 6)))
    return x, y


def _certificate_ops(rng: random.Random, workdir: Path, count: int) -> list[Op]:
    """iso_check on the two bracketings of a triple composite, and the
    label-preserving and additive checks on the map from X (x) Y onto X ; Y."""
    ops = []
    for i in range(count):
        # three parts of at most 4 vertices keep the composite within iso_check's limit of 12
        x, y, z = _open_chain(rng, workdir, f"t{i}-", 3, max_vertices=4)
        ox, oy, oz = (_open_graph(s) for s in (x, y, z))
        left = mg.compose(mg.compose(ox, oy), oz).inner
        right = mg.compose(ox, mg.compose(oy, oz)).inner
        a, b = spec_of(left), spec_of(right)
        ops.append(cert("iso_check", (left, right), lambda r, a=a, b=b: oracle.check_iso(a, b, r), family="open", size=a.n))

        glued, side_by_side = oracle.pushout(x, y, ""), oracle.disjoint_union(x, y, "")
        f0, f1 = tuple(glued.extra["vmap"]), tuple(range(glued.n_edges))
        src_graph = sign_graph(side_by_side)
        dst_labels = list(glued.labels)
        if i % 2:  # flip one target label so both checks must find the witness
            j = rng.randrange(len(dst_labels))
            dst_labels[j] = "-" if dst_labels[j] == "+" else "+"
        dst_spec = Spec("", glued.n, glued.src, glued.tgt, dst_labels)
        dst_graph = sign_graph(dst_spec)
        m = mg.GraphMorphism(src_graph.graph, dst_graph.graph, f0, f1)
        lp = oracle.expected_label_preserving(list(f1), side_by_side.labels, dst_labels)
        ad = oracle.expected_additive(list(f1), side_by_side.labels, dst_labels)
        ops.append(cert("is_label_preserving", (m, src_graph, dst_graph), lambda r, x=lp: oracle.check_result(x, r), family="open", size=glued.n))
        ops.append(
            cert(
                "is_additive_morphism",
                (mg.AdditiveMorphism(m, src_graph, dst_graph),),
                lambda r, x=ad: oracle.check_result(x, r),
                family="open",
                size=glued.n,
            )
        )
    return ops


def model_pipeline(rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    groups = []
    chain = _open_chain(rng, workdir, "x", 3 if smoke else CHAIN_LENGTH)
    groups.append(_chain_ops("compose", chain, oracle.pushout))
    groups.append(_chain_ops("tensor", chain[: 2 if smoke else TENSOR_LENGTH], oracle.disjoint_union))

    for i, table in enumerate(_algebra_tables(rng, smoke)):
        path = f"algebra-{i}.json"
        gen.write_json(workdir, path, {"format": 1, "algebra": gen.algebra_json(table)})
        groups.append([Op("validate", lambda code, out, p=path, t=table: oracle.check_validate(p, t, code, out), argv=["validate", path], family="algebra", size=table.size)])

    sign_map = {"+": 1, "-": 1}
    section_map = {"+": 1, "0": 0, "-": -1}
    for n in RELABEL_SIZES[:1] if smoke else RELABEL_SIZES:
        spec = gen.write_graph(workdir, gen.random_host(rng, f"cld-{n}.json", n))
        spec0 = gen.random_host(rng, f"cld0-{n}.json", n)
        spec0.algebra, spec0.labels = "SIGN0", [rng.choice(gen.SIGN0_LABELS) for _ in spec0.labels]
        gen.write_graph(workdir, spec0)
        for s, hom, target, mapping in ((spec, "collapse", "TrivialOne", sign_map), (spec0, "sign-section", "RatMulMonoid", section_map)):
            out_path = f"relabeled-{hom}-{n}.json"
            groups.append(
                [
                    Op(
                        "change-labels",
                        lambda code, out, s=s, o=out_path, t=target, m=mapping: oracle.check_change_labels(s, o, t, m, code, out),
                        argv=["change-labels", s.path, "--hom", hom, "--out", out_path],
                        family="graph",
                        size=n,
                    ),
                    Op("export-dot", lambda code, out, s=s: oracle.check_dot(s, code, out), argv=["export-dot", s.path], family="graph", size=n),
                ]
            )

    for i in range(2 if smoke else GLUE_PAIRS):
        x, y = _glue_pair(rng, workdir, i)
        groups.append(
            [
                Op(
                    "emergence",
                    lambda code, out, x=x, y=y: oracle.check_emergence(x, y, code, out),
                    argv=["emergence", "--left", x.path, "--right", y.path, "--json"],
                    family="glue",
                    size=x.n + y.n,
                )
            ]
        )
    groups += [[op] for op in _certificate_ops(rng, workdir, 2 if smoke else ASSOC_TRIPLES)]
    return interleave(rng, groups)


BUILDERS = {"loops-cld": loops_cld, "motif-scan": motif_scan, "model-pipeline": model_pipeline}


def build(name: str, rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    return BUILDERS[name](rng, workdir, smoke)
