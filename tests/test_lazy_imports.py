"""A subcommand imports only the modules it runs, and `import monograph`
loads no submodule until one of its names is read."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monograph

from helpers import FIXTURES

_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

# the public names of the package, by the submodule that defines them
EXPORTS = {
    "algebra": (
        "BUILTIN_NAMES", "CATALOG", "BuiltinAlgebra", "Flags", "LabelAlgebra", "MonoidHom",
        "TableAlgebra", "adjoin_identity", "adjoin_zero", "algebra_name", "apply_hom",
        "collapse_hom", "compose_homs", "is_cancellative", "named_algebra", "power_rig",
        "product_algebra", "sign_hom", "sign_section", "table_algebra", "validate_algebra",
        "validate_hom",
    ),
    "graphs": (
        "Graph", "GraphMorphism", "LabeledGraph", "Semiautomaton", "change_labels",
        "compose_morphisms", "from_semiautomaton", "graph", "identity_morphism",
        "is_label_preserving", "labeled_graph", "pullback_labeling", "undirected_components",
        "validate_morphism",
    ),
    "additive": ("AdditiveMorphism", "is_additive_morphism", "pushforward_labeling"),
    "paths": (
        "KleisliMorphism", "Path", "compose_kleisli", "compose_paths", "grade",
        "is_kleisli_morphism", "kleisli_identity", "kleisli_respects_hom", "path_end",
    ),
    "motifs": ("MOTIF_NAMES", "builtin_motif", "find_motif_groups", "find_motifs", "paths_between"),
    "open_graphs": (
        "OpenGraph", "OpenGraphMap", "check_2morphism", "compose", "compose_2morphisms",
        "empty_open", "grothendieck_morphism_check", "identity_open", "iso_check", "tensor",
    ),
    "homology": (
        "Chain", "H0Result", "Relation", "SimpleLoop", "boundary_pair", "chain", "chain_add",
        "cycles", "decompose_cycle", "feedback", "find_relations", "h0", "is_cycle",
        "loop_polarity", "nat_chain", "simple_loop", "simple_loops",
    ),
    "emergence": (
        "EmergenceReport", "GluedGraph", "MVReport", "collapse_word", "emergence_report",
        "format_word", "glue", "grade_word", "is_inherited_cycle", "mv_check", "side_projection",
    ),
    "model_io": (
        "ModelFile", "ModelFormatError", "emit_model", "export_dot", "load_model", "parse_model",
        "save_model",
    ),
    "validation": ("ValidationReport", "Violation"),
}
PUBLIC = [(module, name) for module, names in EXPORTS.items() for name in names]

ALGEBRA_ONLY = ["algebra", "cli", "model_io", "validation"]
GRAPH = sorted(ALGEBRA_ONLY + ["graphs"])
LOOPS = sorted(GRAPH + ["homology", "paths"])
MOTIF = sorted(GRAPH + ["motifs", "paths"])
OPEN = sorted(GRAPH + ["additive", "open_graphs", "paths"])
EMERGENCE = sorted(set(EXPORTS) - {"motifs"} | {"cli"})

PAIR = [FIXTURES / "open_left.json", FIXTURES / "open_right.json"]
# (argv with "{tmp}" for the test's directory, the monograph.* modules it loads)
SUBCOMMANDS = {
    "validate algebra": (["validate", "{tmp}/algebra.json"], ALGEBRA_ONLY),
    "validate graph": (["validate", FIXTURES / "homework.json"], GRAPH),
    "export-dot": (["export-dot", FIXTURES / "homework.json"], GRAPH),
    "change-labels": (["change-labels", FIXTURES / "homework.json", "--hom", "collapse", "--out", "{tmp}/c.json"], GRAPH),
    "loops": (["loops", FIXTURES / "homework.json"], LOOPS),
    "homology": (["homology", FIXTURES / "q4.json"], LOOPS),
    "decompose": (["decompose", FIXTURES / "q4.json", "--chain", '{"e1": 1, "e2": 1, "e3": 1, "e4": 1}'], LOOPS),
    "motif": (["motif", "--motif", "negative-autoregulation", "--host", FIXTURES / "host.json"], MOTIF),
    "compose": (["compose", *PAIR, "--out", "{tmp}/o.json"], OPEN),
    "tensor": (["tensor", *PAIR, "--out", "{tmp}/o.json"], OPEN),
    "emergence": (["emergence", "--left", FIXTURES / "glue_red.json", "--right", FIXTURES / "glue_blue.json"], EMERGENCE),
}

# the stdlib modules no subcommand may load: records generate no code (they
# would pull in `dataclasses`, and it `inspect`, `ast`, `dis` and `tokenize`)
HEAVY = ("dataclasses", "inspect")
_PROBE = """
import contextlib, io, json, sys
from monograph import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
heavy = [m for m in json.loads(sys.argv[2]) if m in sys.modules]
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules if m.startswith("monograph.")), heavy]))
"""


def _fresh(code: str, *args: str):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_ENV, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_loads_only_its_modules(name, tmp_path):
    (tmp_path / "algebra.json").write_text(json.dumps({"format": 1, "algebra": "SIGN"}))
    argv, expected = SUBCOMMANDS[name]
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in argv]
    assert _fresh(_PROBE, json.dumps(argv), json.dumps(HEAVY)) == [0, expected, []]


def test_importing_the_package_loads_no_submodule():
    probe = (
        "import json, sys, monograph\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('monograph.'))\n"
        "print(json.dumps([loaded, monograph.homology.LOOP_CAP > 0, 'monograph.homology' in sys.modules]))\n"
    )
    # a submodule is still reached as an attribute, as when the package loaded them all
    assert _fresh(probe) == [[], True, True]


def test_every_public_name_is_the_object_its_submodule_defines():
    strays = [
        name
        for module, name in PUBLIC
        if getattr(monograph, name) is not getattr(importlib.import_module(f"monograph.{module}"), name)
    ]
    assert strays == []


def test_all_and_dir_list_the_public_names():
    assert len(PUBLIC) == 100
    assert sorted(monograph.__all__) == sorted(name for _, name in PUBLIC)
    assert set(monograph.__all__) <= set(dir(monograph))
    namespace = {}
    exec("from monograph import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(monograph.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        monograph.no_such_name
    assert not hasattr(monograph, "cli_main")
