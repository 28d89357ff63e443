"""Graphs with monoid-labeled edges: morphisms, composition, feedback loops.

`import monograph` loads no submodule.  Each public name is imported from
its submodule the first time it is read (PEP 562), so a program, the CLI
included, compiles and runs only the modules it uses.
"""

import importlib

# each submodule and the public names it defines
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # a submodule: importing it binds it here
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    # bound here, later reads skip this function (and a tracer rebinding
    # the module's functions finds it)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
