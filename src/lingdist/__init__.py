"""Compare human languages by the phonetic form of single words.

Weighted edit distance over phonetic substitution tables, distance-matrix
construction in the OC text format, hierarchical clustering with
silhouette-optimal cuts, and the accompanying column statistics (mean/sd,
density curves, t-scores, Bhattacharyya coefficients, linear regression).

``import lingdist`` loads no submodule.  Each public name below, and each
submodule such as ``lingdist.stats``, is imported on first access (PEP 562),
so a command-line run compiles only the modules its subcommand executes.
"""

# submodule -> the public names the package takes from it
_EXPORTS = {
    "cluster": ("ClusterAssignment", "Dendrogram", "PurityReport", "SilhouetteReport",
                "agglomerate", "best_cut", "cut", "export_newick", "export_svg",
                "purity", "silhouette", "silhouette_scan"),
    "editdist": ("GAP", "Alignment", "DistanceMatrix", "alignments", "all_to_all_matrix",
                 "concept_matrix", "entry_distance", "language_matrix",
                 "normalized_distance", "raw_distance", "read_oc", "write_oc"),
    "errors": ("LingdistError",),
    "lexicon": ("Lexicon", "WordEntry", "parse_lexicon", "serialize_lexicon",
                "symbols_used", "validate_against_table"),
    "stats": ("DensityCurve", "RegressionResult", "bhatt_distance_matrix", "bhatt_matrix",
              "bhattacharyya", "kde", "linregress", "mean_sd", "tscore"),
    "subst": ("SubstitutionTable", "builtin_table", "parse_table"),
    "svgplot": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
