"""Compare human languages by the phonetic form of single words.

Weighted edit distance over phonetic substitution tables, distance-matrix
construction in the OC text format, hierarchical clustering with
silhouette-optimal cuts, and the accompanying column statistics (mean/sd,
density curves, t-scores, Bhattacharyya coefficients, linear regression).
"""

from .cluster import (ClusterAssignment, Dendrogram, PurityReport,
                      SilhouetteReport, agglomerate, best_cut, cut,
                      export_newick, export_svg, purity, silhouette,
                      silhouette_scan)
from .editdist import (GAP, Alignment, DistanceMatrix, alignments,
                       all_to_all_matrix, concept_matrix, entry_distance,
                       language_matrix, normalized_distance, raw_distance,
                       read_oc, write_oc)
from .errors import LingdistError
from .lexicon import (Lexicon, WordEntry, parse_lexicon, serialize_lexicon,
                      symbols_used, validate_against_table)
from .stats import (AnalysisFrame, DensityCurve, RegressionResult,
                    bhatt_distance_matrix, bhatt_matrix, bhattacharyya, kde,
                    linregress, mean_sd, tscore)
from .subst import (SubstitutionTable, WeightClass, builtin_table,
                    parse_table)

__version__ = "0.1.0"
