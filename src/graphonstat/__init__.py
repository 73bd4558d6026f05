"""Motif statistics, limit laws, and multiplier-bootstrap inference for graphons."""

__version__ = "0.1.0"

from .motifs import (K2, K3, C4, K12, Motif, MultiMotif, MotifSizeError, clique,
                     cycle, parse_motif, path, star, vertex_join)
from .graphon import (BlockGraphon, CovMatrix, ExpressionGraphon, Graphon,
                      KernelMatrix, conditional_1pt, conditional_kernel_2pt,
                      constant_graphon, bipartite_graphon, graphon_by_name,
                      hom_density, load_block_graphon, sample_graph, sigma_matrix,
                      tbar_1pt)
from .counting import (Graph, GraphSizeError, count_copies, density_hat_t,
                       empirical_graphon, injective_hom_count, load_edge_list,
                       one_point_density, parse_edge_list, regularity_R_empirical,
                       two_point_matrix)
from .limitlaw import (LimitSpec, RegularMarginalLaw, build_limit_spec,
                       empirical_log_mgf, gamma_matrix, log_mgf_oracle,
                       marginal_regular_law, regularity_R_graphon, sample_limit)
from .bootstrap import BootstrapDraws, empirical_quantile, multiplier_draws
from .inference import (ConfidenceInterval, ConfidenceReport, DegenerateDensityError,
                        RegularityTest, StructureAltParams, StructureStat,
                        StructureTestResult, joint_confidence_set, marginal_ci,
                        regularity_test, structure_alt_params,
                        structure_null_variance, structure_stat, structure_test)
