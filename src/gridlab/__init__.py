"""Treewidth and grid-minor constructions for map graphs, graph powers
and planar duals."""

from ._kernels import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .decomposition import (TreeDecomposition, Violation,
                            decomposition_from_order, lift_power,
                            lift_radial_to_map, td_dump, td_dumps, td_loads,
                            treewidth_exact, treewidth_upper, vertex_cover_dp)
from .embedding import (EmbeddedGraph, FaceLabeling, all_nations,
                        canonicalize, canonicalize_components, dual_graph,
                        emb_dump, emb_dumps, emb_loads, is_canonical,
                        map_graph, radial_embedding, radial_graph,
                        union_radial_dual)
from .errors import (ConstructionError, FormatError, GridlabError,
                     SizeLimitError)
from .generators import (grid, grid_map, partially_triangulated_grid,
                         random_canonical_map, random_graph,
                         random_planar_triangulation, wheel_map)
from .graph import (Bipartition, BoundReport, CliqueWitness, SimpleGraph,
                    gr_dump, gr_dumps, gr_loads, k_neighborhood,
                    power_clique_or_bound, power_graph)
from .minors import (ContractionSequence, MinorModel, double_radial_minor,
                     largest_grid_minor, minor_containment_exact, model_dumps,
                     model_loads, nation_grid_transfer_instance,
                     primal_dual_width_report, radial_grid_to_dual_grid,
                     sequence_dumps, sequence_loads, verify_model)

__version__ = "0.1.0"
