"""Rank-structured matrices with adaptive two-phase multiplication.

H^2-matrices store a dense matrix through a block tree, nested cluster
bases and small coupling matrices.  This package builds such matrices
for kernel model problems and multiplies two of them at a prescribed
block-relative accuracy in linear complexity: phase 1 compresses the
induced bases of the product over a refined block tree, phase 2
re-compresses onto a prescribed coarser tree.
"""

from .coarsening import (CoarsenState, build_coarse_col_basis,
                         build_coarse_row_basis, coarsen, match_column,
                         orthogonalized, project_final, recompress)
from .dense import (TruncatedSVD, full_householder_qr, spectral_norm,
                    truncated_svd)
from .errors import InvalidInputError
from .h2 import (BasisProduct, ClusterBasis, H2Matrix, PackedBlocks,
                 cluster_basis_product, expand_basis, h2_matvec,
                 h2_matvec_adjoint, matvec_cost, nested_basis,
                 orthogonalize_basis, storage_bytes, to_dense)
from .induced import (InducedBasisResult, assemble_product,
                      compress_induced_col_basis, compress_induced_row_basis,
                      multiply)
from .problems import (Geometry, KernelProblem, ModelInstance, build_geometry,
                       build_h2_by_interpolation, build_problem,
                       kernel_matrix)
from .trees import (BlockTree, ClusterTree, ColumnTree, admissible,
                    admissible_boxes, build_block_tree, build_cluster_tree,
                    build_product_block_tree, refinement_counts,
                    same_cluster_tree, sparsity_constant)
from .weights import BasisWeights, TotalWeights, basis_weights, total_weights

__version__ = "0.1.0"
