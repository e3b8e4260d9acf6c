"""Exact face-number computation for Gelfand-Tsetlin polytopes.

Three independent routes to the same numbers:

* a memoized recurrence over the projection onto a cube (`engine`),
* closed forms for three one-parameter families, including matrix-power
  and generating-function variants (`families`),
* a brute-force vertex and face-lattice enumeration used as ground truth
  on small instances (`lattice`).

The checks that tie the routes together live in `checks`.
"""

from .engine import (FaceCountEngine, FiberChild, Pick, ResourceLimitError,
                     cube_children, f_polynomial, fiber_child, h_polynomial,
                     simplex_f_polynomial)
from .families import (Family, HPair, f_12k3, family_h, family_signature,
                       generating_function, geometric, h_12k3, h_123k, h_223k,
                       h_pair_matrix, phi, phi_root_form_value)
from .lattice import (Face, FaceLattice, FiberCheckReport, FiberGroup,
                      TriangularTable, enumerate_vertices, face_lattice,
                      fiber_decomposition_check, tracked_cells)
from .poly import IntPoly, SeriesRational, series_coeffs, z_mul
from .signatures import (LevelSequence, ParseError, Signature, canonicalize,
                         dimension, iter_signatures, parse_level_sequence,
                         parse_signature, reverse_normal_form)

__version__ = "0.1.0"

__all__ = [
    "FaceCountEngine", "FiberChild", "Pick", "ResourceLimitError", "cube_children",
    "f_polynomial", "fiber_child", "h_polynomial", "simplex_f_polynomial",
    "Family", "HPair", "f_12k3", "family_h", "family_signature",
    "generating_function", "geometric", "h_12k3", "h_123k", "h_223k",
    "h_pair_matrix", "phi", "phi_root_form_value",
    "Face", "FaceLattice", "FiberCheckReport", "FiberGroup", "TriangularTable",
    "enumerate_vertices", "face_lattice", "fiber_decomposition_check",
    "tracked_cells",
    "IntPoly", "SeriesRational", "series_coeffs", "z_mul",
    "LevelSequence", "ParseError", "Signature", "canonicalize", "dimension",
    "iter_signatures", "parse_level_sequence", "parse_signature",
    "reverse_normal_form",
]
