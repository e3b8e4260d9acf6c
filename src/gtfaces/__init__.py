"""Exact face-number computation for Gelfand-Tsetlin polytopes.

Three routes to the same numbers: the cube-projection recurrence
(`engine`), the closed forms of three families (`families`) and the
brute-force face lattice (`lattice`); `checks` ties them together.
"""

from . import engine, families, lattice, poly, signatures  # noqa: F401
from .engine import ResourceLimitError, f_polynomial, h_polynomial
from .families import family_h
from .lattice import face_lattice
from .signatures import (ParseError, Signature, canonicalize, parse_level_sequence,
                         parse_signature)

__version__ = "0.1.0"

__all__ = ["Signature", "ParseError", "parse_signature", "parse_level_sequence",
           "canonicalize", "ResourceLimitError", "f_polynomial", "h_polynomial",
           "family_h", "face_lattice"]
