"""Exact checker for the h-deformation of the 2x2 Grassmann matrix group.

The package computes, entirely over the localized ring Q[q,h][q^-1,(q-1)^-1],
the contraction that carries the q-deformed structures (plane, dual plane,
matrix relations, R-matrix) to their h-deformed counterparts, and verifies
the identities satisfied on both sides: RTT-type tensor relations, the
quantum Yang-Baxter equation, one-sided inverses with their determinants,
and the product theorem for two anticommuting generator matrices.

There are no floating-point numbers anywhere; every comparison is exact.
"""

from .coeffring import Coeff, NotAUnit, NotDivisible, PoleAtQ1, QHPoly, coeff
from .superalgebra import AlgebraSpec, Element, Generator
from .rewrite import (
    OrientationFailure,
    OverlapWitness,
    RuleSystem,
    orient,
)
from .matalg import (
    AlgMat,
    NotInvertible,
    ScalMat,
    qybe_residual,
    rtt_residual,
    similarity,
)
from .contract import (
    BadSubstitution,
    Contraction,
    DegreeError,
    MissingImage,
    RelationSpan,
    Substitution,
    contract_relations,
    limit_span,
    relation_span,
    span_equal,
)
from . import grgroup

__version__ = "0.1.0"

__all__ = [
    "AlgMat",
    "AlgebraSpec",
    "BadSubstitution",
    "Coeff",
    "Contraction",
    "DegreeError",
    "Element",
    "Generator",
    "MissingImage",
    "NotAUnit",
    "NotDivisible",
    "NotInvertible",
    "OrientationFailure",
    "OverlapWitness",
    "PoleAtQ1",
    "QHPoly",
    "RelationSpan",
    "RuleSystem",
    "ScalMat",
    "Substitution",
    "coeff",
    "contract_relations",
    "grgroup",
    "limit_span",
    "orient",
    "qybe_residual",
    "relation_span",
    "rtt_residual",
    "similarity",
    "span_equal",
]
