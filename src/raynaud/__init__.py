"""Exact computation of Hodge-Witt invariants for graded modules over
the Cartier-Dieudonne-Raynaud ring at finite truncation.

The package provides truncated Witt-vector arithmetic, a tower-based
kernel for graded modules with Frobenius, Verschiebung and differential,
the numerical invariants of the theory (Hodge, Hodge-Witt, domino and
slope numbers with their polygons and checker suite), Ekedahl's star
product with its derived computation for height blocks, and the
classifying-stack pipeline that assembles the asymmetric Hodge-Witt
table of the counterexample fourfold.
"""

from .blocks import BlockModule, make_block, truncate
from .formal import FormalObject, SpecError, Summand
from .homs import cone_or_extension, identify_block
from .invariants import (
    InvariantConfig,
    InvariantTable,
    coeur,
    crew_check,
    domino_number,
    ekedahl_check,
    hodge_numbers,
    hodge_witt_numbers,
    mazur_ogus_check,
    newton_hodge_polygon,
    newton_slopes,
    slope_numbers,
    symmetry_check,
    totalize,
)
from .linalg import Pres, ZMod, smith_normal_form
from .rmod import Level, Tower, Unstable, check_relations, standard_filtration
from .star import (
    ClosedFormInapplicable,
    derived_star,
    star_frobenius_bijective,
    star_presentation,
    star_with_R,
)
from .witt import (
    FieldElt,
    FiniteField,
    GaloisRing,
    IncompatibleParameters,
    WittRing,
    WittScalar,
    frobenius,
    teichmuller,
    valuation,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)
from .balphap import PipelineConfig, counterexample_report

__version__ = "0.1.0"
