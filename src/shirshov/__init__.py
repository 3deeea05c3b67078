"""Gröbner-Shirshov basis engine for free associative and free Lie algebras.

Completes relation sets by Shirshov's composition procedure, enumerates
Irr(S) linear bases and PBW bases, and solves normal-form / word problems
for finitely presented semigroups and groups over exact coefficients.
"""

from .words import (
    Alphabet,
    Overlap,
    Word,
    find_inclusions,
    find_intersections,
)
from .ncpoly import (
    LieTerm,
    NcPolynomial,
    expand_bracket,
    mul_bounded,
    parse_poly,
    prime_field,
    render_poly,
)
from .rewrite import RuleSet, irr_words, reduce
from .complete import (
    Composition,
    CompletionConfig,
    CompletionResult,
    compositions,
    is_gs_basis,
    shirshov_complete,
)
from .lie import (
    PbwMonomial,
    is_alsw,
    lie_gs_check,
    lsw_bracket,
    nlsw_decompose,
    pbw_basis,
    shirshov_factorize,
)
from .present import (
    GrowthSeries,
    Presentation,
    ZERO,
    catalog,
    complete_presentation,
    growth_series,
    normal_form_word,
    parse_presentation,
    to_algebra_relations,
    word_problem,
)

__all__ = [
    "Alphabet",
    "Word",
    "Overlap",
    "find_intersections",
    "find_inclusions",
    "NcPolynomial",
    "LieTerm",
    "expand_bracket",
    "mul_bounded",
    "parse_poly",
    "render_poly",
    "prime_field",
    "RuleSet",
    "reduce",
    "irr_words",
    "Composition",
    "CompletionConfig",
    "CompletionResult",
    "compositions",
    "shirshov_complete",
    "is_gs_basis",
    "is_alsw",
    "shirshov_factorize",
    "lsw_bracket",
    "nlsw_decompose",
    "PbwMonomial",
    "pbw_basis",
    "lie_gs_check",
    "Presentation",
    "parse_presentation",
    "to_algebra_relations",
    "complete_presentation",
    "normal_form_word",
    "word_problem",
    "growth_series",
    "GrowthSeries",
    "ZERO",
    "catalog",
]

__version__ = "0.1.0"
