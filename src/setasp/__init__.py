"""Answer set solving with evaluable partial functions and set terms.

Two engines over one input language: an equilibrium-model search under the
two-world semantics with intensional sets, and a reduct-based engine for
the aggregate-comparison fragment, plus a differential harness verifying
that they agree where both apply.
"""

from .domain import ActiveDomain, DomainBounds, build_active_domain, build_domain_level
from .errors import (
    BoundsError,
    DomainLimitError,
    NotGZError,
    ParseError,
    RangeDeclarationError,
    SetAspError,
    SignatureError,
)
from .ground import GroundTheory, ground_theory, relevant_atoms
from .gz import (
    cl_satisfies,
    cross_check,
    differential_trials,
    eligible_positions,
    existential_intro_transform,
    gz_stable_models,
    is_gz_theory,
    random_gz_program,
    reduct,
)
from .interp import (
    Assignment,
    HTInterpretation,
    Universe,
    aggregate_eval,
    assignment_leq,
    builtin_eval,
    coherence_closure,
    eval_term,
    ext,
    interp_leq,
    is_coherent,
)
from .parser import Signature, Theory, expand_sugar, parse_program
from .solver import (
    StableModel,
    StableModelReport,
    build_universe,
    check_equilibrium,
    find_stable_models,
    models,
    satisfies,
)
from .syntax import Formula, Term, free_vars, pretty, rank
from .values import EMPTY_SET, UNDEF, FinSet, HTerm, finset

__version__ = "0.1.0"
