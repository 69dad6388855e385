"""Hierarchical partial-order causal-link planning with decomposition links.

Plans are sets of partially ordered steps connected by causal links; composite
steps expand through decomposition schemata into partially specified subplans,
and every effect of a finished plan is classified as intended or side effect.
"""

from .terms import (
    ArityMismatchError,
    BindingSet,
    Compound,
    Constant,
    EMPTY_BINDINGS,
    Literal,
    Term,
    Variable,
    add_noncodesignation,
    apply,
    rename,
    unify,
    unify_terms,
)
from .model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    Domain,
    DomainValidationError,
    LinkTemplate,
    Problem,
    StepTemplate,
    kb_satisfy,
    validate_domain,
    validate_problem,
)
from .plan import (
    CausalLink,
    DecompositionLink,
    OpenCondition,
    Plan,
    Step,
    Threat,
    UnexpandedComposite,
    add_ordering,
    detect_threats,
    init_plan,
)
from .search import (
    BudgetExceeded,
    Exhausted,
    SearchConfig,
    SearchStats,
    Solution,
    prune_unused,
    refine_causal,
    refine_decomposition,
    resolve_threat,
    solve,
)
from .intention import IntentionReport, classify_effects
from .oracle import AuditReport, PlanView, verify_soundness
from .language import parse_domain, parse_problem, serialize_domain, serialize_problem

__version__ = "0.1.0"
