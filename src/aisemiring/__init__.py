"""Deciding identities in finite additively idempotent semirings.

Terms are finite sets of nonempty words; identities can be settled by a
brute-force evaluation oracle over any finite semiring or by syntactic
criteria for the built-in algebras and their zero-adjunctions, with a
derivation calculus and the odd-cycle witness family on top.
"""

from .algebra import (
    BUILTIN_NAMES,
    AxiomViolation,
    Congruence,
    CongruenceViolation,
    FiniteSemiring,
    adjoin_zero,
    builtin,
    find_isomorphism,
    is_isomorphic,
    quotient,
    semiring_from_json,
    semiring_to_json,
    tables_from_json,
    validate_ai_semiring,
    validate_congruence,
)
from .deciders import (
    CrossValReport,
    Verdict,
    cross_validate,
    holds_bruteforce,
    holds_d2,
    holds_s0_lift,
    holds_s7,
    holds_s7_0,
    random_identity,
    syntactic_decider,
)
from .derivation import (
    AxiomSet,
    ChainVerdict,
    DerivationChain,
    DerivationStep,
    SearchBounds,
    SearchOutcome,
    StepMismatch,
    apply_step,
    axioms_from_json,
    axioms_to_json,
    chain_from_json,
    search_derivation,
    verify_chain,
)
from .errors import SizeLimitError
from .graphs import OddCycleSearch, TermGraph, odd_cycle, term_graph
from .parsing import ParseError, parse_identity, parse_term, parse_word
from .terms import (
    Identity,
    Term,
    Word,
    components,
    content,
    delta_sets,
    evaluate,
    filter_content_subset,
    format_word,
    is_linear,
    substitute,
)
from .witness import (
    ConditionCheck,
    ConditionReport,
    FactCheck,
    WitnessPair,
    WitnessReport,
    check_axiom_conditions,
    check_witness_facts,
    make_witness,
)

__version__ = "0.1.0"
