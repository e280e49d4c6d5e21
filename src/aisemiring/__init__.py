"""Deciding identities in finite additively idempotent semirings.

Terms are finite sets of nonempty words; identities can be settled by a
brute-force evaluation oracle over any finite semiring or by syntactic
criteria for the built-in algebras and their zero-adjunctions, with a
derivation calculus and the odd-cycle witness family on top.

The derivation, graphs and witness modules are in sys.modules from the
start, but as importlib's lazy modules: their code runs on the first
attribute read. The names exported from them resolve on first use (PEP
562). So checking an identity runs none of them and imports no json:
semiring, axiom and chain files are decoded by json's C scanner, and
only a malformed file loads json, to word its error.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec
from types import ModuleType as _ModuleType

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
from .errors import SizeLimitError
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

_LAZY = {
    "derivation": (
        "AxiomSet",
        "ChainVerdict",
        "DerivationChain",
        "DerivationStep",
        "SearchBounds",
        "SearchOutcome",
        "StepMismatch",
        "apply_step",
        "axioms_from_json",
        "axioms_to_json",
        "chain_from_json",
        "search_derivation",
        "verify_chain",
    ),
    "graphs": ("OddCycleSearch", "TermGraph", "odd_cycle", "term_graph"),
    "witness": (
        "ConditionCheck",
        "ConditionReport",
        "FactCheck",
        "WitnessPair",
        "WitnessReport",
        "check_axiom_conditions",
        "check_witness_facts",
        "make_witness",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _lazy_submodule(name: str) -> _ModuleType:
    """The submodule, entered in sys.modules as a module whose code runs on
    its first attribute read (also through vars() or an import of it)."""
    spec = _find_spec(f"{__name__}.{name}")
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


derivation = _lazy_submodule("derivation")
graphs = _lazy_submodule("graphs")
witness = _lazy_submodule("witness")

# every public name but the submodules, the lazy names included
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY_HOME)


def __getattr__(name: str):
    """Read a lazy name from its module, which runs that module's code the
    first time, and keep it as a module global, so this runs once per name."""
    home = _LAZY_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[home], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOME})


__version__ = "0.1.0"
