"""The contract of the package's record types: construction, defaults,
equality, hashing, immutability, repr, validation and pickling."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import aisemiring
from aisemiring import (
    AxiomSet,
    AxiomViolation,
    ChainVerdict,
    ConditionCheck,
    ConditionReport,
    Congruence,
    CongruenceViolation,
    CrossValReport,
    DerivationChain,
    DerivationStep,
    FactCheck,
    FiniteSemiring,
    Identity,
    OddCycleSearch,
    SearchBounds,
    SearchOutcome,
    StepMismatch,
    Term,
    TermGraph,
    Verdict,
    WitnessPair,
    WitnessReport,
)

T = Term([("x", "y")])
U = Term([("x",), ("y", "y")])
C = Term([("x1", "x2"), ("x2", "x3"), ("x1", "x3")], commutative=True)
I = Identity(T, U)
CHECK = FactCheck("odd-cycle", True, "length 3")
COND = ConditionCheck("a", False, "x*x")

# (type, field names, values, other values, repr of the values, hashable):
# the other values differ from the values in at least one field
SPECS = [
    (
        FiniteSemiring,
        ("elements", "add", "mul"),
        (("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1))),
        (("0", "1"), ((0, 1), (1, 1)), ((0, 1), (1, 1))),
        "FiniteSemiring(['0', '1'])",
        True,
    ),
    (
        AxiomViolation,
        ("law", "witness"),
        ("+ idempotent", ("a",)),
        ("+ idempotent", ("b",)),
        "AxiomViolation(law='+ idempotent', witness=('a',))",
        True,
    ),
    (
        Congruence,
        ("partition",),
        (((0, 1), (2,)),),
        (((0,), (1, 2)),),
        "Congruence(partition=((0, 1), (2,)))",
        True,
    ),
    (
        CongruenceViolation,
        ("operation", "witness"),
        ("mul", ("a", "b", "c", "d")),
        ("add", ("a", "b", "c", "d")),
        "CongruenceViolation(operation='mul', witness=('a', 'b', 'c', 'd'))",
        True,
    ),
    (
        Identity,
        ("lhs", "rhs"),
        (T, U),
        (U, T),
        "Identity(lhs=Term('x*y'), rhs=Term('x + y^2'))",
        True,
    ),
    (
        AxiomSet,
        ("axioms", "commutative"),
        ((("sq", I),), False),
        ((("sq", I), ("dup", I)), False),
        "AxiomSet(axioms=(('sq', Identity(lhs=Term('x*y'), rhs=Term('x + y^2'))),), "
        "commutative=False)",
        True,
    ),
    (
        Verdict,
        ("holds", "witness", "reason", "details", "stats"),
        (False, None, "r", None, None),
        (True, None, "r", None, None),
        "Verdict(holds=False, witness=None, reason='r', details=None, stats=None)",
        True,
    ),
    (
        CrossValReport,
        ("semiring", "samples", "seed", "bounds", "disagreements"),
        ("S7", 3, 1, {"max_vars": 2}, [{"identity": "x == y"}]),
        ("S7", 3, 2, {"max_vars": 2}, [{"identity": "x == y"}]),
        "CrossValReport(semiring='S7', samples=3, seed=1, bounds={'max_vars': 2}, "
        "disagreements=[{'identity': 'x == y'}])",
        False,
    ),
    (
        DerivationStep,
        ("axiom_name", "direction", "phi", "left_context", "right_context", "remainder"),
        ("sq", "backward", {"x": T}, U, None, T),
        ("sq", "forward", {"x": T}, U, None, T),
        "DerivationStep(axiom_name='sq', direction='backward', phi={'x': Term('x*y')}, "
        "left_context=Term('x + y^2'), right_context=None, remainder=Term('x*y'))",
        False,
    ),
    (
        StepMismatch,
        ("expected", "found"),
        (T, U),
        (T, T),
        "StepMismatch(expected=Term('x*y'), found=Term('x + y^2'))",
        True,
    ),
    (
        DerivationChain,
        ("start", "steps", "end"),
        (T, (), U),
        (U, (), U),
        "DerivationChain(start=Term('x*y'), steps=(), end=Term('x + y^2'))",
        True,
    ),
    (
        ChainVerdict,
        ("ok", "failing_index", "reason"),
        (False, 2, "step 2: no"),
        (False, 1, "step 2: no"),
        "ChainVerdict(ok=False, failing_index=2, reason='step 2: no')",
        True,
    ),
    (
        SearchBounds,
        ("max_depth", "max_words", "max_word_len", "max_image_words"),
        (0, 2, 3, 4),
        (1, 2, 3, 4),
        "SearchBounds(max_depth=0, max_words=2, max_word_len=3, max_image_words=4)",
        True,
    ),
    (
        SearchOutcome,
        ("status", "chain", "explored", "bounds", "truncated_by", "matched"),
        ("absent-truncated", None, 7, SearchBounds(), {"max_depth": 2}, 5),
        ("absent-exhausted", None, 7, SearchBounds(), {"max_depth": 2}, 5),
        "SearchOutcome(status='absent-truncated', chain=None, explored=7, "
        "bounds=SearchBounds(max_depth=4, max_words=8, max_word_len=8, max_image_words=1), "
        "truncated_by={'max_depth': 2}, matched=5)",
        False,
    ),
    (
        TermGraph,
        ("vertices", "edges"),
        (frozenset(), frozenset()),
        (frozenset({"x"}), frozenset()),
        "TermGraph(vertices=frozenset(), edges=frozenset())",
        True,
    ),
    (
        OddCycleSearch,
        ("cycle", "coloring"),
        (None, {"x": 0}),
        (None, {"x": 1}),
        "OddCycleSearch(cycle=None, coloring={'x': 0})",
        False,
    ),
    (
        WitnessPair,
        ("n", "u", "q"),
        (1, C, ("x1", "x2", "x3")),
        (2, C, ("x1", "x2", "x3")),
        "WitnessPair(n=1, u=Term('x1*x2 + x1*x3 + x2*x3', commutative=True), "
        "q=('x1', 'x2', 'x3'))",
        True,
    ),
    (
        FactCheck,
        ("name", "passed", "note"),
        ("oracle", None, "skipped"),
        ("oracle", False, "skipped"),
        "FactCheck(name='oracle', passed=None, note='skipped')",
        True,
    ),
    (
        WitnessReport,
        ("n", "checks"),
        (1, (CHECK,)),
        (1, ()),
        "WitnessReport(n=1, checks=(FactCheck(name='odd-cycle', passed=True, "
        "note='length 3'),))",
        True,
    ),
    (
        ConditionCheck,
        ("name", "passed", "witness"),
        ("b", True, ""),
        ("b", False, ""),
        "ConditionCheck(name='b', passed=True, witness='')",
        True,
    ),
    (
        ConditionReport,
        ("conditions", "delta", "every_variable_covered", "b_subset_a", "cycle"),
        ((COND,), (frozenset({"x"}),), True, False, None),
        ((COND,), (), True, False, None),
        "ConditionReport(conditions=(ConditionCheck(name='a', passed=False, "
        "witness='x*x'),), delta=(frozenset({'x'}),), every_variable_covered=True, "
        "b_subset_a=False, cycle=None)",
        True,
    ),
]

# (type, the required values, the defaults of the other fields in order)
DEFAULTS = [
    (AxiomSet, (), ((), False)),
    (Verdict, (True,), (None, None, None, None)),
    (CrossValReport, ("S7", 0, 1, {}), ([],)),
    (DerivationStep, ("sq", "forward", {}), (None, None, None)),
    (ChainVerdict, (True,), (None, None)),
    (SearchBounds, (), (4, 8, 8, 1)),
    (SearchOutcome, ("found", None, 0, SearchBounds()), ({}, 0)),
    (FactCheck, ("x", True), ("",)),
    (ConditionCheck, ("x", True), ("",)),
]

# the records with no constructor of their own: Record.__init__ stores
# their fields
PLAIN = {
    AxiomViolation, Congruence, CongruenceViolation, StepMismatch, DerivationChain,
    TermGraph, OddCycleSearch, WitnessPair, WitnessReport, ConditionReport,
}

ids = [spec[0].__name__ for spec in SPECS]


@pytest.mark.parametrize("cls, names, values, other, text, hashable", SPECS, ids=ids)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, names, values, other, text, hashable):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        for name, value in zip(names, values):
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        with pytest.raises(TypeError):
            cls(*values, None)

    def test_each_field_is_given_exactly_once(self, cls, names, values, other, text, hashable):
        last = len(names) - 1
        mixed = cls(*values[:last], **{names[last]: values[last]})
        assert mixed == cls(*values)
        defaults = next((d[2] for d in DEFAULTS if d[0] is cls), ())
        required = len(names) - len(defaults)
        wrong = [
            lambda: cls(*values, unknown=None),
            lambda: cls(*values, **{names[0]: values[0]}),
        ]
        if last:  # the right count, but the first field twice and the last not
            wrong.append(lambda: cls(*values[:last], **{names[0]: values[0]}))
        if required:  # the last field without a default left out
            wrong.append(lambda: cls(*values[:required - 1]))
        for build in wrong:
            with pytest.raises(TypeError) as info:
                build()
            if cls in PLAIN:
                assert str(info.value) == f"{cls.__name__} takes the fields {', '.join(names)}"

    def test_equality(self, cls, names, values, other, text, hashable):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert a != cls(*other) and not a == cls(*other)
        stranger = AxiomViolation("law", ()) if cls is not AxiomViolation else CHECK
        assert a != stranger and not a == stranger
        assert a.__eq__(stranger) is NotImplemented
        assert a != values and a.__eq__(values) is NotImplemented

    def test_hash(self, cls, names, values, other, text, hashable):
        a, b = cls(*values), cls(*values)
        if hashable:
            assert hash(a) == hash(b)
            assert len({a, b, cls(*other)}) == 2
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_assignment_and_deletion(self, cls, names, values, other, text, hashable):
        a = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is values[names.index(name)]
        with pytest.raises(AttributeError):
            a.unknown_field = 1

    def test_repr(self, cls, names, values, other, text, hashable):
        assert repr(cls(*values)) == text


def test_only_the_plain_records_use_the_shared_constructor():
    own = {spec[0] for spec in SPECS if "__init__" in vars(spec[0])}
    assert {spec[0] for spec in SPECS} - own == PLAIN


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS, ids=[d[0].__name__ for d in DEFAULTS])
def test_defaults(cls, required, defaults):
    assert cls(*required) == cls(*required, *defaults)
    names = [spec[1] for spec in SPECS if spec[0] is cls][0]
    record = cls(*required)
    for name, value in zip(names[len(required):], defaults):
        assert getattr(record, name) == value


def test_fresh_default_containers():
    bounds = SearchBounds()
    a, b = SearchOutcome("found", None, 0, bounds), SearchOutcome("found", None, 0, bounds)
    assert a.truncated_by == {} and a.truncated_by is not b.truncated_by
    r, s = CrossValReport("S7", 0, 1, {}), CrossValReport("S7", 0, 1, {})
    r.disagreements.append({"identity": "x == y"})
    assert s.disagreements == [] and r.disagreements is not s.disagreements
    assert repr(SearchOutcome("found", None, 0, bounds)).endswith("truncated_by={}, matched=0)")
    assert repr(s).endswith("disagreements=[])")


def test_default_repr():
    assert repr(Verdict(True)) == (
        "Verdict(holds=True, witness=None, reason=None, details=None, stats=None)"
    )


def test_unhashable_contents():
    with pytest.raises(TypeError):
        hash(Verdict(False, {"x": "0"}))
    assert hash(Verdict(False, None, "r")) == hash(Verdict(False, None, "r"))
    with pytest.raises(TypeError):
        hash(CrossValReport("S7", 0, 1, {}))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SearchBounds(max_depth=-1), "max_depth must be at least 0, got -1"),
        (lambda: SearchBounds(max_words=0), "max_words must be at least 1, got 0"),
        (lambda: SearchBounds(max_word_len=-2), "max_word_len must be at least 1, got -2"),
        (lambda: SearchBounds(max_image_words=0), "max_image_words must be at least 1, got 0"),
        (
            lambda: Identity(T, C),
            "both sides of an identity must share the commutativity mode",
        ),
        (lambda: DerivationStep("sq", "sideways", {}), "direction must be forward or backward"),
        (lambda: FiniteSemiring((), (), ()), "carrier must be nonempty"),
        (lambda: FiniteSemiring(("a", "a"), ((0, 0),) * 2, ((0, 0),) * 2), "element names must be distinct"),
        (lambda: FiniteSemiring(("a",), ((0, 0),), ((0,),)), "add table is not 1x1"),
        (lambda: FiniteSemiring(("a",), ((0,),), ()), "mul table is not 1x1"),
        (lambda: FiniteSemiring(("a",), ((1,),), ((0,),)), "add table cell 1 is not a valid index"),
        (lambda: FiniteSemiring(("a",), ((0,),), (("0",),)), "mul table cell '0' is not a valid index"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls", [CrossValReport, FactCheck, ConditionCheck, SearchBounds, AxiomViolation],
    ids=lambda cls: cls.__name__,
)
def test_to_dict_is_the_fields_in_slot_order(cls):
    _, names, values, *_ = next(spec for spec in SPECS if spec[0] is cls)
    doc = cls(*values).to_dict()
    assert list(doc) == list(names)
    assert all(doc[name] is value for name, value in zip(names, values))


def test_one_field_record_compares_and_hashes_by_its_field():
    # the getter returns a one-field record's value itself, not a tuple
    a, b = (Congruence(tuple(map(tuple, [[0, 1], [2]]))) for _ in range(2))
    assert a.partition is not b.partition
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Congruence(((0,), (1, 2)))
    for bare in (a.partition, (a.partition,)):
        assert a != bare and bare != a
        assert a.__eq__(bare) is NotImplemented
    assert pickle.loads(pickle.dumps(a)) == a


def test_axiom_set_lookup_survives_copies():
    sigma = AxiomSet([("sq", I), ("dup", Identity(U, T))])
    for back in (pickle.loads(pickle.dumps(sigma)), copy.deepcopy(sigma)):
        assert back.get("dup") == Identity(U, T)
        assert list(back) == list(sigma.axioms) and len(back) == 2
    # the name lookup is a cache, no field
    assert AxiomSet([("sq", I)]) == AxiomSet((("sq", I),), False)


def test_cached_values_stay_out_of_equality():
    s = FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
    t = FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
    assert s.additive_top == 1 and s.mul_commutes
    assert s == t and hash(s) == hash(t)


ROUND_TRIPS = [spec[0](*spec[2]) for spec in SPECS] + [
    DerivationStep("sq", "forward", {"x": U}, T, U, T),
    T,
    C,
    Term([("x", "x")], commutative=True),
]


@pytest.mark.parametrize("record", ROUND_TRIPS, ids=[*ids, "DerivationStep-contexts", "Term", "Term-commutative", "Term-square"])
def test_pickle_and_deepcopy_round_trip(record):
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(back) is type(record)
        assert back == record
        assert repr(back) == repr(record)
    if isinstance(record, Term):
        back = pickle.loads(pickle.dumps(record))
        assert hash(back) == hash(record) and back.words == record.words
        with pytest.raises(AttributeError):
            back.words = ()


def test_import_loads_no_code_generation_modules():
    src = str(Path(aisemiring.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import aisemiring, aisemiring.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "aisemiring.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "string"}
