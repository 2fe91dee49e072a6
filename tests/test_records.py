"""The public record types: field order, immutability, str() and equality."""

import pytest

from froblab import (
    AperySet,
    BranchDiscriminant,
    CaseTag,
    Cell,
    Computation,
    DenumerantTable,
    FormulaResult,
    GeneratorTuple,
    ResidueTable,
    SequenceKind,
    TripleParams,
    params,
)
from froblab.cli import Row, SweepSpec, VerifyReport

GENS = GeneratorTuple.of(8, 21, 55)
PARAMS = params("fib", 6, 4)
TAG = CaseTag("Thm3", "general")

# (class, positional arguments, field names in today's order)
RECORDS = [
    (AperySet, (GENS, 0, (0, 21)), ("gens", "p", "elements")),
    (
        TripleParams,
        (SequenceKind.FIBONACCI, 6, 4, 8, 21, 55, 2, 1),
        ("kind", "i", "k", "x_i", "x_i2", "x_ik", "r", "ell"),
    ),
    (CaseTag, ("Thm2", "k=i", True), ("theorem", "branch", "verbatim")),
    (FormulaResult, (233, TAG), ("value", "tag")),
    (BranchDiscriminant, (42, 8), ("lhs", "rhs")),
    (Computation, (233, "closed", TAG), ("value", "path", "tag")),
    (DenumerantTable, (GENS, 2, [1, 0, 0]), ("gens", "limit", "counts")),
    (Cell, (1, 0, 21, 5, 1), ("x", "y", "value", "residue", "level")),
    (
        ResidueTable,
        (PARAMS, (), ((1,),)),
        ("params", "levels", "rows"),
    ),
    (
        SweepSpec,
        (("lucas",), 4, 6, (None, 3), ("i", 2), 1, 3, ("n",)),
        ("kinds", "i_lo", "i_hi", "k_lo", "k_hi", "p_lo", "p_hi", "quantities"),
    ),
    (VerifyReport, ([],), ("rows",)),
    (
        Row,
        ("fib", 6, 4, 2, 2, 1, "g", 1170, 1170, "Thm3/general", True, False),
        ("kind", "i", "k", "p", "r", "ell", "quantity",
         "closed_value", "oracle_value", "case_tag", "match", "verbatim"),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_positional_construction_keeps_field_order(cls, args, fields):
    rec = cls(*args)
    assert [getattr(rec, f) for f in fields] == list(args)


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_records_are_immutable(cls, args, fields):
    rec = cls(*args)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], args[0])
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


def test_generator_tuple_is_immutable():
    with pytest.raises(AttributeError):
        GENS.gens = (2, 3)
    with pytest.raises(AttributeError):
        GENS.a1 = 2
    with pytest.raises(AttributeError):
        GENS.not_a_field = 1


def test_defaults_are_unchanged():
    assert CaseTag("Thm2", "k=i").verbatim is False
    assert VerifyReport._fields == ("rows",)  # no wall time: a report is a function of its grid
    assert SweepSpec() == SweepSpec(
        ("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("g",)
    )


def test_str_is_unchanged():
    assert str(CaseTag("Thm3", "k=i+2 odd i", True)) == "Thm3/k=i+2 odd i"
    assert str(GeneratorTuple((55, 8, 21))) == "(8, 21, 55)"
    assert repr(GeneratorTuple((55, 8, 21))) == "GeneratorTuple(gens=(8, 21, 55))"
    assert str(Cell(1, 0, 21, 5, None)) == "Cell(x=1, y=0, value=21, residue=5, level=None)"


def test_generator_tuple_sorts_and_behaves_as_a_tuple():
    tup = GeneratorTuple([55, 8, 21])
    assert tup.gens == (8, 21, 55)
    assert type(tup.gens) is tuple
    assert (tup.a1, tup.a2) == (8, 21)
    assert len(tup) == 3
    assert list(tup) == [8, 21, 55]
    assert tup == GeneratorTuple.of(21, 55, 8) == (8, 21, 55)
    assert hash(tup) == hash(GeneratorTuple.of(21, 55, 8))
    assert len({tup, GeneratorTuple.of(55, 21, 8)}) == 1
    assert GeneratorTuple(tup) == tup


def test_formula_result_covered_follows_value():
    res = FormulaResult(233, TAG)
    assert res.covered
    assert not FormulaResult(None, TAG).covered
    assert not res._replace(value=None).covered
    assert res._replace(value=None)._replace(value=5).covered
