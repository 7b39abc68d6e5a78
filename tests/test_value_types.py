"""Value semantics of the package's value types.

The types built on ``bundles._Frozen`` (``Indecomposable``, ``BundleObject``,
``RingElement``, ``SummandClosure``, ``ClosedForm``, ``TannakianLabel`` and
``ProductObject``), each declaring its fields as ``fields=(...)``, and the
tokenizer's ``_Token``, a ``collections.namedtuple``, behave as frozen
dataclasses would: fields cannot be assigned or deleted, equality holds only
within one class, the hash is that of the field tuple (which also fixes the
iteration order of frozensets of them), the repr has the ``Name(field=...)``
shape, and the constructors take their fields by position or by name.
``Indecomposable`` is the tuple ``(rank, twist)``, hashed by tuple's own
hash and without a ``__dict__``, yet equal to no plain tuple and unordered;
every value pickles and copies back through its checked constructor.
"""

import copy
import inspect
import operator
import pickle
from fractions import Fraction

import pytest

from ellbundle import (
    TRIVIAL,
    BundleObject,
    ClosedForm,
    Indecomposable,
    ProductObject,
    RingElement,
    SummandClosure,
    TannakianLabel,
    atiyah,
    line_class,
    parse_object,
    summand_closure,
)
from ellbundle.bundles import _indecomposables
from ellbundle.expr import _tokenize

L13 = line_class(Fraction(1, 3), 0)
IND = Indecomposable(2, L13)
OBJ = parse_object("E[2]*L[1/3,0] + 2*E[3]*Tg")
RING = RingElement.from_object(OBJ)
TOKEN = _tokenize("12")[0]
CLOSURE = summand_closure(atiyah(2, L13), 3)
FORM = ClosedForm(2, L13)
LABEL = TannakianLabel(True, 0, (3,))
PRODUCT = ProductObject.of(3, {(1, 2): 2, (0, 1): 1})

VALUES = [
    (IND, "rank"), (OBJ, "summands"), (RING, "terms"), (TOKEN, "kind"),
    (CLOSURE, "classes"), (FORM, "twist"), (LABEL, "torsion"), (PRODUCT, "components"),
]


@pytest.mark.parametrize("value, field", VALUES)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("value, field", VALUES)
def test_values_pickle_and_copy_back_equal(value, field):
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert type(other) is type(value) and other == value and hash(other) == hash(value)
        assert getattr(other, field) == getattr(value, field)


def test_copies_go_through_the_checked_constructor(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("checked")

    for cls in (Indecomposable, BundleObject, SummandClosure, TannakianLabel):
        monkeypatch.setattr(cls, "__init__", refuse)
    for value in (IND, OBJ, CLOSURE, LABEL):
        with pytest.raises(AssertionError, match="checked"):
            pickle.loads(pickle.dumps(value))
        with pytest.raises(AssertionError, match="checked"):
            copy.copy(value)


def test_indecomposables_are_pairs_hashed_by_tuple():
    assert Indecomposable.__slots__ == () and Indecomposable.__hash__ is tuple.__hash__
    (built,) = _indecomposables([(2, L13)])
    assert type(built) is Indecomposable and built == IND and hash(built) == hash(IND) == hash((2, L13))
    assert tuple(IND) == tuple(built) == (2, L13)
    assert not hasattr(IND, "__dict__") and not hasattr(built, "__dict__")


def test_indecomposables_equal_no_plain_tuple():
    pair = (2, L13)
    assert (IND == pair) is False and (pair == IND) is False
    assert (IND != pair) is True and (pair != IND) is True
    assert IND.__eq__(pair) is False and IND.__eq__(OBJ) is NotImplemented
    assert hash(FORM) == hash(IND) and FORM != IND and IND != FORM


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_indecomposables_have_no_order(op):
    for left, right in ((IND, Indecomposable(3)), (IND, (2, L13)), ((2, L13), IND)):
        with pytest.raises(TypeError):
            op(left, right)


def test_equality_needs_the_same_class_and_equal_fields():
    assert Indecomposable(2, L13) == IND and Indecomposable(3, L13) != IND
    assert Indecomposable(2, L13) != (2, L13)
    assert parse_object("2*E[3]*Tg + E[2]*L[1/3,0]") == OBJ
    assert OBJ != parse_object("E[2]*L[1/3,0] + E[3]*Tg")
    # The same pairs as a ring element: 1 == Fraction(1), but the classes differ.
    ring = RingElement.of({Indecomposable(2): 1})
    obj = atiyah(2)
    assert ring.terms == obj.summands
    assert ring != obj and obj != ring
    assert IND.__eq__(OBJ) is NotImplemented and OBJ.__eq__(RING) is NotImplemented
    assert _tokenize("12")[0] == TOKEN != _tokenize("13")[0]
    assert summand_closure(atiyah(2, L13), 3) == CLOSURE != summand_closure(atiyah(2, L13), 4)
    assert CLOSURE != SummandClosure(CLOSURE.classes, True)
    assert ClosedForm(2, L13) == FORM != ClosedForm(2)
    # The same fields as an indecomposable, but another class.
    assert FORM != IND and IND != FORM and FORM.__eq__(IND) is NotImplemented
    assert TannakianLabel(True, 0, (3,)) == LABEL != TannakianLabel(True, 1, (3,))
    assert LABEL != (True, 0, (3,))
    assert ProductObject(3, (((0, 1), 1), ((1, 2), 2))) == PRODUCT != ProductObject.of(5, {(1, 2): 2, (0, 1): 1})


def test_hash_is_the_dataclass_formula():
    assert hash(IND) == hash((2, L13))
    assert hash(OBJ) == hash((OBJ.summands,))
    assert hash(RING) == hash((RING.terms,))
    assert hash(TOKEN) == hash(("INT", "12", 0))
    assert len({IND, Indecomposable(2, L13), OBJ, RING}) == 3
    assert hash(CLOSURE) == hash((CLOSURE.classes, False))
    assert hash(FORM) == hash((2, L13)) == hash(IND) and len({FORM, IND}) == 2
    assert hash(LABEL) == hash((True, 0, (3,)))
    assert hash(PRODUCT) == hash((3, (((0, 1), 1), ((1, 2), 2))))


def test_repr_names_the_fields():
    assert repr(Indecomposable(2)) == f"Indecomposable(rank=2, twist={TRIVIAL!r})"
    assert repr(atiyah(2)) == f"BundleObject(summands=(({Indecomposable(2)!r}, 1),))"
    assert repr(RingElement.of([Indecomposable(1)])) == (
        f"RingElement(terms=(({Indecomposable(1)!r}, Fraction(1, 1)),))"
    )
    assert repr(BundleObject()) == "BundleObject(summands=())"
    assert repr(TOKEN) == "_Token(kind='INT', value='12', offset=0)"
    assert repr(SummandClosure(frozenset(), True)) == "SummandClosure(classes=frozenset(), stabilized=True)"
    assert repr(ClosedForm(3)) == f"ClosedForm(rank=3, twist={TRIVIAL!r})"
    assert repr(TannakianLabel(False)) == "TannakianLabel(unipotent=False, free_rank=0, torsion=())"
    assert repr(PRODUCT) == "ProductObject(modulus=3, components=(((0, 1), 1), ((1, 2), 2)))"


@pytest.mark.parametrize(
    "cls, params",
    [
        (SummandClosure, [("classes", None), ("stabilized", None)]),
        (ClosedForm, [("rank", None), ("twist", TRIVIAL)]),
        (TannakianLabel, [("unipotent", None), ("free_rank", 0), ("torsion", ())]),
        (ProductObject, [("modulus", None), ("components", ())]),
    ],
)
def test_constructors_take_their_fields_by_position_or_name(cls, params):
    signature = inspect.signature(cls)
    empty = inspect.Parameter.empty
    assert [(p.name, None if p.default is empty else p.default) for p in signature.parameters.values()] == params
    assert {p.kind for p in signature.parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    value = {SummandClosure: CLOSURE, ClosedForm: FORM, TannakianLabel: LABEL, ProductObject: PRODUCT}[cls]
    fields = {name: getattr(value, name) for name, _ in params}
    assert cls(**fields) == value == cls(*fields.values())


def test_public_constructors_check_their_fields():
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        Indecomposable(0)
    with pytest.raises(TypeError, match="must be a LineBundleClass"):
        Indecomposable(2, (0, 0))
    e2, e3 = Indecomposable(2), Indecomposable(3)
    with pytest.raises(ValueError, match="summands must be strictly sorted"):
        BundleObject(((e3, 1), (e2, 1)))
    with pytest.raises(ValueError, match="summands must be strictly sorted"):
        BundleObject(((e2, 1), (e2, 1)))
    with pytest.raises(ValueError, match="invalid coefficient in summands"):
        BundleObject(((e2, 0),))
    with pytest.raises(ValueError, match="terms must be strictly sorted"):
        RingElement(((e3, Fraction(1)), (e2, Fraction(1))))
    with pytest.raises(ValueError, match="invalid coefficient in terms"):
        RingElement(((e2, 1),))
    assert BundleObject(((e2, 1), (e3, 2))) == BundleObject.of({e3: 2, e2: 1})
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        ClosedForm(True)
    with pytest.raises(TypeError, match="the twist must be a LineBundleClass"):
        ClosedForm(2, 2)
    with pytest.raises(ValueError, match="the twist must have finite order"):
        ClosedForm(2, line_class(free={"g": 1}))
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        ProductObject(0)
    with pytest.raises(ValueError, match="characters must be integers reduced modulo the modulus"):
        ProductObject(3, (((3, 1), 1),))
    with pytest.raises(ValueError, match="block sizes and multiplicities must be positive integers"):
        ProductObject(3, (((0, 1), 0),))
    with pytest.raises(ValueError, match="components must be strictly sorted"):
        ProductObject(3, (((1, 1), 1), ((0, 1), 1)))
    # A mutable container would be stored as given: unhashable, and unequal
    # to the value built from a tuple.
    with pytest.raises(TypeError, match="summands must be a tuple of"):
        BundleObject([(e2, 1)])
    with pytest.raises(TypeError, match="summands must be a tuple of"):
        BundleObject(((2, 1),))
    with pytest.raises(TypeError, match="terms must be a tuple of"):
        RingElement([(e2, Fraction(1))])
    with pytest.raises(TypeError, match="terms must be a tuple of"):
        RingElement(((2, Fraction(1)),))
    with pytest.raises(TypeError, match="components must be a tuple"):
        ProductObject(3, [((0, 1), 1)])
    # A list inside the tuple would be stored as given too, or fail with a bare
    # TypeError from hashing it.
    with pytest.raises(TypeError, match="summands must be a tuple of"):
        BundleObject(([e2, 1],))
    with pytest.raises(TypeError, match="summands must be a tuple of"):
        BundleObject(((e2, 1, 1),))
    with pytest.raises(TypeError, match="terms must be a tuple of"):
        RingElement(([e2, Fraction(1)],))
    with pytest.raises(TypeError, match=r"components must be a tuple of \(\(character, block\), multiplicity\)"):
        ProductObject(3, (([0, 1], 1),))
    with pytest.raises(TypeError, match="components must be a tuple of"):
        ProductObject(3, ([(0, 1), 1],))
    with pytest.raises(TypeError, match="torsion must be a tuple"):
        TannakianLabel(True, 0, [3])
    with pytest.raises(TypeError, match="classes must be a frozenset"):
        SummandClosure({e2}, True)
    with pytest.raises(TypeError, match="classes must be a frozenset of Indecomposable"):
        SummandClosure(frozenset({1, "x"}), True)
    with pytest.raises(TypeError, match="classes must be a frozenset of Indecomposable"):
        SummandClosure(frozenset({e2, (2, TRIVIAL)}), True)
    for stabilized in ("yes", 1, None):
        with pytest.raises(TypeError, match="stabilized must be a bool"):
            SummandClosure(frozenset({e2}), stabilized)
    for unipotent in (1, "yes", None):
        with pytest.raises(TypeError, match="unipotent must be a bool"):
            TannakianLabel(unipotent)
    for free_rank in (-1, True, 1.0, "1"):
        with pytest.raises(ValueError, match="free_rank must be a nonnegative integer"):
            TannakianLabel(True, free_rank)
    for torsion in (("x",), (1,), (0,), (-2,), (True,), (2.0,), (3, 1)):
        with pytest.raises(ValueError, match="torsion orders must be integers of at least 2"):
            TannakianLabel(True, 0, torsion)
    with pytest.raises(ValueError, match="free_rank must be a nonnegative integer"):
        TannakianLabel(True, -2, ("x",))

