"""Value semantics of the hand-written value types.

``Indecomposable``, ``BundleObject``, ``RingElement`` and the tokenizer's
``_Token`` behave as frozen dataclasses would: fields cannot be assigned or
deleted, equality holds only within one class, the hash is the dataclass
formula (which also fixes the iteration order of frozensets of them), and
the repr has the ``Name(field=...)`` shape.
"""

from fractions import Fraction

import pytest

from ellbundle import (
    TRIVIAL,
    BundleObject,
    Indecomposable,
    RingElement,
    atiyah,
    line_class,
    parse_object,
)
from ellbundle.expr import _tokenize

L13 = line_class(Fraction(1, 3), 0)
IND = Indecomposable(2, L13)
OBJ = parse_object("E[2]*L[1/3,0] + 2*E[3]*Tg")
RING = RingElement.from_object(OBJ)
TOKEN = _tokenize("12")[0]

VALUES = [(IND, "rank"), (OBJ, "summands"), (RING, "terms"), (TOKEN, "kind")]


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


def test_hash_is_the_dataclass_formula():
    assert hash(IND) == hash((2, L13))
    assert hash(OBJ) == hash((OBJ.summands,))
    assert hash(RING) == hash((RING.terms,))
    assert hash(TOKEN) == hash(("INT", "12", 0))
    assert len({IND, Indecomposable(2, L13), OBJ, RING}) == 3


def test_repr_names_the_fields():
    assert repr(Indecomposable(2)) == f"Indecomposable(rank=2, twist={TRIVIAL!r})"
    assert repr(atiyah(2)) == f"BundleObject(summands=(({Indecomposable(2)!r}, 1),))"
    assert repr(RingElement.of([Indecomposable(1)])) == (
        f"RingElement(terms=(({Indecomposable(1)!r}, Fraction(1, 1)),))"
    )
    assert repr(BundleObject()) == "BundleObject(summands=())"
    assert repr(TOKEN) == "_Token(kind='INT', value='12', offset=0)"


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

