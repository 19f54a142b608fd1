"""The immutable value types compare and hash by their fields, and refuse
assignment and deletion."""

from fractions import Fraction as F

import pytest

from phasecat.category import Morphism
from phasecat.germs import PolyGerm, parse_germ
from phasecat.largedev import DiscreteObservable
from phasecat.permgroup import Subgroup, SubgroupClass, closure
from phasecat.singularity import CorpusEntry, QuasihomogeneousGerm

C3 = closure(3, [[1, 2, 0]])
H = Subgroup(C3, (2, 0, 1))

# name -> (field, build, value, other): build(v) sets that field to v
VALUES = {
    "Subgroup": ("members", lambda v: Subgroup(C3, v), (0, 1, 2), (0,)),
    "SubgroupClass": ("class_index",
                      lambda v: SubgroupClass(H, (H,), v, ()), 0, 1),
    "Morphism": ("data", lambda v: Morphism(0, 1, "f", v), None, (1, 2)),
    "PolyGerm": ("variable_count",
                 lambda v: PolyGerm(v, (((2,) + (0,) * (v - 1), 1),)), 1, 2),
    "QuasihomogeneousGerm": (
        "germ", lambda v: QuasihomogeneousGerm(parse_germ(v), (F(1, 2),)),
        "x^2", "2*x^2"),
    "CorpusEntry": ("codim", lambda v: CorpusEntry("A1", "x^2", (F(1, 2),),
                                                   1, v), 0, 1),
    "DiscreteObservable": ("outcomes", DiscreteObservable,
                           ((0, .5), (1, .5)), ((0, .5), (2, .5))),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type(name):
    field, build, value, other = VALUES[name]
    a, b = build(value), build(value)
    assert a is not b and a == b and hash(a) == hash(b)
    assert build(other) != a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
