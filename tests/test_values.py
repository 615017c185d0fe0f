"""Value classes: their fields are fixed at construction, and equality and
hash follow the tuple of their fields."""

from fractions import Fraction

import pytest

from spets.cyclotomic import CycloField, zeta
from spets.hecke import (CyclicHeckeParams, compactify, noncompactify,
                         one_spetsial_spec, parse_spec, schur_cyclic)
from spets.laurent import FracExpMonomial, k_cyclotomic_factors
from spets.orders import cyclic_char_table
from spets.reflection import SubCoset, build_group
from spets.tabledata import _g4_hc


def _sub_coset():
    G = build_group("Z_3")
    return SubCoset(G, (0,), 0, 1)


@pytest.mark.parametrize("make, field", [
    (lambda: CyclicHeckeParams.of(["x^3", "-1"]), "e"),
    (lambda: schur_cyclic(CyclicHeckeParams.of(["x^3", "-1"]))[0], "h"),
    (lambda: one_spetsial_spec(3), "m"),
    (lambda: FracExpMonomial.of(zeta(3), 2), "exp"),
    (lambda: k_cyclotomic_factors(3, CycloField.cyclotomic(1))[0], "label"),
    (lambda: cyclic_char_table(build_group("Z_3")), "names"),
    (lambda: build_group("Z_3").classes[0], "size"),
    (_sub_coset, "twist"),
    (_g4_hc, "levi_gen"),
], ids=["CyclicHeckeParams", "SchurElement", "SpetsialAlgebraSpec", "FracExpMonomial",
        "KCycloPoly", "CharTable", "ConjClass", "SubCoset", "HCDatum"])
def test_fields_cannot_be_assigned(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) is before


def _spec_fields(s):
    return (s.e, s.d, s.a, s.m, s.variant, s.n_ref, s.n_hyp, s.label)


@pytest.mark.parametrize("values, fields", [
    ([FracExpMonomial.of(1), FracExpMonomial(zeta(1), Fraction(0)),
      FracExpMonomial.of(zeta(3), Fraction(1, 2)), FracExpMonomial.of(-1, 2)],
     lambda m: (m.coeff, m.exp)),
    ([CyclicHeckeParams.of(["x^3", "-1"]), CyclicHeckeParams.of(["x^3", "-1"]),
      CyclicHeckeParams.of(["-1", "x^3"]), CyclicHeckeParams.of(["x", "E(3,1)", "E(3,2)"])],
     lambda p: (p.e, p.params)),
    ([one_spetsial_spec(3), compactify(noncompactify(one_spetsial_spec(3))),
      noncompactify(one_spetsial_spec(3)), one_spetsial_spec(3, n_hyp=2),
      parse_spec("H_{Z_3}(x, (E(3,1)), (E(3,2)))", 1, 0, n_ref=2, n_hyp=1)],
     _spec_fields),
], ids=["FracExpMonomial", "CyclicHeckeParams", "SpetsialAlgebraSpec"])
def test_equality_and_hash_follow_the_fields(values, fields):
    for a in values:
        assert hash(a) == hash(fields(a))
        assert a != fields(a)
        for b in values:
            assert (a == b) == (fields(a) == fields(b))
            assert (a != b) == (fields(a) != fields(b))
    assert values[0] == values[1]
