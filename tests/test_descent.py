import pytest

from edspower import (
    EDSTerm,
    HypothesisError,
    construct,
    decompose,
    term,
    to_frey,
)


def test_known_decompositions(base_curve, base_point, base_seq):
    expected = {
        1: (5, 2, 9),
        2: (1, 79, 6881),
        3: (5, 11834, 498029769),
        4: (1, 30552001, 3550271935059841),
        5: (5, 186059465930, 2279682657974436345714249),
    }
    for m, (a, u, v) in expected.items():
        t = base_seq.terms[m - 1]
        d = decompose(base_curve, t, 1, t.B)
        assert (d.a, d.u, d.v) == (a, u, v)
        assert t.A == d.a * d.u**2
        assert abs(t.C) == d.a * d.u * d.v
        assert d.v**2 - d.a * d.u**4 == (d.b // d.a) * d.w ** (4 * d.ell)


def test_quartic_identity_doubled_generator():
    assert 6881**2 - 79**4 == 8398080
    assert 8398080 == 5 * 36**4


def test_decompose_with_maximal_exponent(base_curve, base_seq):
    t = base_seq.terms[1]  # B = 36 = 6^2
    d = decompose(base_curve, t, 2, 6)
    assert (d.a, d.u, d.v, d.w, d.ell) == (1, 79, 6881, 6, 2)
    assert d.v**2 - d.a * d.u**4 == 5 * 6**8


def test_decompose_validation(base_curve, base_seq):
    t = base_seq.terms[1]
    with pytest.raises(ValueError):
        decompose(base_curve, t, 2, 5)  # 5^2 != 36
    with pytest.raises(ValueError):
        decompose(base_curve, t, 0, 36)
    with pytest.raises(HypothesisError):
        decompose(base_curve, EDSTerm(1, 0, 1, 0), 1, 1)  # the 2-torsion shape


def test_to_frey_and_construct(base_curve, base_seq):
    for m in range(1, 6):
        t = base_seq.terms[m - 1]
        d = decompose(base_curve, t, 1, t.B)
        sol = to_frey(d)
        assert (sol.a, sol.d) == (d.a, d.b // d.a)
        assert (sol.u, sol.v, sol.w, sol.ell) == (d.u, d.v, d.w, d.ell)
        F = construct(sol)  # validates the quartic again
        assert F.field_label == d.a
