import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.cases import adaptability, classify


SIGNS = (-1, 1)


def test_sixteen_distinct_cases():
    labels = {
        classify(sa, sbc, sl, sm).label
        for sa, sbc, sl, sm in itertools.product(SIGNS, SIGNS, SIGNS, SIGNS)
    }
    assert len(labels) == 16


def test_reference_case(ref):
    case, adapt = tl.classify_system(ref)
    assert case.label == "II_{++}"
    assert adapt.adaptable


def test_adaptable_set_is_the_nine_cases():
    expected = {
        "I_{--}",
        "II_{++}",
        "II_{+-}",
        "II_{-+}",
        "II_{--}",
        "III_{-+}",
        "III_{--}",
        "IV_{--}",
        "IV_{+-}",
    }
    assert set(tl.adaptable_labels()) == expected
    assert tl.adaptable_count() == 9


def test_case_roman_group_tracks_a_and_bc():
    # group I..IV is the (sign a, sign bc) quadrant; subscripts are the
    # eigenvalue signs
    assert classify(1, 1, 1, 1).label == "I_{++}"
    assert classify(1, -1, 1, 1).label == "II_{++}"
    assert classify(-1, 1, 1, 1).label == "III_{++}"
    assert classify(-1, -1, 1, 1).label == "IV_{++}"
    assert classify(1, -1, -1, 1).label == "II_{-+}"
    assert classify(1, -1, 1, -1).label == "II_{+-}"


@given(
    st.sampled_from(SIGNS),
    st.sampled_from(SIGNS),
    st.sampled_from(SIGNS),
    st.sampled_from(SIGNS),
)
def test_classification_round_trips(sa, sbc, sl, sm):
    case = classify(sa, sbc, sl, sm)
    assert case.sign_a == sa
    assert case.sign_bc == sbc
    assert case.sign_lam == sl
    assert case.sign_mu == sm
    # adaptability is a pure function of the case
    a1 = adaptability(case)
    a2 = adaptability(classify(sa, sbc, sl, sm))
    assert a1 == a2


def test_zero_signs_rejected(ref):
    with pytest.raises(tl.DomainError):
        classify(0, 1, 1, 1)


def test_f_image_flag_tracks_the_mirrored_quadrant():
    # the extra f-image is needed exactly when the fold lands in Q2
    for sa, sbc, sl, sm in itertools.product(SIGNS, SIGNS, SIGNS, SIGNS):
        adapt = adaptability(classify(sa, sbc, sl, sm))
        assert adapt.needs_f_image == (adapt.sn_quadrant == "Q2")


def test_adaptable_cases_have_a_quadrant():
    for sa, sbc, sl, sm in itertools.product(SIGNS, SIGNS, SIGNS, SIGNS):
        adapt = adaptability(classify(sa, sbc, sl, sm))
        if adapt.adaptable:
            assert adapt.sn_quadrant in ("Q1", "Q2")
        else:
            assert adapt.region is None

