import numpy as np
import pytest

from sumhess import _kernels


def test_deleted_sym_definition():
    rng = np.random.default_rng(5)
    lam = rng.normal(size=(1, 6))
    for degree in range(6):
        table = _kernels.deleted_sym(lam, degree)[0]
        for i in range(6):
            reduced = np.delete(lam[0], i)
            expected = _kernels.elem_sym_all(reduced, degree)[degree]
            assert table[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("k", [1, 10])
def test_cone_margin_is_min_of_s1_to_sk(k):
    rng = np.random.default_rng(7)
    lams = rng.normal(0.5, 1.0, size=(50, 10))
    s = _kernels.elem_sym_all(lams, 10)
    margins = _kernels.cone_margin(s, k)
    expected = np.array([min(row[1 : k + 1]) for row in s])
    assert margins.shape == (50,)
    assert np.array_equal(margins, expected)
    # one row in gives one margin out
    single = _kernels.cone_margin(_kernels.elem_sym_all(lams[3], 10), k)
    assert np.ndim(single) == 0
    assert single == expected[3]


def test_cone_margin_nan_row_is_not_admissible():
    lams = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 1.0]])
    margins = _kernels.cone_margin(_kernels.elem_sym_all(lams, 3), 2)
    assert margins[0] == 6.0  # S_1 = 6, S_2 = 11
    assert np.isnan(margins[1])
    assert not margins[1] > 0
