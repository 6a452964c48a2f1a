import json

import numpy as np
import pytest

from sumhess import _kernels, solver
from sumhess.lift import ConeSpec
from oracles import deleted_sym_rows, elem_sym_rows


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


@pytest.mark.parametrize(
    "dtype,expected",
    [(np.longdouble, np.longdouble), (np.float64, np.float64), (np.int64, np.float64)],
    ids=["longdouble", "float64", "int64"],
)
def test_kernels_keep_a_wider_input_dtype_and_otherwise_give_float64(dtype, expected):
    lams = np.arange(12).reshape(3, 4).astype(dtype)
    idx = np.array([[0, 1], [0, 2], [1, 3]])
    assert _kernels.elem_sym_all(lams, 3).dtype == expected
    assert _kernels.subset_sums(lams, idx).dtype == expected
    assert _kernels.deleted_sym(lams, 2).dtype == expected
    assert _kernels.fold_tuple_gradient(lams[:, :3], idx, 4).dtype == expected
    # a float64 input is used as it is, not copied
    if dtype is np.float64:
        assert _kernels.as_float(lams) is lams


def test_box_solve_report_is_unchanged_by_the_kernel_dtype_rule(monkeypatch):
    # the box path stays float64: forcing every kernel input to float64, as
    # before the rule kept wider inputs, gives the same report byte for byte
    def report():
        problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
        state, _ = solver.box_solve(problem, 17)
        return json.dumps(state.as_dict(), sort_keys=True)

    kept = report()
    monkeypatch.setattr(_kernels, "as_float", lambda x: np.asarray(x, dtype=np.float64))
    assert report() == kept
    assert json.loads(kept)["diagnostics"]["state_dtype"] == "float64"


def _kernel_inputs(shape, dtype, seed):
    # signed entries of mixed scale, with exact and negative zeros, so that
    # a changed product or summation order shows in the last bit
    rng = np.random.default_rng(seed)
    if dtype is np.int64:
        return rng.integers(-5, 6, size=shape).astype(np.int64)
    x = rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 3.0, size=shape))
    x[rng.uniform(size=shape) < 0.1] = 0.0
    x[rng.uniform(size=shape) < 0.1] = -0.0
    return x.astype(dtype)


def _assert_same_bits(got, expected):
    # equal values, shapes and dtypes; the sign bits tell -0.0 from 0.0
    np.testing.assert_array_equal(got, expected, strict=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 10, 15])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.int64],
                         ids=["float64", "longdouble", "int64"])
def test_symmetric_kernels_match_the_row_major_recurrences_bit_for_bit(dtype, size):
    # a 1-D input is one row, where a batch column is a numpy scalar
    for batch in [(), (64,), (3, 5)]:
        lams = _kernel_inputs(batch + (size,), dtype, seed=size)
        for degree in range(size + 1):
            _assert_same_bits(_kernels.elem_sym_all(lams, degree), elem_sym_rows(lams, degree))
            _assert_same_bits(_kernels.deleted_sym(lams, degree),
                              deleted_sym_rows(lams, degree))


@pytest.mark.parametrize("batch", [(64,), (3, 5)])
def test_symmetric_kernel_tables_keep_the_batch_contiguous(batch):
    # cone_margin reduces the S table column by column, and the cone checks
    # sum deleted_sym rows in numpy's order for a C-order table
    lams = _kernel_inputs(batch + (7,), np.float64, seed=1)
    s = _kernels.elem_sym_all(lams, 4)
    assert s.shape == batch + (5,)
    assert all(s[..., j].flags.c_contiguous for j in range(5))
    assert _kernels.deleted_sym(lams, 3).flags.c_contiguous
