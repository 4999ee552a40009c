"""The ctypes binding is where Python data reaches unchecked C: every array
must arrive with the dtype, dimensions and layout the C code assumes, or be
refused before the call."""

import numpy as np
import pytest

from webcred._kernels import pure
from webcred.rng import stream_seed


def split_problem():
    rng = np.random.default_rng(5)
    X = np.ascontiguousarray(rng.random((30, 6)))
    rows = np.arange(0, 30, 2, dtype=np.int32)
    feats = np.array([4, 2, 5, 1], dtype=np.int32)  # the best split is on 1
    y = (rng.random(30) < 0.5).astype(np.int8)
    return {"X": X, "rows": rows, "feats": feats, "y": y}


def svm_problem():
    # One nonzero per row, so every dot product is a single product and the
    # pure kernel's BLAS sums agree with the C loop bit for bit.
    n, dim = 12, 5
    return {
        "indptr": np.arange(n + 1, dtype=np.int64),
        "indices": (np.arange(n) % dim).astype(np.int32),
        "data": np.linspace(0.2, 1.3, n),
        "y": np.where(np.arange(n) % 3 == 0, 1.0, -1.0),
    }, dim


def call_split(impl, args):
    return impl.node_best_split(args["X"], args["rows"], args["feats"], args["y"])


def call_svm(impl, args, dim, seed=7):
    return impl.svm_fit(args["indptr"], args["indices"], args["data"], args["y"],
                        dim, 0.5, 1e-6, 40, seed)


def assert_same_fit(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert got[1] == want[1] and got[3:] == want[3:]


def strided(a):
    """The same values as ``a`` in a non-C-contiguous view."""
    if a.ndim == 2:
        return np.asfortranarray(a)
    doubled = np.repeat(a, 2)
    return doubled[::2]


SPLIT_DTYPES = {"X": np.float32, "rows": np.int64, "feats": np.int64, "y": np.int64}
SVM_DTYPES = {"indptr": np.int32, "indices": np.int64, "data": np.float32,
              "y": np.int64}


@pytest.mark.parametrize("name", sorted(SPLIT_DTYPES))
def test_split_refuses_wrong_dtype_and_ndim(compiled_kernels, name):
    args = split_problem()
    with pytest.raises(TypeError, match=name):
        call_split(compiled_kernels, {**args, name: args[name].astype(SPLIT_DTYPES[name])})
    wrong_ndim = args[name][None] if name != "X" else args[name].ravel()
    with pytest.raises(TypeError, match=name):
        call_split(compiled_kernels, {**args, name: wrong_ndim})


@pytest.mark.parametrize("name", sorted(SPLIT_DTYPES))
def test_split_copies_non_contiguous_input(compiled_kernels, name):
    args = split_problem()
    view = strided(args[name])
    assert not view.flags.c_contiguous and np.array_equal(view, args[name])
    got = call_split(compiled_kernels, {**args, name: view})
    assert got == call_split(pure, args) and got[0] >= 0


@pytest.mark.parametrize("name", sorted(SVM_DTYPES))
def test_svm_refuses_wrong_dtype_and_ndim(compiled_kernels, name):
    args, dim = svm_problem()
    with pytest.raises(TypeError, match=name):
        call_svm(compiled_kernels, {**args, name: args[name].astype(SVM_DTYPES[name])}, dim)
    with pytest.raises(TypeError, match=name):
        call_svm(compiled_kernels, {**args, name: args[name][None]}, dim)


@pytest.mark.parametrize("name", sorted(SVM_DTYPES))
def test_svm_copies_non_contiguous_input(compiled_kernels, name):
    args, dim = svm_problem()
    view = strided(args[name])
    assert not view.flags.c_contiguous
    assert_same_fit(call_svm(compiled_kernels, {**args, name: view}, dim),
                    call_svm(pure, args, dim))


def test_svm_matches_pure_for_seeds_above_2_63(compiled_kernels):
    args, dim = svm_problem()
    seeds = [s for s in (stream_seed(1, i) for i in range(8)) if s >= 1 << 63]
    assert seeds
    for seed in seeds + [(1 << 64) - 1]:
        assert_same_fit(call_svm(compiled_kernels, args, dim, seed),
                        call_svm(pure, args, dim, seed))


def test_out_of_range_indices_raise_before_reading(compiled_kernels):
    args = split_problem()
    for name, bad in (("rows", 30), ("rows", -1), ("feats", 6)):
        broken = args[name].copy()
        broken[-1] = bad
        with pytest.raises(IndexError):
            call_split(compiled_kernels, {**args, name: broken})
    args, dim = svm_problem()
    with pytest.raises(IndexError):
        call_svm(compiled_kernels, args, dim - 1)
    with pytest.raises(IndexError):
        call_svm(compiled_kernels, {**args, "indptr": args["indptr"][::-1].copy()}, dim)
    with pytest.raises(ValueError):
        call_svm(compiled_kernels, {**args, "indptr": args["indptr"][:-1]}, dim)
