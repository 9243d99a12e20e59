"""Kernel dispatch, and the active and fallback kernels against their plain
loop twins (the ``_*_impl`` functions, run uncompiled).

Integer outputs (feature indices, flag vectors) must match exactly; float
accumulations may differ in the last ulps where the fallback sums pairwise.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from sentid import _kernels
from sentid._kernels import (
    _dp_decode_impl,
    _score_rows_impl,
    _score_rows_numpy,
    _sgd_rows_impl,
    _sgd_rows_numpy,
    _window_indices_impl,
    _window_indices_numpy,
)


def random_csr(rng, nrows, dim):
    counts = rng.integers(1, 12, nrows)
    indptr = np.zeros(nrows + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = rng.integers(0, dim, indptr[-1]).astype(np.int64)
    return indices, indptr


class TestDispatch:
    def test_numba_active_by_default(self, monkeypatch):
        # guard the env wiring: numba is active exactly when the flag was unset
        # at import and numba is importable
        flag_unset = os.environ.get("SENTID_NO_NUMBA", "0").lower() not in ("1", "true", "yes")
        has_numba = importlib.util.find_spec("numba") is not None
        assert _kernels.using_numba() == (flag_unset and has_numba)

        monkeypatch.delenv("SENTID_NO_NUMBA", raising=False)
        assert _kernels._numba_enabled()
        for value in ("1", "true", "yes"):
            monkeypatch.setenv("SENTID_NO_NUMBA", value)
            assert not _kernels._numba_enabled()

    def test_env_flag_selects_fallback(self):
        script = (
            "import numpy as np, sentid\n"
            "from sentid.decode import identify, DecoderConfig\n"
            "from sentid.model import ProbMatrix\n"
            "assert not sentid.using_numba()\n"
            "rng = np.random.default_rng(0)\n"
            "m = ProbMatrix(rng.random(25), rng.random(25))\n"
            "r = identify(m, DecoderConfig(candidate_threshold=0.1))\n"
            "print(repr(r.su_spans), r.labels.labels)\n"
        )
        env = dict(os.environ, SENTID_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        # same decode under the jitted path
        rng = np.random.default_rng(0)
        from sentid.decode import DecoderConfig, identify
        from sentid.model import ProbMatrix

        r = identify(ProbMatrix(rng.random(25), rng.random(25)), DecoderConfig(0.1))
        assert out.stdout.strip() == f"{r.su_spans!r} {r.labels.labels}"


class TestDpDecodeParity:
    def test_matches_fallback(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p_bos, p_eos = rng.random(n), rng.random(n)
            lb1, lb0 = np.log(np.maximum(p_bos, 1e-12)), np.log(np.maximum(1 - p_bos, 1e-12))
            le1, le0 = np.log(np.maximum(p_eos, 1e-12)), np.log(np.maximum(1 - p_eos, 1e-12))
            ok_b = (p_bos >= 0.1).astype(np.uint8)
            ok_e = (p_eos >= 0.1).astype(np.uint8)
            got = _kernels.dp_decode(lb1, lb0, le1, le0, ok_b, ok_e)
            ref = _dp_decode_impl(lb1, lb0, le1, le0, ok_b, ok_e)
            assert got[0] == pytest.approx(ref[0], abs=1e-12)
            assert np.array_equal(got[1], ref[1])
            assert np.array_equal(got[2], ref[2])


class TestWindowIndicesParity:
    def test_identical_indices(self):
        rng = np.random.default_rng(32)
        mask, pad = np.uint64(2**14 - 1), np.uint64(12345)
        windows = ((-3, 3), (0, 3), (-3, 0), (-5, 5), (0, 5), (-5, 0), (0, 0), (-1, 2))
        for trial in range(40):
            # n = 0 and tokens without hashes are where a flat gather can slip
            n_tok = 0 if trial == 0 else int(rng.integers(1, 20))
            counts = rng.integers(1, 8, n_tok)
            if trial % 2 and n_tok:
                counts[rng.integers(0, n_tok, 2)] = 0
            indptr = np.zeros(n_tok + 1, np.int64)
            np.cumsum(counts, out=indptr[1:])
            hashes = rng.integers(0, 2**32, indptr[-1], dtype=np.uint64)
            for lo, hi in windows:
                # the loop twin's uint64 scalar multiplies wrap by design
                with np.errstate(over="ignore"):
                    ref = _window_indices_impl(hashes, indptr, n_tok, lo, hi, mask, pad)
                for fn in (_kernels.window_indices, _window_indices_numpy):
                    got = fn(hashes, indptr, n_tok, lo, hi, mask, pad)
                    assert got[0].dtype == np.int64 and got[1].dtype == np.int64
                    assert np.array_equal(got[0], ref[0])
                    assert np.array_equal(got[1], ref[1])


class TestSgdParity:
    def test_same_training_trajectory(self):
        rng = np.random.default_rng(33)
        dim = 512
        indices, indptr = random_csr(rng, 40, dim)
        targets = rng.integers(0, 2, 40).astype(np.float64)
        w_ref = np.zeros(dim + 1)
        for _ in range(5):
            _sgd_rows_impl(w_ref, indices, indptr, targets, 0.3)
        for fn in (_kernels.sgd_rows, _sgd_rows_numpy):
            w = np.zeros(dim + 1)
            for _ in range(5):
                fn(w, indices, indptr, targets, 0.3)
            np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-12)

    def test_duplicate_indices_in_row(self):
        # hash collisions put the same index twice in one row
        indices = np.array([3, 3, 7], np.int64)
        indptr = np.array([0, 3], np.int64)
        targets = np.array([1.0])
        w_ref = np.zeros(9)
        _sgd_rows_impl(w_ref, indices, indptr, targets, 0.5)
        for fn in (_kernels.sgd_rows, _sgd_rows_numpy):
            w = np.zeros(9)
            fn(w, indices, indptr, targets, 0.5)
            assert w[3] == pytest.approx(2 * w[7])
            np.testing.assert_allclose(w, w_ref, rtol=1e-12)


class TestScoreParity:
    def test_matches(self):
        rng = np.random.default_rng(34)
        dim = 256
        w = rng.normal(size=dim + 1)
        indices, indptr = random_csr(rng, 30, dim)
        ref = _score_rows_impl(w, indices, indptr)
        for fn in (_kernels.score_rows, _score_rows_numpy):
            got = fn(w, indices, indptr)
            np.testing.assert_allclose(got, ref, rtol=1e-12)
            assert (got > 0).all() and (got < 1).all()

    def test_extreme_scores_stay_in_range(self):
        w = np.array([800.0, -800.0, 0.0])
        indices = np.array([0, 1], np.int64)
        indptr = np.array([0, 1, 2], np.int64)
        for fn in (_kernels.score_rows, _score_rows_numpy, _score_rows_impl):
            got = fn(w, indices, indptr)
            assert got[0] == pytest.approx(1.0)
            assert got[1] == pytest.approx(0.0)
            assert not np.isnan(got).any()
