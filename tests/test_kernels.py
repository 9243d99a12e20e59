"""The kernels against the plain loop references in ``oracles``.

Integer outputs (feature indices, spans) must match exactly; float
accumulations may differ in the last ulps where the kernels sum pairwise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentid import _kernels

from oracles import (
    dp_decode_loop,
    score_rows_loop,
    sgd_rows_loop,
    sgd_rows_numpy,
    span_dp,
    window_indices_loop,
)


def random_csr(rng, nrows, dim):
    counts = rng.integers(1, 12, nrows)
    indptr = np.zeros(nrows + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = rng.integers(0, dim, indptr[-1]).astype(np.int64)
    return indices, indptr


def folded(lb1, lb0, le1, le0, bos_ok, eos_ok):
    """The kernel's four log terms: a masked-out flag's open/close term is -inf, its stay term 0.0."""
    return (
        np.where(bos_ok, lb1, -np.inf), np.where(bos_ok, lb0, 0.0),
        np.where(eos_ok, le1, -np.inf), np.where(eos_ok, le0, 0.0),
    )


def flag_spans(bos, eos):
    """Half-open spans of an oracle's alternating begin/end flag vectors."""
    return tuple(zip(np.flatnonzero(bos).tolist(), (np.flatnonzero(eos) + 1).tolist()))


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
            got = _kernels.dp_decode(*folded(lb1, lb0, le1, le0, ok_b, ok_e))
            ref = span_dp(lb1, lb0, le1, le0, ok_b, ok_e)
            assert got[0] == pytest.approx(ref[0], abs=1e-12)
            assert got[1] == flag_spans(ref[1], ref[2])


def dp_inputs(p_bos, p_eos, c):
    p_bos, p_eos = np.asarray(p_bos, np.float64), np.asarray(p_eos, np.float64)
    lb1, lb0 = np.log(np.maximum(p_bos, 1e-12)), np.log(np.maximum(1 - p_bos, 1e-12))
    le1, le0 = np.log(np.maximum(p_eos, 1e-12)), np.log(np.maximum(1 - p_eos, 1e-12))
    return lb1, lb0, le1, le0, (p_bos >= c).astype(np.uint8), (p_eos >= c).astype(np.uint8)


_PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.99, 1.0]))


class TestDpDecodeMatchesLoop:
    """The candidate-only DP on folded terms against the every-position loop, bit for bit."""

    def assert_identical(self, args):
        logp, spans = _kernels.dp_decode(*folded(*args))
        ref = dp_decode_loop(*args)
        assert float(logp).hex() == float(ref[0]).hex()
        assert type(spans) is tuple and all(type(x) is int for sp in spans for x in sp)
        assert spans == flag_spans(ref[1], ref[2])
        return logp, spans

    def test_every_position_pruned(self):
        p = np.random.default_rng(35).random((2, 30)) * 0.099
        logp, spans = self.assert_identical(dp_inputs(p[0], p[1], 0.1))
        # no spans, and the pruned flags add nothing
        assert logp == 0.0 and spans == ()

    def test_no_position_pruned(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            p = rng.random((2, int(rng.integers(1, 50))))
            self.assert_identical(dp_inputs(p[0], p[1], 0.0))

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.99])
    def test_one_token(self, c):
        for p_bos in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
            for p_eos in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
                self.assert_identical(dp_inputs([p_bos], [p_eos], c))

    @given(st.data())
    def test_random(self, data):
        n = data.draw(st.integers(1, 40))
        p_bos = data.draw(st.lists(_PROB, min_size=n, max_size=n))
        p_eos = data.draw(st.lists(_PROB, min_size=n, max_size=n))
        c = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.99]))
        self.assert_identical(dp_inputs(p_bos, p_eos, c))


def interleaved(n_cand, rng):
    """Flag probabilities of a document whose candidates at c = 0.1 are its odd positions."""
    n = 2 * n_cand + 1
    p = rng.random((2, n)) * 0.099  # every flag pruned ...
    p[:, 1::2] = 0.1 + 0.9 * rng.random((2, n_cand))  # ... but at the odd positions
    return p[0], p[1]


class TestDpDecodeChunks:
    """The DP walks its candidates a chunk at a time; chunk edges change no bit of its result."""

    @pytest.fixture(params=["module", 4])
    def chunk(self, request, monkeypatch):
        """The module's chunk size, or a small one that the explicit search can check."""
        if request.param != "module":
            monkeypatch.setattr(_kernels, "_DP_CHUNK", request.param)
        return _kernels._DP_CHUNK

    def assert_matches_oracles(self, args, chunk):
        logp, spans = _kernels.dp_decode(*folded(*args))
        ref = dp_decode_loop(*args)
        assert float(logp).hex() == float(ref[0]).hex()
        assert type(spans) is tuple and all(type(x) is int for sp in spans for x in sp)
        assert spans == flag_spans(ref[1], ref[2])
        if chunk < 64:  # the explicit search is cubic in the document length
            best, bos, eos = span_dp(*args)
            assert logp == pytest.approx(best, abs=1e-12)
            assert spans == flag_spans(bos, eos)
        return logp, spans

    @pytest.mark.parametrize("chunks, plus", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_candidate_counts_around_a_chunk(self, chunk, chunks, plus):
        n_cand = chunks * chunk + plus
        rng = np.random.default_rng(n_cand)
        for _ in range(3):
            p_bos, p_eos = interleaved(n_cand, rng)
            args = dp_inputs(p_bos, p_eos, 0.1)
            assert np.count_nonzero(args[4] | args[5]) == n_cand
            self.assert_matches_oracles(args, chunk)

    @pytest.mark.parametrize("opens", [1, 2, "chunk"])
    def test_span_across_a_chunk_edge(self, chunk, opens):
        # every position is a candidate; the one span that pays opens `opens`
        # positions before the first chunk ends and closes at the second's first
        opens = chunk if opens == "chunk" else opens
        n = 2 * chunk + 1
        p_bos, p_eos = np.full(n, 0.02), np.full(n, 0.02)
        p_bos[chunk - opens] = p_eos[chunk] = 0.99
        _, spans = self.assert_matches_oracles(dp_inputs(p_bos, p_eos, 0.0), chunk)
        assert spans == ((chunk - opens, chunk + 1),)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_candidate(self, chunk, n):
        p = np.full(n, 0.05)
        logp, spans = self.assert_matches_oracles(dp_inputs(p, p, 0.1), chunk)
        assert logp == 0.0 and spans == ()

    def test_holds_one_chunk_of_terms(self):
        # 60,000 candidates, none of which closes a span, so the DP records no
        # close: its working set is the candidate index array (8 bytes a
        # candidate), the masks that find it (3 bytes a position) and one chunk
        # of terms.  Term lists of the whole document took ~144 bytes a candidate.
        n = 60_000
        p = np.full(n, 0.2)
        args = folded(*dp_inputs(p, p, 0.1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logp, spans = _kernels.dp_decode(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert spans == () and logp < 0.0
        assert peak < 16 * n


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
                ref = window_indices_loop(hashes, indptr, n_tok, lo, hi, mask, pad, [n_tok])
                got = _kernels.window_indices(hashes, indptr, n_tok, lo, hi, mask, pad, [n_tok])
                assert got[0].dtype == np.int64 and got[1].dtype == np.int64
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1], ref[1])

    @given(
        counts=st.lists(st.lists(st.integers(0, 4), max_size=6), min_size=1, max_size=5),
        radius=st.integers(0, 4),
        side=st.sampled_from([(-1, 1), (-1, 0), (0, 1)]),
        seed=st.integers(0, 2**16),
    )
    @example(counts=[[], [2, 1], [], [3]], radius=2, side=(-1, 1), seed=0)  # empty documents
    @example(counts=[[1, 2], [3]], radius=0, side=(-1, 1), seed=0)
    @example(counts=[[1, 0, 2, 4]], radius=3, side=(0, 1), seed=0)  # a single document
    def test_documents_mixed_as_if_alone(self, counts, radius, side, seed):
        # each row of a call on several documents equals its row in a call on its document alone
        lo, hi = side[0] * radius, side[1] * radius
        mask, pad = np.uint64(2**10 - 1), np.uint64(777)
        doc_lens = [len(c) for c in counts]
        n = sum(doc_lens)
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum([k for c in counts for k in c], out=indptr[1:])
        hashes = np.random.default_rng(seed).integers(0, 2**63, indptr[-1], dtype=np.uint64)

        got = _kernels.window_indices(hashes, indptr, n, lo, hi, mask, pad, doc_lens)
        ref = window_indices_loop(hashes, indptr, n, lo, hi, mask, pad, doc_lens)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        rows, start = [], 0
        for length in doc_lens:
            t0 = indptr[start]
            idx, ptr = window_indices_loop(
                hashes[t0 : indptr[start + length]], indptr[start : start + length + 1] - t0,
                length, lo, hi, mask, pad, [length],
            )
            rows += [idx[ptr[i] : ptr[i + 1]].tolist() for i in range(length)]
            start += length
        assert [got[0][got[1][i] : got[1][i + 1]].tolist() for i in range(n)] == rows


class TestSgdParity:
    def test_same_training_trajectory(self):
        rng = np.random.default_rng(33)
        dim = 512
        indices, indptr = random_csr(rng, 40, dim)
        targets = rng.integers(0, 2, 40).astype(np.float64)
        w_ref = np.zeros(dim + 1)
        for _ in range(5):
            sgd_rows_loop(w_ref, indices, indptr, targets, 0.3)
        w = np.zeros(dim + 1)
        for _ in range(5):
            _kernels.sgd_rows(w, indices, indptr, targets, 0.3)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-12)

    def test_duplicate_indices_in_row(self):
        # hash collisions put the same index twice in one row
        indices = np.array([3, 3, 7], np.int64)
        indptr = np.array([0, 3], np.int64)
        targets = np.array([1.0])
        w_ref = np.zeros(9)
        sgd_rows_loop(w_ref, indices, indptr, targets, 0.5)
        w = np.zeros(9)
        _kernels.sgd_rows(w, indices, indptr, targets, 0.5)
        assert w[3] == pytest.approx(2 * w[7])
        np.testing.assert_allclose(w, w_ref, rtol=1e-12)


    def test_bit_identical_to_former_kernel(self):
        """The per-row trims change no weight: same reduction, same exp, same order."""
        rng = np.random.default_rng(37)
        dim = 64  # small, so rows collide and repeat indices
        indices, indptr = random_csr(rng, 1000, dim)
        # an empty row at the start, one in the middle and one at the end
        counts = np.insert(np.diff(indptr), [0, 500, 1000], 0)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        rows = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
        assert [] in rows and any(len(set(row)) < len(row) for row in rows)
        targets = rng.integers(0, 2, len(counts)).astype(np.float64)
        w = rng.normal(scale=3.0, size=dim + 1)  # scores of both signs
        w_ref = w.copy()
        for lr in (0.3, 0.05):
            _kernels.sgd_rows(w, indices, indptr, targets, lr)
            sgd_rows_numpy(w_ref, indices, indptr, targets, lr)
            assert w.view(np.int64).tolist() == w_ref.view(np.int64).tolist()
        w = np.full(3, -0.0)
        _kernels.sgd_rows(w, np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0), 0.3)
        assert w.view(np.int64).tolist() == np.full(3, -0.0).view(np.int64).tolist()


class TestScoreParity:
    def test_matches(self):
        rng = np.random.default_rng(34)
        dim = 256
        w = rng.normal(size=dim + 1)
        indices, indptr = random_csr(rng, 30, dim)
        ref = score_rows_loop(w, indices, indptr)
        got = _kernels.score_rows(w, indices, indptr)
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        assert (got > 0).all() and (got < 1).all()

    def test_extreme_scores_stay_in_range(self):
        w = np.array([800.0, -800.0, 0.0])
        indices = np.array([0, 1], np.int64)
        indptr = np.array([0, 1, 2], np.int64)
        for fn in (_kernels.score_rows, score_rows_loop):
            got = fn(w, indices, indptr)
            assert got[0] == pytest.approx(1.0)
            assert got[1] == pytest.approx(0.0)
            assert not np.isnan(got).any()
