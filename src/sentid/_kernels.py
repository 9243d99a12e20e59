"""Numeric hot loops: span DP, sparse logistic SGD, and feature-index mixing.

Each kernel is one plain numpy function.  The DP and SGD are sequential by
nature and stay loops (SGD over rows, with a vectorised update per row);
scoring and window mixing are whole-array operations.
"""

import numpy as np

NEG_INF = -np.inf

# splitmix64 finalizer constants
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# Span identification DP (forward recursion + backtracking).
#
# State per position boundary i: best log-probability of a partial labeling
# of tokens [0, i) that ends inside an open span (cur_is) or outside
# (cur_os).  Each token first passes a begin-flag update, then an end-flag
# update.  Skipped positions (candidate masks 0) leave the state untouched,
# which is exactly equivalent to pinning that flag's probability to 0.  A
# position with both masks 0 changes neither the state nor the backtrack, so
# both loops visit candidate positions only, on Python floats: the same IEEE
# double operations, in the same order, as numpy scalars would perform.
# ---------------------------------------------------------------------------


def dp_decode(lb1, lb0, le1, le0, bos_ok, eos_ok):
    """(best objective, begin flags, end flags) of the argmax labeling."""
    n = lb1.shape[0]
    cand = np.flatnonzero(bos_ok | eos_ok)
    # opened[k]: the open state after candidate k was reached by opening a span there
    # closed[k]: the outside state after candidate k was reached by closing a span there
    opened = []
    closed = []
    cur_is = NEG_INF
    cur_os = 0.0
    for b_ok, e_ok, b1, b0, e1, e0 in zip(
        bos_ok[cand].tolist(), eos_ok[cand].tolist(),
        lb1[cand].tolist(), lb0[cand].tolist(), le1[cand].tolist(), le0[cand].tolist(),
    ):
        if b_ok:
            keep = cur_is + b0
            open_ = cur_os + b1
            if open_ > keep:
                is_p = open_
                opened.append(True)
            else:
                is_p = keep
                opened.append(False)
            os_p = cur_os + b0
        else:
            is_p = cur_is
            os_p = cur_os
            opened.append(False)
        if e_ok:
            cur_is = is_p + e0
            close = is_p + e1
            stay = os_p + e0
            if close >= stay:
                cur_os = close
                closed.append(True)
            else:
                cur_os = stay
                closed.append(False)
        else:
            cur_is = is_p
            cur_os = os_p
            closed.append(False)

    bos_at = []
    eos_at = []
    inside = False  # state while walking backwards: True = open-span state
    for k in range(len(cand) - 1, -1, -1):
        if not inside:
            if not closed[k]:
                continue
            eos_at.append(k)
        # the open state after candidate k descends from the one after its begin update
        if opened[k]:
            bos_at.append(k)
            inside = False
        else:
            inside = True
    bos_flags = np.zeros(n, np.uint8)
    eos_flags = np.zeros(n, np.uint8)
    bos_flags[cand[bos_at]] = 1
    eos_flags[cand[eos_at]] = 1
    return cur_os, bos_flags, eos_flags


# ---------------------------------------------------------------------------
# Sparse logistic regression over CSR-style rows.
# ---------------------------------------------------------------------------


def _sigmoid_scalar(z):
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def sgd_rows(w, indices, indptr, targets, lr):
    # w[-1] is the bias slot; updates are applied row by row, in order.
    nrows = indptr.shape[0] - 1
    for r in range(nrows):
        idx = indices[indptr[r] : indptr[r + 1]]
        z = w[-1] + w[idx].sum()
        p = _sigmoid_scalar(z)
        g = lr * (targets[r] - p)
        np.add.at(w, idx, g)  # rows may repeat an index on hash collision
        w[-1] += g


def score_rows(w, indices, indptr):
    if indices.shape[0] == 0:
        z = np.full(indptr.shape[0] - 1, w[-1])
    else:
        sums = np.add.reduceat(w[indices], indptr[:-1])
        sums[indptr[:-1] == indptr[1:]] = 0.0
        z = w[-1] + sums
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Window feature mixing: combine per-token base hashes with the token's
# offset relative to the focus position, then fold into the weight table.
# ---------------------------------------------------------------------------


def window_indices(tok_hashes, tok_indptr, n, lo, hi, dim_mask, pad_hash):
    if n == 0:
        return np.empty(0, np.int64), np.zeros(1, np.int64)
    # Segment s covers position t = lo + s (s = 0 .. n-1+hi-lo): one pad entry
    # outside [0, n), else token t's hashes.  Row i is the contiguous run of
    # segments i .. i+hi-lo, so every row is one slice of the segment entries.
    t = np.arange(lo, n + hi, dtype=np.int64)
    inside = (t >= 0) & (t < n)
    tc = np.clip(t, 0, n - 1)
    seg_len = np.where(inside, tok_indptr[tc + 1] - tok_indptr[tc], 1)
    seg_ptr = np.zeros(t.shape[0] + 1, np.int64)
    np.cumsum(seg_len, out=seg_ptr[1:])
    width = hi - lo + 1
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(seg_ptr[width : width + n] - seg_ptr[:n], out=indptr[1:])
    row_len = np.diff(indptr)

    # hash of every segment entry; the pad hash sits in the slot after the tokens'
    seg_id = np.repeat(np.arange(t.shape[0], dtype=np.int64), seg_len)
    seg_src = np.where(inside, tok_indptr[tc], tok_hashes.shape[0])
    entry_src = seg_src[seg_id] + (np.arange(seg_id.shape[0], dtype=np.int64) - seg_ptr[seg_id])
    seg_vals = np.append(tok_hashes, np.uint64(pad_hash))[entry_src]

    # gather each row's slice; the salt is segment number - row number + 1
    pos = np.arange(indptr[n], dtype=np.int64) + np.repeat(seg_ptr[:n] - indptr[:-1], row_len)
    rel = seg_id[pos] - np.repeat(np.arange(n, dtype=np.int64), row_len) + 1
    x = seg_vals[pos]

    # splitmix64 finalizer, in place (uint64 products wrap)
    x ^= rel.astype(np.uint64) * np.uint64(_MIX_A)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_C)
    x ^= x >> np.uint64(31)
    x &= np.uint64(dim_mask)
    return x.view(np.int64), indptr
