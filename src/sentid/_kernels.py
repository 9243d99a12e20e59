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
# update.  A flag pruned by the candidate threshold comes with its open/close
# term at -inf and its stay term at 0.0: the update then adds 0.0 to each
# state and never takes the -inf branch (the outside state is always finite),
# so the state passes through unchanged.  A position with both flags pruned
# changes nothing, so the loop visits candidate positions only, on Python
# floats: the same IEEE double operations, in the same order, as numpy
# scalars would perform.  It walks them a chunk at a time, so the Python
# float lists of the terms hold one chunk, however long the document.  Each
# close records the span it ends, and the backtrack picks the spans of the
# argmax out of those records.
# ---------------------------------------------------------------------------

# candidates per chunk of the DP's term lists
_DP_CHUNK = 1024


def dp_decode(lb1, lb0, le1, le0):
    """(best objective, half-open spans) of the argmax labeling."""
    cand = np.flatnonzero((lb1 > NEG_INF) | (le1 > NEG_INF))
    start = None  # the candidate where the span of the best open state opened
    # first and last candidate of every close the outside state takes; two int
    # lists, as a tuple per close would wake the garbage collector in the loop
    starts = []
    ends = []
    cur_is = NEG_INF
    cur_os = 0.0
    for lo in range(0, len(cand), _DP_CHUNK):
        chunk = cand[lo : lo + _DP_CHUNK]
        # one tolist() per term: stacking the four first costs more on short documents
        for k, b1, b0, e1, e0 in zip(
            range(lo, lo + len(chunk)),
            lb1[chunk].tolist(), lb0[chunk].tolist(), le1[chunk].tolist(), le0[chunk].tolist(),
        ):
            keep = cur_is + b0
            open_ = cur_os + b1
            if open_ > keep:  # open only when strictly better
                is_p = open_
                start = k
            else:
                is_p = keep
            os_p = cur_os + b0
            cur_is = is_p + e0
            close = is_p + e1
            stay = os_p + e0
            if close >= stay:  # close when at least as good
                cur_os = close
                starts.append(start)
                ends.append(k)
            else:
                cur_os = stay

    # The final outside state descends from the latest close; the outside
    # state that a span opened from descends from the latest close before the
    # span's first candidate.  Positions are looked up for the kept spans only.
    position = cand.item
    spans = []
    bound = len(cand)
    for s, e in zip(reversed(starts), reversed(ends)):
        if e < bound:
            spans.append((position(s), position(e) + 1))
            bound = s
    spans.reverse()
    return cur_os, tuple(spans)


# ---------------------------------------------------------------------------
# Sparse logistic regression over CSR-style rows.
# ---------------------------------------------------------------------------


def sgd_rows(w, indices, indptr, targets, lr):
    # w[-1] is the bias slot; updates are applied row by row, in order.  The
    # bias lives in a local until the end: hashed indices never reach its slot.
    bias = w[-1]
    ptr = indptr.tolist()
    for r, target in enumerate(targets.tolist()):
        idx = indices[ptr[r] : ptr[r + 1]]
        z = bias + np.add.reduce(w[idx])  # what .sum() calls, without its wrappers
        if z >= 0.0:
            p = 1.0 / (1.0 + np.exp(-z))
        else:
            e = np.exp(z)
            p = e / (1.0 + e)
        g = lr * (target - p)
        np.add.at(w, idx, g)  # rows may repeat an index on hash collision
        bias += g
    w[-1] = bias


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


def window_indices(tok_hashes, tok_indptr, n, lo, hi, dim_mask, pad_hash, doc_lens):
    """CSR feature indices of the window around each of the `n` tokens.

    The tokens are the documents of `doc_lens` (token counts) laid end to
    end.  A window position outside the focus token's own document
    contributes the pad hash, so every row equals its row in a document of
    its own.  Returns one row per token, `n` in all.
    """
    if n == 0:
        return np.empty(0, np.int64), np.zeros(1, np.int64)
    # One segment per token, with `gap` pad segments (one pad entry each)
    # before, between and after the documents, so that no window reaches past
    # the pads around its own document.  Row i is the contiguous run of
    # segments first[i] .. first[i]+hi-lo, so every row is one slice of the
    # segment entries.
    gap = max(-lo, hi, 0)
    n_docs = len(doc_lens)
    tok_seg = np.arange(n, dtype=np.int64) + gap * np.repeat(
        np.arange(1, n_docs + 1, dtype=np.int64), doc_lens
    )
    n_seg = n + gap * (n_docs + 1)
    is_tok = np.zeros(n_seg, dtype=bool)
    is_tok[tok_seg] = True
    seg_len = np.ones(n_seg, np.int64)
    seg_len[tok_seg] = np.diff(tok_indptr)
    seg_ptr = np.zeros(n_seg + 1, np.int64)
    np.cumsum(seg_len, out=seg_ptr[1:])
    seg_vals = np.full(seg_ptr[n_seg], pad_hash, dtype=np.uint64)
    seg_vals[np.repeat(is_tok, seg_len)] = tok_hashes

    width = hi - lo + 1
    first = tok_seg + lo
    win_len = seg_len[first[:, None] + np.arange(width)]  # (n, width) entries per window slot
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(win_len.sum(axis=1), out=indptr[1:])
    row_len = np.diff(indptr)

    # gather each row's slice; the salt is the window slot + 1
    pos = np.arange(indptr[n], dtype=np.int64) + np.repeat(seg_ptr[first] - indptr[:-1], row_len)
    x = seg_vals[pos]
    salt = np.repeat(np.tile(np.arange(1, width + 1, dtype=np.uint64), n), win_len.ravel())

    # splitmix64 finalizer, in place (uint64 products wrap)
    x ^= salt * np.uint64(_MIX_A)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_C)
    x ^= x >> np.uint64(31)
    x &= np.uint64(dim_mask)
    return x.view(np.int64), indptr
