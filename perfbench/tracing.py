"""Timing wrappers around the package's layers, installed in a traced job.

Each layer is one function or method of a ``sentid`` module.  Installing a
wrapper rebinds every name in every ``sentid`` module that refers to the
original object, so callers that imported it by name (``pipeline`` takes
``decode_document`` and ``write_span_file``, ``model`` takes
``example_stream``) and callers that look it up as a module attribute
(``_kernels.window_indices``) are both timed.  A target that no longer
exists is reported as ``None`` instead of failing the job.

Spans are kept in memory as [name, start, end, parent] and written out when
the job ends.  A layer's self time is its spans' time minus the time of
their direct child spans.
"""

import functools
import sys
import time
from collections import Counter

# layer name -> (module, attribute path); the generator layer is timed per next().
LAYERS = {
    "kernels.window_indices": ("_kernels", "window_indices"),
    "kernels.sgd_rows": ("_kernels", "sgd_rows"),
    "kernels.score_rows": ("_kernels", "score_rows"),
    "kernels.dp_decode": ("_kernels", "dp_decode"),
    "augment.example_stream": ("augment", "example_stream"),
    "model.train": ("model", "train"),
    "model.hash": ("model", "_TokenHasher.csr"),
    "model.predict": ("model", "predict"),
    "model.interpolate": ("model", "interpolate"),
    "model.load_model": ("model", "load_model"),
    "model.save_model": ("model", "save_model"),
    "model.write_probs": ("model", "write_prob_documents"),
    "model.read_probs": ("model", "iter_prob_documents"),
    "decode.decode_document": ("decode", "decode_document"),
    "decode.write_spans": ("decode", "write_span_file"),
    "decode.read_spans": ("decode", "read_span_file"),
    "evaluation.add_labels": ("evaluation", "Evaluator.add_labels"),
    "evaluation.to_granularity": ("evaluation", "to_granularity"),
    "evaluation.report": ("evaluation", "Evaluator.report"),
    "corpus.parse_conllu": ("corpus", "parse_conllu"),
    "corpus.convert_treebank": ("corpus", "convert_treebank"),
    "corpus.load": ("corpus", "Corpus.load"),
}

GENERATORS = {"augment.example_stream"}

# Stage of a span that no other traced span encloses.  At top level,
# example_stream assembles evaluation inputs; inside model.train it is part
# of the train span already.
STAGE_OF = {
    "corpus.parse_conllu": "convert",
    "corpus.convert_treebank": "convert",
    "corpus.load": "convert",
    "model.train": "train",
    "model.save_model": "train",
    "augment.example_stream": "predict",
    "model.load_model": "predict",
    "model.predict": "predict",
    "model.write_probs": "predict",
    "model.read_probs": "decode",
    "model.interpolate": "decode",
    "decode.decode_document": "decode",
    "decode.write_spans": "decode",
    "decode.read_spans": "evaluate",
    "evaluation.add_labels": "evaluate",
    "evaluation.to_granularity": "evaluate",
    "evaluation.report": "evaluate",
}
STAGES = ("convert", "train", "predict", "decode", "evaluate")

# ratio name -> (numerator count, denominator count)
RATIOS = {
    "model.hash_fresh_ratio": ("model.hash_fresh", "model.hash_lookups"),
    "decode.pruned_ratio": ("decode.pruned", "decode.positions"),
    "decode.unclaimed_ratio": ("decode.unclaimed", "decode.tokens"),
}
COUNTS = ("kernels.window_indices_rows", "decode.spans")


def layer_metric_names() -> list:
    return [f"{layer}{suffix}" for layer in LAYERS for suffix in ("_s", "_self_s", "_calls")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.missing = set()

    def begin(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def timed(self, layer, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            idx = self.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def timed_generator(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item

        return wrapper

    # -- counters recorded at the layer boundary ---------------------------

    def _count_rows(self, args, kwargs, out):
        self.counts["kernels.window_indices_rows"] += int(args[2])

    def _count_hash(self, fn):
        @functools.wraps(fn)
        def csr(hasher, words):
            before = len(hasher.cache)
            out = fn(hasher, words)
            self.counts["model.hash_fresh"] += len(hasher.cache) - before
            self.counts["model.hash_lookups"] += len(words)
            return out

        return csr

    def _count_decode(self, args, kwargs, out):
        from sentid.decode import DecoderConfig

        m = args[0]
        method = args[1] if len(args) > 1 else kwargs["method"]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", DecoderConfig())
        if method == "bos_eos":
            c = cfg.candidate_threshold
            self.counts["decode.pruned"] += int((m.p_bos < c).sum() + (m.p_eos < c).sum())
            self.counts["decode.positions"] += 2 * m.n
        self.counts["decode.spans"] += len(out.su_spans)
        self.counts["decode.unclaimed"] += out.labels.labels.count("O")
        self.counts["decode.tokens"] += out.n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        after = {"kernels.window_indices": self._count_rows,
                 "decode.decode_document": self._count_decode}
        for layer, (mod_name, path) in LAYERS.items():
            module = sys.modules.get(f"sentid.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.add(layer)
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if layer == "model.hash":
                fn = self._count_hash(fn)
            if layer in GENERATORS:
                wrapped = self.timed_generator(layer, fn)
            else:
                wrapped = self.timed(layer, fn, after.get(layer))
            if owner_name:
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                _rebind(raw, wrapped)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        total = Counter()
        child = Counter()
        stage = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is None:
                stage[STAGE_OF.get(name, "other")] += end - start
            else:
                child[self.spans[parent][0]] += end - start
        out = {}
        for layer in LAYERS:
            if layer in self.missing:
                out.update({f"{layer}_s": None, f"{layer}_self_s": None, f"{layer}_calls": None})
                continue
            out[f"{layer}_s"] = total[layer]
            out[f"{layer}_self_s"] = total[layer] - child[layer]
            out[f"{layer}_calls"] = self.calls[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        for name, (num, den) in RATIOS.items():
            out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        for s in STAGES:
            out[f"stage.{s}_s"] = stage[s]
        out["covered_s"] = sum(stage.values())
        return out

    def span_records(self, run_id, origin) -> list:
        return [
            {"run": run_id, "id": i, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def _rebind(original, replacement) -> None:
    """Point every binding of `original` in the sentid modules at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sentid" or name.startswith("sentid.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
