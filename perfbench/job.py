"""One benchmark job: a fresh interpreter that runs one batch run and exits.

Usage: python3 perfbench/job.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (both read CLOCK_MONOTONIC), so ``setup_s`` covers interpreter
start-up through ``import sentid``.  ``ref_s`` is the time of a fixed
computation that does not use sentid, run just before the job in the same
process.  ``wall_s`` runs from inputs on disk to the last report written.  The spec names the work: a pipeline config
(``config``) or a chain of CLI calls (``cli``).  Results go to the spec's
``result`` file; a traced job also writes its spans to ``spans``.
"""

import json
import resource
import sys
import time

REF_ITERATIONS = 30000


def reference_s() -> float:
    """Seconds taken by a fixed computation that does not use sentid (~0.1 s on a quiet host).

    Its mix of small numpy array operations, int conversions and dict and
    str work is interpreter-bound like the package's hot loops, so a busy
    neighbour on a shared host slows it by about the same factor as the job
    that follows it.
    """
    import numpy as np

    x = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    acc = 0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        h = x[i % 4000 : i % 4000 + 3] ^ np.uint64(i)
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        acc ^= int(h[0] >> np.uint64(7))
        acc += len({str(i): acc})
    return time.perf_counter() - start


def main() -> None:
    spec_path, spawned = sys.argv[1], float(sys.argv[2])
    import sentid  # noqa: F401

    imported = time.perf_counter()
    ref = reference_s()
    import sentid.cli
    from sentid.pipeline import config_from_dict, run_pipeline

    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    if "config" in spec:
        run_pipeline(config_from_dict(spec["config"]))
    for argv in spec.get("cli", ()):
        code = sentid.cli.main(argv)
        if code != 0:
            raise SystemExit(f"sentid {argv[0]} exited with code {code}")
    end = time.perf_counter()

    result = {
        "setup_s": imported - spawned,
        "ref_s": ref,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        with open(spec["spans"], "w", encoding="utf-8") as f:
            for rec in tracer.span_records(spec["run_id"], start):
                f.write(json.dumps(rec) + "\n")
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
