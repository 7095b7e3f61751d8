"""One pass of a benchmark run, in a fresh interpreter.

Reads a JSON request on stdin: ``{"configs": [[argv...], ...], "trace":
bool, "spans": path or null}``.  Imports ``schubres.cli``, checks that
the ``exactlin`` caches start empty, submits the configurations one
after another through ``schubres.cli.run`` and prints one JSON line:
the clock reading after the import, the time from the first submission
to the last report, the peak resident memory, the exit code and report
fingerprint of each configuration and, when traced, the tracer's
counters.  With ``--setup-only`` it prints the clock reading after the
import and exits.
"""

import time

import schubres.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def fingerprint(text: str) -> str:
    """SHA-256 of the canonical report JSON with ``wall_time_s`` removed."""
    report = json.loads(text)
    report.pop("wall_time_s", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cache_sizes() -> dict[str, int]:
    """``currsize`` of every lru_cache in exactlin."""
    exactlin = sys.modules["schubres.exactlin"]
    return {
        attr: obj.cache_info().currsize
        for attr, obj in vars(exactlin).items()
        if hasattr(obj, "cache_info")
    }


def main() -> None:
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"imported": IMPORTED}))
        return
    request = json.loads(sys.stdin.read())
    caches = cache_sizes()
    tracer = None
    if request["trace"]:
        from tracer import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
    run = schubres.cli.run
    outputs = []
    start = time.perf_counter()
    for argv in request["configs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception as exc:  # a crash fails this configuration only
                code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        outputs.append((code, out.getvalue(), err.getvalue()))
    verify_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for code, text, err in outputs:
        entry = {"exit": code}
        try:
            entry["passed"] = json.loads(text)["passed"]
            entry["fingerprint"] = fingerprint(text)
        except ValueError:
            entry["error"] = err.strip()[-500:]
        results.append(entry)
    result = {
        "imported": IMPORTED,
        "caches_at_start": caches,
        "verify_s": verify_s,
        "peak_rss_kb": peak_rss_kb,
        "results": results,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        if request.get("spans"):
            tracer.write_spans(request["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
