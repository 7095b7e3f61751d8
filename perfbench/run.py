"""The schubres benchmark: time to verdict, memory and correctness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flag-s5 --seed 1 --seconds 50 --trace 0

A run is a closed loop with one client: passes run one after another,
each a fresh interpreter (``perfbench/client.py``) that submits the
workload's drawn configurations in order through ``schubres.cli.run``.
Passes repeat until ``--seconds`` is used up, at least ``MIN_PASSES``
times.  Every report is checked against the fingerprint recorded in
``perfbench/fingerprints.json``; an exit code other than 0, a report with
``passed: false`` or a different fingerprint is a failed configuration.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` as the mean
of import-only interpreters started before each pass and of the passes'
own imports, ``verify_s`` as the mean over passes, ``peak_rss_mb`` as the
median.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``perfbench/tracer.py``; it fails when two
traced passes disagree on a count or when a cached ``exactlin`` function
was called other than through its traced bindings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every configuration passed every check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLIENT = HERE / "client.py"
FINGERPRINTS = HERE / "fingerprints.json"
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, draw  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES_PER_PASS = 3
RUN_LIMIT_S = 170.0

CACHED = ("intersect", "subspace_sum", "canonical_complement")
KINDS = (
    "biflag-verify",
    "bs-iso",
    "grass-verify-phi",
    "grass-verify-phistar",
    "grass-verify-transversal",
    "wflag-verify",
    "embres-verify",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a client that crashed)."""


# -- clients ----------------------------------------------------------------


def client_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], request: dict | None, deadline: float) -> tuple[dict, float]:
    """Run one client to completion; returns its JSON line and its start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CLIENT), *args],
            input=json.dumps(request) if request is not None else "",
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=client_env(),
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client ran past the run's time limit of {RUN_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def setup_probe(deadline: float) -> float:
    """Seconds from starting a fresh interpreter until schubres.cli is imported."""
    out, started = spawn(["--setup-only"], None, deadline)
    return out["imported"] - started


class Checker:
    """Counts attempted and failed configurations against the recorded fingerprints."""

    def __init__(self) -> None:
        self.expected = json.loads(FINGERPRINTS.read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_pass(self, configs: list[list[str]], out: dict) -> None:
        warm = {k: v for k, v in out["caches_at_start"].items() if v}
        if warm:
            self.fail(f"exactlin caches not empty before the first configuration: {warm}")
        for argv, res in zip(configs, out["results"], strict=True):
            self.attempted += 1
            key = " ".join(argv)
            why = None
            if res["exit"] != 0:
                why = f"exit code {res['exit']} {res.get('error', '')}".rstrip()
            elif not res.get("passed"):
                why = "report has passed: false"
            elif res.get("fingerprint") != self.expected.get(key):
                why = "report differs from the recorded fingerprint"
            if why:
                self.failed += 1
                self.fail(f"{key}: {why}")


# -- per-layer metrics ------------------------------------------------------


def _stat(snap: dict, name: str, field: int):
    return snap["stats"].get(name, [0, 0, 0.0, 0.0])[field]


def calls(snap: dict, name: str) -> int:
    return _stat(snap, name, 0)


def items(snap: dict, name: str) -> int:
    return _stat(snap, name, 1)


def incl_s(snap: dict, name: str) -> float:
    return _stat(snap, name, 2)


def self_s(snap: dict, name: str) -> float:
    return _stat(snap, name, 3)


def layer_self_s(snap: dict, layer: str) -> float:
    return sum(v[3] for k, v in snap["stats"].items() if k.startswith(layer + "."))


def share(a: float, b: float) -> float:
    return a / b if b else 0.0


def hit_ratio(snap: dict, *caches: str) -> float:
    hits = sum(snap["caches"][c][0] for c in caches)
    misses = sum(snap["caches"][c][1] for c in caches)
    return share(hits, hits + misses)


def _per_layer() -> list[tuple[str, str, object]]:
    """(name, unit, function of one traced pass's snapshot)."""
    m: list[tuple[str, str, object]] = []

    def count(name, fn):
        m.append((name, "count", fn))

    def secs(name, fn):
        m.append((name, "s", fn))

    for fn in ("rref", "span"):
        count(f"exactlin.{fn}.calls", lambda s, fn=fn: calls(s, f"exactlin.{fn}"))
        secs(f"exactlin.{fn}.self_s", lambda s, fn=fn: self_s(s, f"exactlin.{fn}"))
    count("exactlin.intersect.calls", lambda s: calls(s, "exactlin.intersect"))
    m.append(("exactlin.intersect.hit_ratio", "ratio", lambda s: hit_ratio(s, "intersect")))
    secs("exactlin.intersect.self_s", lambda s: self_s(s, "exactlin.intersect"))
    count("exactlin.subspace_sum.calls", lambda s: calls(s, "exactlin.subspace_sum"))
    m.append(("exactlin.subspace_sum.hit_ratio", "ratio", lambda s: hit_ratio(s, "subspace_sum")))
    m.append(
        (
            "exactlin.canonical_complement.hit_ratio",
            "ratio",
            lambda s: hit_ratio(s, "canonical_complement"),
        )
    )
    count("exactlin.enumerate_between.calls", lambda s: calls(s, "exactlin.enumerate_between"))
    count("exactlin.enumerate_subspaces.calls", lambda s: calls(s, "exactlin.enumerate_subspaces"))
    m.append(
        (
            "exactlin.tuple_cache.hit_ratio",
            "ratio",
            lambda s: hit_ratio(s, "_subspaces_tuple", "_between_tuple"),
        )
    )
    count("exactlin.enumerate_maps.maps", lambda s: items(s, "exactlin.enumerate_maps"))
    count("exactlin.Subspace.hash_calls", lambda s: calls(s, "exactlin.Subspace.__hash__"))
    count("exactlin.cache_entries", lambda s: sum(c[2] for c in s["caches"].values()))
    secs("exactlin.self_s", lambda s: layer_self_s(s, "exactlin"))

    count("permcomb.rank_matrix.calls", lambda s: calls(s, "permcomb.rank_matrix"))
    secs("permcomb.self_s", lambda s: layer_self_s(s, "permcomb"))
    secs("building.self_s", lambda s: layer_self_s(s, "building"))

    count("biflag.enumerate_shat.points", lambda s: items(s, "biflag.enumerate_shat"))
    m.append(
        (
            "biflag.enumerate_shat.points_per_s",
            "1/s",
            lambda s: share(items(s, "biflag.enumerate_shat"), incl_s(s, "biflag.enumerate_shat")),
        )
    )
    m.append(
        (
            "biflag.tower.nodes_per_point",
            "ratio",
            lambda s: share(s["tower_nodes"], items(s, "biflag.enumerate_shat")),
        )
    )
    count(
        "biflag.enumerate_complete_flags.flags",
        lambda s: items(s, "biflag.enumerate_complete_flags"),
    )
    count("biflag.flag_rank_profile.calls", lambda s: calls(s, "biflag.flag_rank_profile"))
    secs("biflag.flag_rank_profile.self_s", lambda s: self_s(s, "biflag.flag_rank_profile"))
    count("biflag.standard_frames.calls", lambda s: calls(s, "biflag.standard_frames"))
    secs("biflag.reconstruct_grid.self_s", lambda s: self_s(s, "biflag.reconstruct_grid"))
    secs("biflag.self_s", lambda s: layer_self_s(s, "biflag"))

    count("bottsamelson.enumerate_bs.points", lambda s: items(s, "bottsamelson.enumerate_bs"))
    m.append(
        (
            "bottsamelson.enumerate_bs.points_per_s",
            "1/s",
            lambda s: share(
                items(s, "bottsamelson.enumerate_bs"), incl_s(s, "bottsamelson.enumerate_bs")
            ),
        )
    )
    for fn in ("bs_projection", "grid_to_bs", "first_block_chains"):
        secs(f"bottsamelson.{fn}.self_s", lambda s, fn=fn: self_s(s, f"bottsamelson.{fn}"))
    secs("bottsamelson.self_s", lambda s: layer_self_s(s, "bottsamelson"))

    count("grassfib.vbeta_points.scanned", lambda s: s["vbeta_scanned"])
    m.append(
        (
            "grassfib.vbeta_points.yield_ratio",
            "ratio",
            lambda s: share(items(s, "grassfib.vbeta_points"), s["vbeta_scanned"]),
        )
    )
    secs("grassfib.phi.self_s", lambda s: self_s(s, "grassfib.phi"))
    secs("grassfib.phi_star.self_s", lambda s: self_s(s, "grassfib.phi_star"))
    count(
        "grassfib.frame_sums.calls",
        lambda s: sum(
            calls(s, f"grassfib.FrameConfig.{f}")
            for f in ("lines_prefix", "complements_prefix", "complements_suffix", "nested")
        ),
    )
    secs("grassfib.make_frame.self_s", lambda s: self_s(s, "grassfib.make_frame"))
    secs("grassfib.self_s", lambda s: layer_self_s(s, "grassfib"))

    count("wflag.enumerate_gcal.points", lambda s: items(s, "wflag.enumerate_gcal"))
    count("wflag.enumerate_ghat.points", lambda s: items(s, "wflag.enumerate_ghat"))
    count("wflag.lift_to_ghat.calls", lambda s: calls(s, "wflag.lift_to_ghat"))
    secs("wflag.lift_to_ghat.self_s", lambda s: self_s(s, "wflag.lift_to_ghat"))
    count("wflag.in_u.calls", lambda s: calls(s, "wflag.in_u"))
    secs("wflag.closed_form_fiber.self_s", lambda s: self_s(s, "wflag.closed_form_fiber"))
    secs("wflag.self_s", lambda s: layer_self_s(s, "wflag"))

    count("embres.kl_points.points", lambda s: items(s, "embres.kl_points"))
    count("embres.cell_points.scanned", lambda s: s["cell_scanned"])
    for fn in ("verify_chart_family", "verify_embedded_resolution"):
        secs(f"embres.{fn}.self_s", lambda s, fn=fn: self_s(s, f"embres.{fn}"))
    secs("embres.self_s", lambda s: layer_self_s(s, "embres"))

    secs("report.to_json.self_s", lambda s: self_s(s, "report.to_json"))
    for kind in KINDS:
        secs(f"cli.run.{kind}.s", lambda s, kind=kind: incl_s(s, f"cli.run.{kind}"))
    count("trace.spans", lambda s: s["spans"])
    count("trace.spans_dropped", lambda s: s["spans_dropped"])
    return m


PER_LAYER = _per_layer()
# trace.overhead is computed from whole passes, not from one snapshot
OVERHEAD = ("trace.overhead", "ratio")


def check_trace(snaps: list[dict], checker: Checker) -> None:
    """Tracer self-check and deterministic counts."""
    for snap in snaps:
        for fn in CACHED:
            hits, misses, _ = snap["caches"][fn]
            wrapped = calls(snap, f"exactlin.{fn}")
            if wrapped != hits + misses:
                checker.fail(
                    f"tracer self-check: exactlin.{fn} wrapper saw {wrapped} calls, "
                    f"its cache {hits + misses} lookups"
                )
    first = snaps[0]
    for snap in snaps[1:]:
        for name, unit, fn in PER_LAYER:
            if unit in ("count", "ratio") and fn(snap) != fn(first):
                checker.fail(f"traced passes disagree on {name}: {fn(first)} vs {fn(snap)}")


# -- runs -------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_pass(configs, checker, deadline, spans=None) -> dict:
    """One pass in a fresh client, traced when ``spans`` names a file for its spans."""
    request = {"configs": configs, "trace": spans is not None, "spans": spans}
    out, started = spawn([], request, deadline)
    out["setup_s"] = out["imported"] - started
    checker.check_pass(configs, out)
    return out


def closed_loop(seconds: float, minimum: int, step) -> None:
    """Calls ``step()`` until ``seconds`` are used up, at least ``minimum`` times.

    The loop stops before a step that would likely end past ``seconds``.
    """
    begin = time.monotonic()
    for done in itertools.count(1):
        started = time.monotonic()
        step()
        now = time.monotonic()
        if done >= minimum and now - begin + (now - started) > seconds:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schubres" / "cli.py").is_file():
        print(f"error: no schubres sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    configs = draw(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for i, argv_ in enumerate(configs, 1):
        print(f"config {i}: schubres {' '.join(argv_)}")

    checker = Checker()
    metrics: dict[str, dict] = {}
    try:
        if args.trace:
            # untraced and traced passes alternate, so both see the same mix of
            # the machine's fast and slow spells
            plain, traced = [], []
            tag = f"{args.workload}-seed{args.seed}"
            SPANS_DIR.mkdir(exist_ok=True)

            def step():
                plain.append(run_pass(configs, checker, deadline))
                spans = SPANS_DIR / f"{tag}-pass{len(traced) + 1}.spans.json.gz"
                traced.append(run_pass(configs, checker, deadline, str(spans)))

            closed_loop(args.seconds, MIN_TRACED_PASSES, step)
            snaps = [o["trace"] for o in traced]
            check_trace(snaps, checker)
            for name, unit, fn in PER_LAYER:
                # counts and ratios of counts are equal in every traced pass (checked above)
                if unit in ("count", "ratio"):
                    value = fn(snaps[0])
                else:
                    value = statistics.median(fn(s) for s in snaps)
                metrics[name] = {"value": value, "unit": unit}
            overhead = statistics.median(o["verify_s"] for o in traced) / statistics.median(
                o["verify_s"] for o in plain
            )
            metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
            for name, m in metrics.items():
                print(f"metric {name}: {m['value']:.6g} {m['unit']} (n {len(snaps)})")
            print(f"spans written to {SPANS_DIR.relative_to(ROOT)}/{tag}-pass*.spans.json.gz")
        else:
            setup_probe(deadline)  # warm-up: the bytecode caches get written
            setup: list[float] = []
            outs: list[dict] = []

            def step():
                setup.extend(setup_probe(deadline) for _ in range(SETUP_PROBES_PER_PASS))
                outs.append(run_pass(configs, checker, deadline))
                setup.append(outs[-1]["setup_s"])

            closed_loop(args.seconds, MIN_PASSES, step)
            # setup_s and verify_s are means over samples spread across the run:
            # the machine's speed can switch between two levels for tens of
            # seconds, and a median of samples taken in one spell jumps between
            # the levels where the mean moves with the share of slow time.
            samples = {
                "setup_s": ("s", statistics.fmean, setup),
                "verify_s": ("s", statistics.fmean, [o["verify_s"] for o in outs]),
                "peak_rss_mb": ("MB", statistics.median, [o["peak_rss_kb"] / 1024 for o in outs]),
            }
            for name, (unit, stat, values) in samples.items():
                value = stat(values)
                q1, med, q3 = quartiles(values)
                print(
                    f"metric {name}: {value:.6g} {unit} ({stat.__name__}; "
                    f"median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})"
                )
                print(f"  samples {name}: {' '.join(f'{v:.4g}' for v in values)}")
                metrics[name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    share_failed = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"metric failed_share: {share_failed:.6g} share ({checker.failed} of {checker.attempted})")
    for problem in checker.problems:
        print(f"FAIL {problem}")
    correct = not checker.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
