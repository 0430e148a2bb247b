"""ffdyck benchmark: one workload per run, every op checked, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

The workload's op batch is built from the seed, then run again and again in
this single process (closed loop, one op at a time) until the time is up;
times are medians over those batches.  With --trace 0 the last line carries
the end-to-end metrics, with --trace 1 the per-layer metrics from batches
run with spans around every public library call, alternating with untraced
batches so the tracing overhead is measured in the same run.  Every time is
scaled to a fixed reference host speed (see hostspeed.py).  The library is
imported from src/ next to this directory; nothing under src/ changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 4
SETUP_SAMPLES = 31
# Highest percentile reported as the tail: the largest of these with at least
# ten ops beyond it in MIN_BATCHES batches, fixed per workload by batch size.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

# Per-layer metrics, printed on every traced run (0 where a workload does not
# reach the layer).
BUSY = {
    "bell_partial": "bell.partial.busy_s",
    "count_u": "counting.bell_route.busy_s",
    "count_d": "counting.bell_route.busy_s",
    "u_odd_power_coeff": "counting.bell_route.busy_s",
    "count_colored_dyck": "counting.colored.busy_s",
    "count_u_slope52": "counting.slope52.busy_s",
    "u_series": "series.u.busy_s",
    "d_series": "series.d.busy_s",
    "l_series": "series.l.busy_s",
    "generate_u_words": "grammar.generate.busy_s",
    "generate_d_words": "grammar.generate.busy_s",
    "expand_l_words": "grammar.generate.busy_s",
    "brute_enumerate_u": "words.brute.busy_s",
    "brute_enumerate_d": "words.brute.busy_s",
    "is_in_d": "words.is_in_d.busy_s",
    "is_factor_free": "words.is_factor_free.busy_s",
    "is_in_u_lattice": "words.lattice.busy_s",
    "word_to_tree": "trees.word_to_tree.busy_s",
    "tree_to_word": "trees.tree_to_word.busy_s",
    "build_code": "codes.build.busy_s",
    "verify_cross_bifix_free": "codes.verify.busy_s",
}
SCANNED = ("is_in_u", "is_in_d", "is_factor_free", "is_in_u_lattice")
COUNTING_CALLS = ("count_u", "count_d", "u_odd_power_coeff", "count_colored_dyck", "count_u_slope52")
CLI_WALL = {
    "count": "cli.count.wall_s",
    "generate": "cli.generate.wall_s",
    "codes": "cli.codes.wall_s",
    "selfcheck": "selfcheck.full.wall_s",
}
PER_LAYER = (
    ["bell.partial.calls", "bell.partial.busy_s",
     "counting.bell_route.busy_s", "counting.colored.busy_s", "counting.slope52.busy_s", "counting.coeffs",
     "series.u.busy_s", "series.d.busy_s", "series.l.busy_s", "series.coeffs",
     "grammar.generate.busy_s", "grammar.words", "grammar.words_per_s",
     "words.brute.busy_s", "words.brute.words",
     "words.is_in_u.shallow.busy_s", "words.is_in_u.tall.busy_s", "words.is_in_u.nonmember.busy_s",
     "words.is_in_d.busy_s", "words.is_factor_free.busy_s", "words.lattice.busy_s", "words.letters_scanned",
     "trees.word_to_tree.busy_s", "trees.tree_to_word.busy_s", "trees.fail",
     "codes.build.busy_s", "codes.verify.busy_s", "codes.words",
     "cli.import_s"]
    + list(CLI_WALL.values())
    + ["trace.overhead_s"]
)


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    vs = sorted(values)
    pos = (len(vs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vs) - 1)
    if vs[hi] == float("inf"):
        return vs[hi] if pos > lo else vs[lo]
    return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)


def per_op_median_sum(batches: list[list[float]]) -> float:
    """A batch's time with every op at its median over the batches run.

    Robust to a short stall, which hits one op in one batch, where the
    median of whole-batch sums moves with every stall inside a batch.
    """
    return sum(statistics.median(times) for times in zip(*batches))


def tail_level(ops_per_batch: int) -> float:
    for q in TAIL_LADDER:
        if ops_per_batch * MIN_BATCHES * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def meta(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffdyck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git = proc.stdout.strip() or "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": git,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def measure_setup(env: dict) -> float:
    """Median seconds for a fresh interpreter to import ffdyck (first run discarded).

    Each sample is scaled by the host-speed ticks taken around it.
    """
    code = "import time; t = time.perf_counter(); import ffdyck; print(repr(time.perf_counter() - t))"
    samples = []
    ticks = [hostspeed.tick()]
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        ticks.append(hostspeed.tick())
        samples.append(float(proc.stdout))
    scaled = [x * f for x, f in zip(samples, hostspeed.factors(ticks))]
    return statistics.median(scaled[1:])


class BatchResult:
    def __init__(self):
        # Per op: durations and cpu_times are scaled by factors (hostspeed.py),
        # raw holds the unscaled durations.
        self.durations: list[float] = []
        self.cpu_times: list[float] = []
        self.raw: list[float] = []
        self.factors: list[float] = []
        self.latencies: list[float] = []  # durations, inf where the op failed
        self.failed = 0
        self.tolerated = 0
        self.wrong: list[str] = []
        self.unexpected: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.durations)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_batch(ops, tracer=None, observe=None) -> BatchResult:
    """Run every op once; only the calls are timed, checks run afterwards untraced.

    Host-speed ticks before the first op and after every op give each op its
    scale factor, applied once the batch has run.  observe(i, op, result) is
    called with each op's result.
    """
    out = BatchResult()
    paired: dict = {}
    inf = float("inf")
    ticks = [hostspeed.tick()]
    cpu: list[float] = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.paused = False
        c0 = time.process_time() + _children_cpu()
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # every op failure is counted, none stops the run
            result, error = None, exc
        t1 = time.perf_counter()
        c1 = time.process_time() + _children_cpu()
        if tracer is not None:
            tracer.paused = True
            tracer.op = -1
        ticks.append(hostspeed.tick())
        duration = t1 - t0
        out.raw.append(duration)
        cpu.append(c1 - c0)
        if observe is not None:
            observe(i, op, result)
        if error is not None:
            out.failed += 1
            out.latencies.append(inf)
            if isinstance(error, op.tolerate):
                out.tolerated += 1
            else:
                out.unexpected.append(f"{op.kind} {op.props}: {type(error).__name__}: {error}"[:300])
            continue
        try:
            ok = bool(op.check(result))
        except Exception as exc:
            ok = False
            result = f"check raised {type(exc).__name__}: {exc}"[:300]
        if ok:
            out.latencies.append(duration)
        else:
            out.failed += 1
            out.wrong.append(f"{op.kind} {op.props}" + (f": {result}" if isinstance(result, str) else ""))
            out.latencies.append(inf)
        if ok and op.pair is not None:
            paired.setdefault(op.pair, []).append((i, result))
    for key, items in paired.items():
        if any(r != items[0][1] for _, r in items[1:]):
            for i, _ in items:
                if out.latencies[i] != inf:
                    out.latencies[i] = inf
                    out.failed += 1
            out.wrong.append(f"paired results differ for {key}")
    out.factors = hostspeed.factors(ticks)
    out.durations = [x * f for x, f in zip(out.raw, out.factors)]
    out.cpu_times = [x * f for x, f in zip(cpu, out.factors)]
    out.latencies = [x * f for x, f in zip(out.latencies, out.factors)]
    return out


def layer_metrics(spans, calls: dict, workload, factors: list[float]) -> tuple[dict, float]:
    """Per-layer numbers of one traced batch from its spans and call counts.

    Self times are scaled by the host-speed factor of the op that caused them.
    """
    vals = {name: 0.0 for name in PER_LAYER}
    grammar_busy = 0.0
    busy = 0.0
    for s in spans:
        if s.op < 0:
            continue
        self_time = s.self_time * factors[s.op]
        busy += self_time
        if s.name == "is_in_u":
            cls = workload.ops[s.op].props.get("cls", "shallow")
            vals[f"words.is_in_u.{cls}.busy_s"] += self_time
        elif s.name in BUSY:
            vals[BUSY[s.name]] += self_time
        if s.layer == "grammar":
            grammar_busy += self_time
            vals["grammar.words"] += s.work
        if s.name in ("u_series", "d_series", "l_series"):
            vals["series.coeffs"] += s.work
        if s.name.startswith("brute_enumerate"):
            vals["words.brute.words"] += s.work
        if s.name in SCANNED:
            vals["words.letters_scanned"] += s.work
        if s.name == "build_code":
            vals["codes.words"] += s.work
        if s.layer == "trees" and s.failed:
            vals["trees.fail"] += 1
    vals["bell.partial.calls"] = calls.get("bell_partial", 0)
    vals["counting.coeffs"] = sum(calls.get(name, 0) for name in COUNTING_CALLS)
    if grammar_busy > 0:
        vals["grammar.words_per_s"] = vals["grammar.words"] / grammar_busy
    return vals, busy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ffdyck" / "__init__.py").is_file():
        print(f"error: no ffdyck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The caller's cap must not change the work, in process or in children.
    os.environ.pop("DYCK_BRUTE_CAP", None)
    sys.path.insert(0, str(ROOT / "src"))
    import ffdyck
    import ffdyck.selfcheck  # noqa: F401  (names of the selfcheck checks)

    if Path(ffdyck.__file__).resolve().parent != ROOT / "src" / "ffdyck":
        print(f"error: imported ffdyck from {ffdyck.__file__}, not from src/", file=sys.stderr)
        return 2

    import random

    import reference
    import spans as spanlib
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2

    info = meta(args.workload, args.seed)
    print(f"# ffdyck benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# meta " + json.dumps(info))

    env = workloads.child_env(str(ROOT))
    setup_s = None if args.trace else measure_setup(env)

    reference.check_known()
    rng = random.Random(f"{args.workload}/{args.seed}")
    workload = workloads.BUILDERS[args.workload](ffdyck, rng, str(ROOT))
    ops = workload.ops
    print("# inputs " + json.dumps(workload.properties))

    tracer = spanlib.Tracer(ffdyck) if args.trace else None
    is_cli = args.workload == "cli"
    results: list[BatchResult] = []
    traced_flags: list[bool] = []
    layer_rows: list[dict] = []
    busy_sums: list[tuple[float, float]] = []
    span_batches = []
    import_times: list[tuple[int, float]] = []

    def observe_cli(i, op, result):
        if result is not None:
            import_times.append((i, workloads.import_seconds(result.stderr)))

    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    min_batches = MIN_TRACED_BATCHES if args.trace else MIN_BATCHES
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(results) % 2 == 0
        b0 = time.perf_counter()
        if traced and is_cli:
            workload.child_flags[:] = ["-X", "importtime"]
            import_times.clear()
            res = run_batch(ops, observe=observe_cli)
            workload.child_flags.clear()
            row = {name: 0.0 for name in PER_LAYER}
            for op, duration in zip(ops, res.durations):
                if op.kind in CLI_WALL:
                    row[CLI_WALL[op.kind]] += duration
            scaled = [secs * res.factors[i] for i, secs in import_times]
            row["cli.import_s"] = statistics.median(scaled) if scaled else 0.0
            layer_rows.append(row)
        elif traced:
            tracer.install()
            try:
                res = run_batch(ops, tracer=tracer)
            finally:
                tracer.remove()
            batch_spans, calls = tracer.take()
            row, busy = layer_metrics(batch_spans, calls, workload, res.factors)
            layer_rows.append(row)
            busy_sums.append((busy, res.wall))
            span_batches.append(batch_spans)
        else:
            res = run_batch(ops)
        results.append(res)
        traced_flags.append(traced)
        longest = max(longest, time.perf_counter() - b0)
        if len(results) >= min_batches and time.perf_counter() + longest > deadline:
            break

    attempted = len(ops) * len(results)
    failed = sum(r.failed for r in results)
    wrong = [w for r in results for w in r.wrong]
    unexpected = [u for r in results for u in r.unexpected]
    correct = not wrong and not unexpected
    plain = [r for r, t in zip(results, traced_flags) if not t]
    q = tail_level(len(ops))
    lat = [x for r in plain for x in r.latencies]
    # Percentiles are taken over the ops, each at its median latency over the
    # batches (the batch that wall_s times).  On pooled latencies a percentile
    # rests on one sample of whichever op sits at it, which moved p50 on cli
    # and the tail on count and membership by over 10 % from run to run.
    op_medians = [statistics.median(xs) for xs in zip(*(r.latencies for r in plain))]
    tail = percentile(op_medians, q)
    beyond = sum(1 for x in lat if x >= tail)

    print("# batch walls (scaled/raw s) "
          + " ".join(f"{r.wall:.4f}/{r.raw_wall:.4f}{'T' if t else ''}" for r, t in zip(results, traced_flags)))
    factors = sorted(f for r in results for f in r.factors)
    print(f"# host-speed factor per op: min {factors[0]:.3f} median {statistics.median(factors):.3f} "
          f"max {factors[-1]:.3f} (reference tick {hostspeed.REF_TICK_S * 1e3:g} ms)")
    print(f"# batches {len(results)} ({sum(traced_flags)} traced), ops/batch {len(ops)}, "
          f"attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.6f}")
    print(f"# tolerated known-defect failures {sum(r.tolerated for r in results)}, "
          f"wrong results {len(wrong)}, unexpected errors {len(unexpected)}")
    for line in (wrong + unexpected)[:10]:
        print(f"# FAIL {line}")

    metrics: dict[str, dict] = {}
    if args.trace:
        traced_wall = per_op_median_sum([r.durations for r, t in zip(results, traced_flags) if t])
        plain_wall = per_op_median_sum([r.durations for r in plain])
        overhead = traced_wall - plain_wall
        for name in PER_LAYER:
            value = overhead if name == "trace.overhead_s" else statistics.median(row[name] for row in layer_rows)
            metrics[name] = {"value": value, "unit": unit(name)}
        print(f"# tracing overhead {overhead:.6f} s per batch "
              f"(traced wall {traced_wall:.6f} s, untraced {plain_wall:.6f} s)")
        for busy, wall in busy_sums:
            if busy > wall:
                correct = False
                print(f"# FAIL layer busy sum {busy:.6f} s exceeds batch wall {wall:.6f} s")
        if busy_sums:
            print(f"# layer busy sum / traced wall: "
                  + ", ".join(f"{b:.4f}/{w:.4f}" for b, w in busy_sums))
        if span_batches:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spanlib.write_spans(path, span_batches, t_start)
            print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": per_op_median_sum([r.durations for r in plain]), "unit": "s"},
            "cpu_s": {"value": per_op_median_sum([r.cpu_times for r in plain]), "unit": "s"},
            "op_p50_ms": {"value": percentile(op_medians, 50.0) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"# op_tail_ms is p{q:g} of {len(ops)} per-op medians; "
              f"{beyond} of {len(lat)} ops timed were at or beyond it")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
