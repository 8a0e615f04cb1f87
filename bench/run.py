#!/usr/bin/env python3
"""coalgkit benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload structure-q --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload

Run it from the root of a checkout; the kernel is imported from `src/`.
Every workload is a closed loop with one client in one process: an
operation starts when the previous one has finished, on a fresh object
parsed from canonical JSON outside the timed interval (so a memo cache can
gain only inside one request).  `cli-cold` runs one child process at a time.

With `--trace 0` the run prints the end-to-end metrics: set-up time (the
median of IMPORT_PROBES cold imports plus the median of SETUP_REPEATS runs
of generating and serializing the inputs),
throughput, median and 95th-percentile latency with their sample counts,
the failed fraction and peak memory.  Every time it reports is scaled to
a reference CPU speed by a probe taken just before the step (see
REF_PROBE_S); the row also prints the median speed the run saw, so
wall time is about the reported time over cpu_speed.  With `--trace 1` it installs layer
wrappers (bench/tracing.py) and prints the per-layer metrics and the
tracing overhead instead.  One human-readable row per workload comes first;
the last line of standard output is one JSON object.  A run of several
workloads runs each in a process of its own, so that peak memory is per
workload, and merges their results.

Every result is checked outside the timed interval.  For the default seed
the digests of the inputs and outputs must match those in reference.json.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 200  # leaves ten samples beyond p95
DIGEST_OPS = 200  # the inputs and results every run digests
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Timings are scaled to a reference CPU speed.  On a shared host the CPU
# runs at full speed or, while a neighbour competes for it, at 1.4-1.7x
# the time, in spells of seconds to minutes.  Before each timed step the
# benchmark times a fixed probe (int arithmetic, then Fraction arithmetic,
# the two kinds the kernel spends its time on) and multiplies the step's
# wall time by REF_PROBE_S over the probe's time, so a step timed in a
# slow spell counts what it would take at full speed.
PROBE_INT_LOOPS = 6000
PROBE_FRACTION_LOOPS = 300
REF_PROBE_S = 1.2e-3
TRACE_OPS = 100  # ops in each pass of a traced run
WALL_CAP_S = 140  # no op starts after this, so a run ends within 180 s
DEFAULT_SEED = 0
# operations per second of --seconds.  The op count follows from --seconds
# alone, so a faster kernel ends the run sooner instead of doing more work.
# The rates buy the samples a steady p95 needs while keeping a run short:
# see reference.json for the wall time of a run at the baseline commit.
RATES = {"structure-q": 20, "finite-galois": 80, "day-convolution": 50, "cli-cold": 5}
WORKLOADS = tuple(RATES)

END_TO_END = (("setup_s", "s"), ("throughput_ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p95_ms", "ms"), ("peak_rss_mb", "MB"))

SPAN_METRICS = {
    "factor": ("q", "finite"),
    "linalg": ("rref", "kernel", "matmul", "minimal_polynomial"),
    "structure": ("local_decomposition", "radical", "split_semisimple", "lift_idempotent",
                  "wedderburn_splitting", "etale_part", "irreducible_components"),
    "galois": ("right_adjoint", "kbar_functor", "adjunction_checks"),
    "day": ("day_convolve", "internal_hom", "nat_space"),
    "dayclosure": ("generated_day_subcoalgebra", "invariant_closure"),
}
COUNT_METRICS = ("fields.ops.q", "fields.ops.fp", "fields.ops.fq", "polys.ops", "gfpoly.ops",
                 "linalg.rref.entries", "coalgebra.algebra_mul.calls",
                 "coalgebra.dual_algebra.calls", "day.relation_cols")


def per_layer_names():
    """Every per-layer metric with its unit, in print order."""
    out = [(name, "count") for name in COUNT_METRICS]
    for layer, fns in SPAN_METRICS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out += [("coalgebra.validate.self_s", "s"), ("structure.local_decomposition.per_op", "ratio"),
            ("structure.search.min_polys_per_decomposition", "ratio"),
            ("day.relation_rank_ratio", "ratio"), ("cli.import_s", "s"),
            ("cli.dispatch.self_s", "s"), ("jsonio.parse.self_s", "s"),
            ("jsonio.emit.self_s", "s"), ("cli.startup_share", "ratio"),
            ("trace.overhead", "ratio")]
    return out


def _import_kernel():
    """Import coalgkit from this checkout's src/ and nowhere else."""
    if not (SRC / "coalgkit" / "__init__.py").is_file():
        sys.exit(f"bench: no kernel source at {SRC.relative_to(ROOT)}/coalgkit; "
                 "run from the root of a coalgkit checkout")
    sys.path.insert(0, str(SRC))
    import coalgkit

    if Path(coalgkit.__file__).resolve().parent != SRC / "coalgkit":
        sys.exit(f"bench: coalgkit was imported from {coalgkit.__file__}, not from src/")


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8") if isinstance(item, str) else item)
    return h.hexdigest()


def _child(args, trace_path=None):
    cmd = [sys.executable, str(BENCH / "cli_child.py")]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    return subprocess.run(cmd + args, cwd=ROOT, capture_output=True, timeout=60, check=False)


def _speed():
    """The CPU's current speed: REF_PROBE_S over the time of the probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_INT_LOOPS):
        acc += i * i % 7
    acc = Fraction(0)
    for i in range(PROBE_FRACTION_LOOPS):
        acc += Fraction(i % 13, i % 7 + 1)
    return REF_PROBE_S / (time.perf_counter() - start)


def _cold_import_s():
    proc = _child(["--import-only"])
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.decode()[-400:]}")
    return float(proc.stdout)


def _percentile(values, q):
    """The q-quantile (0 < q < 1) by the method of statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


# -- in-process and command-line operation loops --------------------------------


class InProcess:
    def __init__(self, workload):
        self.wl = workload

    def generate(self, seed, n):
        from coalgkit.jsonio import canonical_json

        return [canonical_json(self.wl.make(seed, i)) for i in range(n)]

    def warm_up(self, seed):
        """One op per stratum, on inputs the timed loop never sees."""
        from coalgkit.jsonio import canonical_json

        for i in range(-self.wl.strata, 0):
            self.wl.run(self.wl.parse(json.loads(canonical_json(self.wl.make(seed, i)))))

    def one(self, index, text, tracer=None):
        """(seconds, failures, canonical result) of one operation."""
        from coalgkit.jsonio import canonical_json

        args = self.wl.parse(json.loads(text))
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = self.wl.run(args)
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"], None
        finally:
            if tracer:
                tracer.active = False
        elapsed = time.perf_counter() - start
        try:
            failures, canon = self.wl.check(args, result, index)
        except Exception as exc:  # a check that raises fails the op
            return elapsed, [f"check raised {type(exc).__name__}: {exc}"], None
        return elapsed, failures, canonical_json(canon)

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cli:
    """One `coalgkit --format json ...` child process per operation."""

    def __init__(self):
        import gen

        self.gen = gen
        self.dir = None
        self.ops = []

    def generate(self, seed, n):
        """Writes each operation's documents; returns one text per operation."""
        from coalgkit.jsonio import canonical_json

        self.dir = OUT / f"cli-inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        texts, self.ops = [], []
        for i in range(n):
            op = self.gen.cli_input(seed, i)
            paths = {}
            for key, doc in op["files"].items():
                path = self.dir / f"{i:05d}-{key}.json"
                path.write_text(canonical_json(doc), encoding="utf-8")
                paths[key] = str(path.relative_to(ROOT))
            self.ops.append((["--format", "json"] + [paths.get(a, a) for a in op["argv"]],
                             op["expect"]))
            texts.append(canonical_json(op))
        return texts

    def warm_up(self, seed):
        _child(["--", "--format", "json"] + list(self.gen.CLI_DEMOS[0][0]))

    def one(self, index, text, trace_path=None):
        argv, expect = self.ops[index]
        start = time.perf_counter()
        proc = _child(["--"] + argv, trace_path)
        elapsed = time.perf_counter() - start
        failures = []
        if proc.returncode != expect:
            failures.append(f"exit {proc.returncode}, expected {expect}: "
                            f"{proc.stderr.decode()[-300:]}")
        elif expect == 0:
            try:
                if not json.loads(proc.stdout).get("ok"):
                    failures.append("report not ok")
            except ValueError:
                failures.append("stdout is not JSON")
        canon = f"{proc.returncode}\n".encode() + proc.stdout
        return elapsed, failures, canon

    def close(self):
        if self.dir and self.dir.exists():
            for path in self.dir.iterdir():
                path.unlink()
            self.dir.rmdir()

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _runner(name):
    if name == "cli-cold":
        return Cli()
    import workloads

    return InProcess(workloads.IN_PROCESS[name]())


# -- one workload -------------------------------------------------------------------


def _setup(runner, seed, n):
    """Set-up seconds (median cold import plus median input generation) and
    the inputs.  Each generation must produce byte-identical inputs."""
    imports = [_speed() * _cold_import_s() for _ in range(IMPORT_PROBES)]
    times, texts = [], None
    for _ in range(SETUP_REPEATS):
        speed = _speed()
        start = time.perf_counter()
        again = runner.generate(seed, n)
        times.append(speed * (time.perf_counter() - start))
        if texts is not None and again != texts:
            raise RuntimeError("input generation is not deterministic")
        texts = again
    return statistics.median(imports) + statistics.median(times), texts


def _loop(runner, ops, probe=lambda index: None):
    """Run ops = [(index, text)], handing each the probe `probe(index)`;
    returns latencies scaled to the reference CPU speed, the speeds,
    failures and canonical results."""
    latencies, speeds, failures, canons = [], [], [], []
    deadline = time.perf_counter() + WALL_CAP_S
    for index, text in ops:
        if time.perf_counter() > deadline:
            break
        speeds.append(_speed())
        elapsed, bad, canon = runner.one(index, text, probe(index))
        latencies.append(elapsed * speeds[-1])
        canons.append(canon)
        if bad:
            failures.append((index, bad))
    return latencies, speeds, failures, canons


def _reference():
    path = BENCH / "reference.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def measure(name, seed, seconds):
    """The untraced run: end-to-end metrics plus correctness."""
    import tracing

    runner = _runner(name)
    n = max(MIN_OPS, round(RATES[name] * seconds))
    try:
        setup_s, texts = _setup(runner, seed, n)
        runner.warm_up(seed)
        if not tracing.pristine():
            raise RuntimeError("a coalgkit attribute is wrapped; untraced numbers would be off")
        latencies, speeds, failures, canons = _loop(runner, list(enumerate(texts)))
    finally:
        if isinstance(runner, Cli):
            runner.close()
    attempted = len(latencies)
    if attempted < n:
        print(f"{name}: stopped after {WALL_CAP_S} s at {attempted} of {n} ops",
              file=sys.stderr)
    busy = sum(latencies)
    digests = {
        "inputs": _digest(texts[:DIGEST_OPS]),
        "outputs": _digest(c or b"failed" for c in canons[:DIGEST_OPS]),
    }
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_per_s": (attempted - len(failures)) / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * _percentile(latencies, 0.95),
        "peak_rss_mb": runner.peak_rss_mb(),
    }
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "digests": digests, "speed": statistics.median(speeds)}


def trace(name, seed):
    """The traced run: one untraced and one traced pass over the same
    TRACE_OPS operations; per-layer metrics from the traced pass."""
    import tracing

    runner = _runner(name)
    n = TRACE_OPS
    trace_dir = OUT / f"trace-{name}-{seed}-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        texts = runner.generate(seed, n)
        runner.warm_up(seed)
        ops = list(enumerate(texts))
        plain, _, bad_plain, _ = _loop(runner, ops)
        if isinstance(runner, Cli):
            traced, speeds, bad_traced, _ = _loop(runner, ops, lambda i: trace_dir / f"{i:05d}.json")
            records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(trace_dir.iterdir())]
        else:
            tracer.install()
            try:
                traced, speeds, bad_traced, _ = _loop(runner, ops, lambda i: tracer)
            finally:
                tracer.uninstall()
            records = [tracer.spans()]
            tracer.write(trace_dir / "spans.json")
    finally:
        if isinstance(runner, Cli):
            runner.close()
    per_name, counts = tracing.summary(records)
    metrics = {}
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    for layer, fns in SPAN_METRICS.items():
        for fn in fns:
            calls, self_s = per_name.get(f"{layer}.{fn}", (0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.self_s"] = self_s
    metrics["coalgebra.validate.self_s"] = per_name.get("coalgebra.validate", (0, 0.0))[1]
    decompositions = metrics["structure.local_decomposition.calls"]
    metrics["structure.local_decomposition.per_op"] = decompositions / len(traced)
    metrics["structure.search.min_polys_per_decomposition"] = (
        counts.get("structure.element_min_poly.calls", 0) / decompositions if decompositions else 0.0)
    cols = counts.get("day.relation_cols", 0)
    metrics["day.relation_rank_ratio"] = counts.get("day.relation_rank", 0) / cols if cols else 0.0
    imports = [r["import_s"] for r in records if "import_s" in r]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for metric, span in (("cli.dispatch.self_s", "cli.dispatch"),
                         ("jsonio.parse.self_s", "jsonio.parse"),
                         ("jsonio.emit.self_s", "jsonio.emit")):
        metrics[metric] = per_name.get(span, (0, 0.0))[1]
    # the children time their import unscaled, so the share is of the wall time
    metrics["cli.startup_share"] = (
        statistics.median(i * s / t for i, s, t in zip(imports, speeds, traced)) if imports else 0.0)
    metrics["trace.overhead"] = sum(traced) / sum(plain)
    failures = bad_plain + bad_traced
    return {"attempted": len(plain) + len(traced), "failed": len(failures),
            "failures": failures, "metrics": metrics, "trace_dir": trace_dir,
            "traced_ops": len(traced)}


# -- reporting -----------------------------------------------------------------------


def _row(name, res):
    m = res["metrics"]
    n = res["attempted"]
    beyond = n - int(0.95 * n)
    return (f"{name:16s} setup_s={m['setup_s']:.3f} s  "
            f"throughput_ops_per_s={m['throughput_ops_per_s']:.2f} 1/s  "
            f"latency_p50_ms={m['latency_p50_ms']:.2f} ms (n={n})  "
            f"latency_p95_ms={m['latency_p95_ms']:.2f} ms (n={n}, {beyond} beyond)  "
            f"failed_frac={res['failed'] / n:.4f} ({res['failed']}/{n})  "
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB  cpu_speed={res['speed']:.2f}")


def _each_in_own_process(names, opts):
    """Runs each workload in a fresh `run.py --workload W` process, passes
    on its rows and merges the JSON lines under `W/` prefixes."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update((f"{name}/{key}", value) for key, value in res["metrics"].items())
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    names = WORKLOADS if opts.workload == "all" else tuple(opts.workload.split(","))
    unknown = [w for w in names if w not in RATES]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    _import_kernel()
    # one CPU for the benchmark and its children, so that each speed probe
    # runs on the CPU that runs the step it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if len(names) > 1:
        correct, attempted, failed, metrics = _each_in_own_process(names, opts)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    name = names[0]
    OUT.mkdir(exist_ok=True)
    want = _reference().get("digests", {}).get(name)
    res = trace(name, opts.seed) if opts.trace else measure(name, opts.seed, opts.seconds)
    for index, bad in res["failures"][:5]:
        print(f"{name}: op {index} failed: {'; '.join(bad)}", file=sys.stderr)
    correct = res["failed"] == 0
    if opts.trace:
        print(f"{name:16s} traced {res['traced_ops']} ops, overhead "
              f"{res['metrics']['trace.overhead']:.2f}x, spans in "
              f"{res['trace_dir'].relative_to(ROOT)}")
    else:
        print(_row(name, res))
        dig = res["digests"]
        print(f"{name:16s} input digest {dig['inputs']}  output digest {dig['outputs']}")
        if opts.seed == DEFAULT_SEED:
            if res["attempted"] < DIGEST_OPS:
                print(f"{name}: only {res['attempted']} ops ran, so the {DIGEST_OPS}-op "
                      "digests of reference.json could not be checked", file=sys.stderr)
                correct = False
            elif want != dig:
                print(f"{name}: digests differ from reference.json: {want}", file=sys.stderr)
                correct = False
    units = dict(END_TO_END) if not opts.trace else dict(per_layer_names())
    metrics = {key: {"value": value, "unit": units[key]} for key, value in res["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
