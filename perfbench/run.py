#!/usr/bin/env python3
"""The repository benchmark: regenerate the paper's figures cold and from
a warm trial store, and build the masking-interval maps behind the AVF
report, timing each end to end.

    python3 perfbench/run.py --workload figs-cold|figs-warm|maskmap-avf \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the workload runner
(`perfbench/`, a Cargo package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs every timed step as a fresh process
with fresh, empty store and map directories under `.perfbench_work/`.
The seed goes to the campaigns' `seed` (figs-*) or to the seeded map
queries (maskmap-avf). Each timed step is repeated (at least twice)
while the next repetition should end within `--seconds`, and medians
are reported; a figs-warm step is the mean of five replays.

`--trace 0` prints every end-to-end metric; `--trace 1` instead runs the
workload once untraced and once traced, plus the per-call layer probes,
and prints every per-layer metric and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Workload and metric definitions live in `BENCHMARK.json`; which layer
metric should move which end-to-end metric is in
`perfbench/interactions.json`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figs-cold", "figs-warm", "maskmap-avf")
# The ROADMAP reference geometry: figs_all --points 10 --trials 16 --arch-trials 200.
FIGS = ["--points", "10", "--trials", "16", "--arch-trials", "200"]
FIGS_SMOKE = ["--points", "1", "--trials", "1", "--arch-trials", "7"]
MASKMAP = ["--warmup", "2000", "--window", "2000", "--queries", "20000"]
MASKMAP_SMOKE = ["--warmup", "200", "--window", "200", "--queries", "100"]
THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = {"figs-cold": 3, "figs-warm": 2, "maskmap-avf": 3}
MIN_ITERATIONS = 2
# A figs-warm replay takes about a second and its time is bimodal on a
# shared host, which makes the median of single replays jump between
# modes; a timed figs-warm iteration is the mean of this many replays.
WARM_BATCH = 5
FIG_CAMPAIGNS = ("fig2", "fig2_low32", "fig4", "latch")

# Per-layer metrics of the traced run: (name, unit, better).
CAMPAIGN_FIELDS = [
    ("wall_s", "s", "lower"), ("golden_s", "s", "lower"), ("trial_s", "s", "lower"),
    ("produce_s", "s", "lower"), ("sweep_s", "s", "lower"), ("sim_frac", "frac", "lower"),
    ("trials_cut", "count", "higher"), ("trials_pruned", "count", "higher"),
    ("shadow_runs", "count", "lower"), ("trials_cached", "count", "higher"),
]
PER_LAYER = [
    ("uarch.cycle_us", "us", "lower"),
    ("uarch.fingerprint_us", "us", "lower"),
    ("uarch.state_hash_us", "us", "lower"),
    ("uarch.clone_us", "us", "lower"),
    ("uarch.flip_bit_us", "us", "lower"),
    ("arch.step_ns", "ns", "lower"),
    ("arch.fingerprint_us", "us", "lower"),
    ("snapshot.library_build_s", "s", "lower"),
    ("snapshot.materialize_us", "us", "lower"),
    ("core.scan_cycle_ns", "ns", "lower"),
] + [
    (f"inject.{c}.{f}", u, b) for c in FIG_CAMPAIGNS for f, u, b in CAMPAIGN_FIELDS
] + [
    ("inject.fig4_prune_on.wall_s", "s", "lower"),
    ("inject.fig4_prune_on.trials_pruned", "count", "higher"),
    ("inject.fig4_prune_on.shadow_runs", "count", "lower"),
    ("perf.profile_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.lookup_us", "us", "lower"),
    ("store.record_us", "us", "lower"),
    ("store.disk_mb", "MB", "lower"),
    ("maskmap.uarch_build_s", "s", "lower"),
    ("maskmap.arch_build_s", "s", "lower"),
    ("maskmap.persist_s", "s", "lower"),
    ("maskmap.load_s", "s", "lower"),
    ("maskmap.proves_ns", "ns", "lower"),
    ("maskmap.avf_s", "s", "lower"),
    ("maskmap.disk_mb", "MB", "lower"),
    ("maskmap.mapped_cycles", "count", "higher"),
    ("maskmap.proves_answered", "count", "higher"),
    ("bench.trials", "count", "higher"),
    ("bench.paper_err_pp", "pp", "lower"),
    ("bench.output_digest", "count", "lower"),
    ("self.bench_s", "s", "lower"),
    ("self.store_s", "s", "lower"),
    ("self.inject_s", "s", "lower"),
    ("self.perf_s", "s", "lower"),
    ("self.maskmap_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# Per-layer metrics summed from the traced run's spans: (metric, span name).
SPAN_TOTALS = [
    ("perf.profile_s", "perf.profile_all"),
    ("store.open_s", "store.open"),
    ("maskmap.uarch_build_s", "maskmap.uarch_build"),
    ("maskmap.arch_build_s", "maskmap.arch_build"),
    ("maskmap.persist_s", "maskmap.persist"),
    ("maskmap.load_s", "maskmap.load"),
    ("maskmap.avf_s", "maskmap.avf"),
]


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run: work directory, child processes, checks."""

    def __init__(self, binary, seed):
        self.binary = binary
        self.seed = str(seed)
        self.work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.serial = 0
        self.attempted = 0
        self.failures = []

    def fresh_dir(self, name):
        self.serial += 1
        path = os.path.join(self.work, f"{self.serial:03d}-{name}")
        os.makedirs(path)
        return path

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def child(self, args):
        """Runs the workload runner once in a fresh process; returns its report plus
        wall, user+sys and peak RSS of that process."""
        self.serial += 1
        out = os.path.join(self.work, f"{self.serial:03d}.out")
        err = os.path.join(self.work, f"{self.serial:03d}.err")
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([self.binary] + args, stdout=fo, stderr=fe, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err) as fe:
                raise ChildFailed(f"{' '.join(args[:1])} exited {proc.returncode}: {fe.read()[-2000:]}")
        with open(out) as fo:
            report = json.loads(fo.read().strip().splitlines()[-1])
        for name, ok, detail in report["checks"]:
            self.check(name, ok, detail)
        report["wall"] = wall
        report["cpu"] = usage.ru_utime + usage.ru_stime
        report["rss_mb"] = usage.ru_maxrss / 1024.0
        return report

    def figs(self, store, out, extra=(), seed=None):
        return self.child(["figs", "--seed", seed or self.seed, "--threads", THREADS,
                           "--store", store, "--out", out] + list(extra))

    def maskmap(self, map_dir, out, phase, extra=(), trace=False):
        args = ["maskmap", "--seed", self.seed, "--map-dir", map_dir, "--out", out,
                "--phase", phase] + list(extra)
        return self.child(args + (["--trace"] if trace else []))


def read(path):
    with open(path, "rb") as f:
        return f.read()


def digest48(data):
    """A 48-bit digest, exact as a JSON number."""
    return int(hashlib.sha256(data).hexdigest()[:12], 16)


def dir_mb(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 1e6


def setup(run, workload):
    """The workload's set-up, repeated; returns (seconds per repeat, state).

    figs-cold and maskmap-avf: a smoke-geometry pass of the workload's
    own step in a throwaway directory (pages in the fresh build).
    figs-warm: cold figs runs into one trial store, first with a seed
    derived from --seed and last with --seed itself, which the timed
    runs replay. The other seeds' records make store reads a clear share
    of a warm run, as in a store that has served several campaigns."""
    times, state = [], {}
    store = run.fresh_dir("store") if workload == "figs-warm" else None
    repeats = SETUP_REPEATS[workload]
    for i in range(repeats):
        t0 = time.perf_counter()
        if workload == "figs-cold":
            run.figs(run.fresh_dir("smoke"), os.path.join(run.work, "smoke.txt"), FIGS_SMOKE)
        elif workload == "maskmap-avf":
            maps = os.path.join(run.fresh_dir("smoke"), "maps")
            os.makedirs(maps)
            run.maskmap(maps, os.path.join(run.work, "smoke.txt"), "build", MASKMAP_SMOKE)
        else:
            seed = str((int(run.seed) + repeats - 1 - i) % 2**64)
            out = os.path.join(run.work, f"fill{i}.txt")
            expect = ["--expect", "filled" if i else "empty"]
            report = run.figs(store, out, FIGS + expect, seed=seed)
            for c in FIG_CAMPAIGNS:
                cached = report["values"][f"inject.{c}.trials_cached"]
                run.check(f"{c}_fill_simulated_all", cached == 0, f"{cached} trials from store")
            state = {"store": store, "text": read(out), "report": report}
        times.append(time.perf_counter() - t0)
    return times, state


def figs_iteration(run, state, warm, trace=False):
    """One figs run in a fresh process; returns (report, text)."""
    store = state["store"] if warm else run.fresh_dir("store")
    out = run.fresh_dir("out") + "/figs.txt"
    extra = FIGS + (["--expect", "filled"] if warm else []) + (["--trace"] if trace else [])
    report = run.figs(store, out, extra)
    text = read(out)
    if warm:
        run.check("warm_text_equals_cold", text == state["text"], "warm figure text differs")
        cold = state["report"]["values"]
        for c in FIG_CAMPAIGNS:
            v = report["values"]
            key = f"inject.{c}."
            planned = cold[key + "trials_planned"]
            run.check(f"{c}_fully_cached", v[key + "trials_cached"] == planned,
                      f"{v[key + 'trials_cached']} of {planned} planned trials from store")
            run.check(f"{c}_nothing_simulated", v[key + "cycles_simulated"] == 0,
                      f"{v[key + 'cycles_simulated']} cycles simulated")
            run.check(f"{c}_same_outcomes", v[key + "trials"] == cold[key + "trials"],
                      f"{v[key + 'trials']} outcomes vs {cold[key + 'trials']} cold")
    report["disk_mb"] = dir_mb(store)
    report["work"] = report["values"]["bench.trials"]
    report["store"] = store
    report["parts"] = (report,)
    return report, text


def maskmap_iteration(run, trace=False):
    """Build into an empty map directory inside an existing store
    directory, then reload in a fresh process; returns (report, text)."""
    maps = os.path.join(run.fresh_dir("store"), "maps")
    os.makedirs(maps)
    out_b, out_l = os.path.join(maps, "..", "built.txt"), os.path.join(maps, "..", "loaded.txt")
    built = run.maskmap(maps, out_b, "build", MASKMAP, trace)
    loaded = run.maskmap(maps, out_l, "load", MASKMAP, trace)
    missing = int(built["values"]["maskmap.files_missing"])
    # One failed operation per map file the build did not persist.
    for i in range(14):
        run.check("map_file_persisted", i >= missing, "map file missing after build")
    text = read(out_b)
    run.check("reloaded_avf_equals_built", read(out_l) == text, "AVF report differs after reload")
    same = all(built["values"][k] == loaded["values"][k] for k in
               ("maskmap.proves_digest", "maskmap.proves_answered", "maskmap.mapped_cycles"))
    run.check("reloaded_maps_answer_alike", same, "seeded proves() answers differ after reload")
    report = {
        "wall": built["wall"] + loaded["wall"],
        "cpu": built["cpu"] + loaded["cpu"],
        "rss_mb": max(built["rss_mb"], loaded["rss_mb"]),
        "disk_mb": dir_mb(maps),
        "work": built["values"]["maskmap.mapped_cycles"],
        "work_wall": built["wall"],
        "build_s": built["wall"],
        "load_s": loaded["wall"],
        "parts": (built, loaded),
    }
    return report, text


def iteration(run, workload, state, trace=False):
    if workload == "maskmap-avf":
        return maskmap_iteration(run, trace)
    return figs_iteration(run, state, workload == "figs-warm", trace)


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def summary_line(name, unit, values):
    med = statistics.median(values)
    t = tail(values)
    t_text = f"p{t[0]:.0f} {t[1]:.6g}" if t else "no percentile has 10 samples above it"
    return f"  {name:<22} median {med:.6g} {unit:<5} n={len(values):<3} {t_text}"


def timed(run, workload, seconds, state):
    reports, texts = [], []
    batch = WARM_BATCH if workload == "figs-warm" else 1
    t0 = time.perf_counter()
    # Start another iteration only if it should end within --seconds.
    while len(reports) < MIN_ITERATIONS or (
            time.perf_counter() - t0) * (len(reports) + 1) / len(reports) <= seconds:
        done = [iteration(run, workload, state) for _ in range(batch)]
        texts += [text for _, text in done]
        parts = [report for report, _ in done]
        report = dict(parts[0])
        for key in ("wall", "cpu", "work_wall"):
            if key in report:
                report[key] = statistics.mean(p[key] for p in parts)
        report["rss_mb"] = max(p["rss_mb"] for p in parts)
        reports.append(report)
    for t in texts[1:]:
        run.check("text_identical_across_runs", t == texts[0], "output text changed between runs")
    return reports, texts[0]


def end_to_end(run, workload, seconds, setup_times, state):
    reports, text = timed(run, workload, seconds, state)
    wall = [r["wall"] for r in reports]
    cpu = [r["cpu"] for r in reports]
    rss = [r["rss_mb"] for r in reports]
    disk = [r["disk_mb"] for r in reports]
    rate = [r["work"] / r.get("work_wall", r["wall"]) for r in reports]
    lines = [
        summary_line("wall_s", "s", wall),
        summary_line("cpu_s", "s", cpu),
        summary_line("setup_s", "s", setup_times),
        summary_line("peak_rss_mb", "MB", rss),
        summary_line("disk_mb", "MB", disk),
    ]
    if workload == "maskmap-avf":
        lines.append(summary_line("build_s", "s", [r["build_s"] for r in reports]))
        lines.append(summary_line("load_s", "s", [r["load_s"] for r in reports]))
        lines.append(summary_line("mapped_cycles_per_s", "1/s", rate))
    else:
        lines.append(summary_line("trials_per_s", "1/s", rate))
        values = reports[0]["values"]
        lines.append(f"  paper_err_pp           {values['bench.paper_err_pp']:.6g} pp (deterministic)")
    if workload == "figs-warm":
        lines.append(f"  (each figs-warm sample is the mean of {WARM_BATCH} replays)")
    lines.append(f"  output_digest          {digest48(text)} (48-bit digest of the output text)")
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "disk_mb": (statistics.median(disk), "MB"),
        "work_per_s": (statistics.median(rate), "1/s"),
    }
    return metrics, lines


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, parent, start, end) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def span_total(spans, name):
    return sum(end - start for n, _, start, end in spans if n == name)


def per_layer(run, workload, state):
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    plain, plain_text = iteration(run, workload, state)
    traced, text = iteration(run, workload, state, trace=True)
    run.check("traced_text_equals_untraced", text == plain_text, "tracing changed the output")
    m["trace.untraced_wall_s"] = plain["wall"]
    m["trace.traced_wall_s"] = traced["wall"]
    m["trace.overhead_s"] = traced["wall"] - plain["wall"]
    m["bench.output_digest"] = float(digest48(text))
    m["maskmap.disk_mb" if workload == "maskmap-avf" else "store.disk_mb"] = traced["disk_mb"]

    spans = [s for part in traced["parts"] for s in part["spans"]]
    for part in traced["parts"]:
        for layer, secs in self_times(part["spans"]).items():
            m[f"self.{layer}_s"] += secs
        for k, v in part["values"].items():
            if k in m:
                m[k] = v
    for metric, span in SPAN_TOTALS:
        m[metric] = span_total(spans, span)

    probe = ["probe", "--seed", run.seed]
    if workload != "maskmap-avf":
        probe += ["--store", traced["store"], "--scratch", run.fresh_dir("scratch")]
    if workload == "figs-cold":
        extra = FIGS + ["--prune", "on", "--fig4-only"]
        on = run.figs(run.fresh_dir("store"), os.path.join(run.work, "fig4.txt"), extra)
        for field in ("wall_s", "trials_pruned", "shadow_runs"):
            m[f"inject.fig4_prune_on.{field}"] = on["values"][f"inject.fig4.{field}"]
    for k, v in run.child(probe)["values"].items():
        m[k] = v
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {k: (v, units[k]) for k, v in m.items()}
    return metrics, [f"  {k:<34} {v:.6g} {units[k]}" for k, v in m.items()]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "restore-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # Turn a kill into an exception, so the running child is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = Run(binary, a.seed % 2**64)
    try:
        setup_times, state = setup(run, a.workload)
        if a.trace:
            metrics, lines = per_layer(run, a.workload, state)
        else:
            metrics, lines = end_to_end(run, a.workload, a.seconds, setup_times, state)
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.work))
        except OSError:
            pass  # another run still uses it

    failed = len(run.failures)
    if not a.trace:
        ok = (run.attempted - failed) / max(run.attempted, 1)
        metrics["checks_ok_frac"] = (ok, "frac")
        lines.append(f"  failed_frac            {failed}/{run.attempted} checks failed")
    print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds:g} trace={a.trace} "
          f"threads={THREADS}")
    for line in lines:
        print(line)
    for f in run.failures:
        print(f"  FAILED {f}")
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
