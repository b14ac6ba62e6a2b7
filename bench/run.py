"""Benchmark of the bch6351 codec, run from the root of a checkout.

    python3 bench/run.py --workload cli-w2 --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the unmodified ``python -m bch6351`` commands as
separate processes, one at a time (a closed loop: one client, one command
in flight), for ``--seconds``, checks every output and reports the
end-to-end metrics.  ``--trace 1`` runs the same commands in this process
through ``bch6351.cli.main`` three times (untraced, traced, and counting
field multiplications) and reports the per-layer metrics.

Every input is generated from ``--seed``; the codec sees only the
generated files and flags.  Human-readable lines, including the
environment, come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
figures, and for a traced run every span, are written under
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import refs
from tracing import Patches, Tracer, ratio, summarise

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")

CLI_FRAMES = 10_000
BER_FRAMES = 10_000
# Set-up starts are spread through the run, this many after each set of
# commands, so their median samples the same spells of CPU speed.
SETUPS_PER_RUN = 2
MIN_SETUPS = 7
# Words the self-test decodes: a weight <= 2 sweep over three codewords
# (3 x 2016) and a 20000-word decoder/oracle differential.
SELFTEST_WORDS = 3 * (63 + 1953) + 20_000
COMMAND_TIMEOUT_S = 60
# Median times of the two parts of ``gauge_s`` in one sitting on the
# machine where this benchmark was defined (2-vCPU VM, Python 3.11.7).
# Timed figures are scaled by these over the gauge times around the
# measurement, so they read as on that machine at that speed.  See
# README.md, "Calibration".
CALIBRATION_START_S = 0.055
CALIBRATION_WORK_S = 0.056

E2E_METRICS = ("frames_per_s", "setup_s", "peak_rss_mb")

# Span name -> the (module, attribute) pairs through which the codec calls it.
TRACE_POINTS = {
    "gf64.build_tables": [("cli", "build_tables")],
    "gf64.gf_mul_mse": [("cli", "gf_mul_mse")],
    "encoder.encode_lfsr": [("cli", "encode_lfsr"), ("channel_sim", "encode_lfsr")],
    "decoder.decode": [("cli", "decode"), ("channel_sim", "decode")],
    "decoder.compute_syndromes": [("decoder", "compute_syndromes"),
                                  ("reference_oracle", "compute_syndromes")],
    "decoder.solve_locator": [("decoder", "solve_locator")],
    "decoder.chien_search": [("decoder", "chien_search")],
    "decoder.apply_correction": [("decoder", "apply_correction")],
    "channel_sim.bernoulli_mask": [("channel_sim", "bernoulli_mask")],
    "channel_sim.random_error_pattern": [("channel_sim", "random_error_pattern")],
    "channel_sim.run_ber_experiment": [("channel_sim", "run_ber_experiment")],
    "reference_oracle.build_syndrome_table": [("reference_oracle", "build_syndrome_table")],
    "reference_oracle.brute_force_decode": [("reference_oracle", "brute_force_decode")],
    "cli.parse_frame_file": [("cli", "parse_frame_file")],
    "cli.write_frame_file": [("cli", "write_frame_file")],
    "cli.encode": [("cli", "_cmd_encode")],
    "cli.corrupt": [("cli", "_cmd_corrupt")],
    "cli.decode": [("cli", "_cmd_decode")],
    "cli.ber": [("cli", "_cmd_ber")],
    "cli.selftest": [("cli", "_cmd_selftest")],
}
ROOT_SPAN = "cli.main"
# Layers every workload runs: their self time is reported in seconds.
TIMED_ON_EVERY_WORKLOAD = ("encoder.encode_lfsr", "decoder.decode", "decoder.compute_syndromes",
                           "decoder.solve_locator", "decoder.chien_search",
                           "decoder.apply_correction")
# Spans whose inclusive share of the traced wall time is reported.
INCLUSIVE_SHARE = ("decoder.decode", "reference_oracle.build_syndrome_table", "cli.encode",
                   "cli.corrupt", "cli.decode", "cli.ber", "cli.selftest")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in [*TRACE_POINTS, ROOT_SPAN]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    for name in TIMED_ON_EVERY_WORKLOAD:
        units[f"{name}.self_s"] = "s"
    units["gf64.build_tables.s"] = "s"
    for name in INCLUSIVE_SHARE:
        units[f"{name}.pct"] = "%"
    units.update({
        "decoder.no_error": "count",
        "decoder.corrected": "count",
        "decoder.uncorrectable": "count",
        "decoder.chien_useful_ratio": "ratio",
        "decoder.gf_mul_table.calls": "count",
        "cli.parse_frame_file.bytes": "bytes",
        "cli.write_frame_file.bytes": "bytes",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.frames_per_s": "1/s",
        "trace.untraced_frames_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
    })
    return units


# --- workloads ------------------------------------------------------------

@dataclass
class Job:
    """Commands run back to back, and the check of what they wrote."""

    commands: list[list[str]]         # arguments after ``python -m bch6351``
    stdout: list[str]                 # file receiving each command's standard output
    outputs: list[str]                # files the commands write, removed before each run
    frames: int
    check: Callable[[list[int]], tuple[int, int]]  # exit codes -> (attempted, failed)


def _read(path: str) -> str:
    """The file's text, or "" if it cannot be read."""
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def cli_w2(seed: int, work: str, codec) -> tuple[Job, Job]:
    """encode -> corrupt --weight 2 -> decode --report on random messages."""
    corrupt_seed = refs.substream_seed(seed, 1) % 2**32
    messages = refs.random_messages(refs.substream_seed(seed, 0), CLI_FRAMES)

    def job(tag: str, msgs: list[int]) -> Job:
        path = {k: os.path.join(work, f"{tag}-{k}") for k in
                ("msg.hex", "coded.hex", "noisy.hex", "decoded.hex", "report.csv")}
        _write(path["msg.hex"], refs.frame_text(msgs))
        want_msgs = refs.frame_text(msgs).splitlines()
        want_coded = refs.frame_text(codec.encode_polydiv_oracle(m) for m in msgs).splitlines()
        want_report = [f"{i},corrected,2" for i in range(len(msgs))]

        def check(rcs: list[int]) -> tuple[int, int]:
            count = len(msgs)
            coded = _read(path["coded.hex"]).splitlines()
            decoded = _read(path["decoded.hex"]).splitlines()
            report = _read(path["report.csv"]).splitlines()
            if any(rcs) or len(coded) != count or len(decoded) != count \
                    or report[:1] != ["frame_index,status,num_errors_corrected"] \
                    or len(report) != count + 1:
                return count, count
            failed = sum(
                coded[i] != want_coded[i] or decoded[i] != want_msgs[i]
                or report[i + 1] != want_report[i]
                for i in range(count)
            )
            return count, failed

        commands = [
            ["encode", path["msg.hex"], path["coded.hex"]],
            ["corrupt", "--weight", "2", "--seed", str(corrupt_seed),
             path["coded.hex"], path["noisy.hex"]],
            ["decode", "--report", path["report.csv"], path["noisy.hex"], path["decoded.hex"]],
        ]
        stdout = [os.path.join(work, f"{tag}-{c[0]}.out") for c in commands]
        outputs = [path[k] for k in ("coded.hex", "noisy.hex", "decoded.hex", "report.csv")]
        return Job(commands, stdout, outputs, len(msgs), check)

    return job("setup", messages[:1]), job("main", messages)


def ber(p: float):
    """``ber --p P`` checked against a recomputation with the reference codec."""

    def build(seed: int, work: str, codec) -> tuple[Job, Job]:
        ber_seed = refs.substream_seed(seed, 2) % 2**32

        def job(tag: str, frames: int) -> Job:
            csv = os.path.join(work, f"{tag}-ber.csv")
            want = refs.ber_csv(p, frames, ber_seed, codec)

            def check(rcs: list[int]) -> tuple[int, int]:
                return frames, 0 if rcs == [0] and _read(csv) == want else frames

            command = ["ber", "--p", format(p, "g"), "--frames", str(frames),
                       "--seed", str(ber_seed), "--csv", csv]
            return Job([command], [os.path.join(work, f"{tag}-ber.out")], [csv], frames, check)

        return job("setup", 1), job("main", BER_FRAMES)

    return build


def selftest(seed: int, work: str, codec) -> tuple[Job, Job]:
    """``selftest``; its set-up time is that of ``tables``, the lightest command."""
    tables_out = os.path.join(work, "tables.out")
    selftest_out = os.path.join(work, "selftest.out")
    want_tables = refs.antilog_text()

    def check_tables(rcs: list[int]) -> tuple[int, int]:
        return 1, 0 if rcs == [0] and _read(tables_out) == want_tables else 1

    def check_selftest(rcs: list[int]) -> tuple[int, int]:
        lines = [ln for ln in _read(selftest_out).splitlines() if ln.startswith(("PASS", "FAIL"))]
        if rcs != [0] or not lines:
            return max(len(lines), 1), max(len(lines), 1)
        return len(lines), sum(not ln.startswith("PASS  ") for ln in lines)

    return (Job([["tables"]], [tables_out], [tables_out], 1, check_tables),
            Job([["selftest"]], [selftest_out], [selftest_out], SELFTEST_WORDS, check_selftest))


WORKLOADS = {
    "cli-w2": cli_w2,
    "ber-p1e-3": ber(1e-3),
    "ber-p1e-1": ber(1e-1),
    "selftest": selftest,
}


# --- running commands -----------------------------------------------------

class Launcher:
    """Client of ``launcher.py``, which spawns each command; see that file for why."""

    def __init__(self, cwd: str):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-E", LAUNCHER], cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the command launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Tally:
    """Items attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted_failed: tuple[int, int]) -> None:
        self.attempted += attempted_failed[0]
        self.failed += attempted_failed[1]


def _remove(paths) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def gauge_s(launcher: Launcher, work: str) -> tuple[float, float]:
    """Time a bare interpreter start, then a fixed piece of the benchmark's own code.

    These are the two ingredients of a codec command (process start and
    pure-Python work), measured without the codec, so no change to the
    codec moves them.  Each is the faster of two timings, since an
    interruption only adds time.
    """
    starts, works = [], []
    for _ in range(2):
        starts.append(launcher.run({
            "argv": [sys.executable, "-c", "pass"], "env": dict(os.environ),
            "stdin": os.path.join(work, "empty"), "stdout": os.path.join(work, "gauge.out"),
            "stderr": os.path.join(work, "gauge.err"), "timeout_s": COMMAND_TIMEOUT_S,
        })["wall_s"])
        start = time.perf_counter()
        for seed in range(1000):
            refs.bernoulli_mask(0.01, seed, refs.CODEWORD_BITS)
        refs.frame_text(refs.random_messages(seed, 2000))
        works.append(time.perf_counter() - start)
    return min(starts), min(works)


def run_processes(job: Job, launcher: Launcher, work: str, tally: Tally) -> list[dict]:
    """Run the job's commands as separate processes, then check their outputs."""
    _remove(job.outputs)
    env = dict(os.environ, PYTHONPATH=SRC)
    stdin = os.path.join(work, "empty")
    results = []
    for args, stdout in zip(job.commands, job.stdout):
        results.append(launcher.run({
            "argv": [sys.executable, "-m", "bch6351", *args], "env": env, "stdin": stdin,
            "stdout": stdout, "stderr": stdout + ".err", "timeout_s": COMMAND_TIMEOUT_S,
        }))
    tally.add(job.check([r["rc"] for r in results]))
    return results


def run_in_process(job: Job, main, tally: Tally) -> list[float]:
    """Run the job's commands through ``cli.main``; return each one's wall time."""
    _remove(job.outputs)
    rcs, walls = [], []
    for args, stdout in zip(job.commands, job.stdout):
        with open(stdout, "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = main(args)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crashing command fails its items; the run goes on
                traceback.print_exc()
                rc = 1
            walls.append(time.perf_counter() - start)
        rcs.append(rc)
    tally.add(job.check(rcs))
    return walls


def _summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})"


def end_to_end(name: str, seed: int, seconds: float, work: str) -> tuple[Tally, list]:
    """Closed-loop runs of the workload's commands as separate processes.

    Every command runs on one CPU, this process's lowest.  Each main pass
    and the set-up passes after it sit between two runs of ``gauge_s`` on
    that CPU, whose means scale their wall times to the reference speed:
    the whole gauge for the main pass, its interpreter start for set-up.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher(work)  # first, while this process is still small
    try:
        setup_job, main_job = WORKLOADS[name](seed, work, load_codec())
        tally = Tally()
        run_processes(setup_job, launcher, work, tally)  # warm-up: compiles the bytecode
        gauges = [gauge_s(launcher, work)]
        setups, runs = [], []
        start = time.perf_counter()
        while len(setups) < MIN_SETUPS or time.perf_counter() - start < seconds:
            passes = [run_processes(job, launcher, work, tally)
                      for job in [main_job, *[setup_job] * SETUPS_PER_RUN]]
            gauges.append(gauge_s(launcher, work))
            start_s, work_s = [(a + b) / 2 for a, b in zip(gauges[-2], gauges[-1])]
            scales = [(CALIBRATION_START_S + CALIBRATION_WORK_S) / (start_s + work_s)]
            scales += [CALIBRATION_START_S / start_s] * SETUPS_PER_RUN
            measured = [([r["wall_s"] for r in results], scale, results)
                        for results, scale in zip(passes, scales)]
            runs.append(measured[0])
            setups += measured[1:]
            if any(r["timed_out"] for results in passes for r in results):
                break
    finally:
        launcher.close()

    def rate(walls, scale):
        return main_job.frames / (sum(walls) * scale)

    rates = [rate(walls, scale) for walls, scale, _ in runs]
    setup_s = [sum(walls) * scale for walls, scale, _ in setups]
    processes = [r for _, _, results in [*setups, *runs] for r in results]
    setup_names = " | ".join(c[0] for c in setup_job.commands)
    rows = [
        ("frames_per_s", statistics.median(rates), "1/s",
         f"{_summary(rates)}; {main_job.frames} frames a run"),
        ("setup_s", statistics.median(setup_s), "s",
         f"{_summary(setup_s)}; {setup_names} on one frame"),
        ("peak_rss_mb", max(r["maxrss_kb"] for r in processes) / 1024, "MB",
         f"largest of {len(processes)} command processes"),
    ]
    if len(main_job.commands) > 1:
        for i, args in enumerate(main_job.commands):
            per_command = [main_job.frames / (walls[i] * scale) for walls, scale, _ in runs]
            rows.append((f"{args[0]}_frames_per_s", statistics.median(per_command), "1/s",
                         _summary(per_command)))
    if name == "selftest":
        walls = [walls[0] * scale for walls, scale, _ in runs]
        rows.append(("selftest_s", statistics.median(walls), "s", _summary(walls)))
    raw_rates = [rate(walls, 1.0) for walls, _, _ in runs]
    raw_setup = [sum(walls) for walls, _, _ in setups]
    speed = [(CALIBRATION_START_S + CALIBRATION_WORK_S) / sum(g) for g in gauges]
    rows += [
        ("wall_frames_per_s", statistics.median(raw_rates), "1/s",
         f"{_summary(raw_rates)}; not scaled"),
        ("wall_setup_s", statistics.median(raw_setup), "s", f"{_summary(raw_setup)}; not scaled"),
        ("cpu_speed", statistics.median(speed), "ratio",
         f"{_summary(speed)}; reference CPU = 1"),
        ("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
         f"{tally.failed} of {tally.attempted} items"),
    ]
    return tally, rows


def traced(name: str, seed: int, work: str) -> tuple[Tally, list, dict]:
    """Untraced, traced and counting passes of the workload in this process."""
    codec = load_codec()
    modules = {m: importlib.import_module(f"bch6351.{m}")
               for m in ("cli", "decoder", "channel_sim", "reference_oracle")}
    cli = modules["cli"]
    _, job = WORKLOADS[name](seed, work, codec)
    tally = Tally()

    untraced_s = sum(run_in_process(job, cli.main, tally))

    tracer = Tracer()

    def outcome(tracer, args, result):
        tracer.counts[f"decoder.{result.status.value}"] += 1

    def size(span):
        def observe(tracer, args, result):
            tracer.counts[f"{span}.bytes"] += os.path.getsize(args[0])
        return observe

    observers = {"decoder.decode": outcome,
                 "cli.parse_frame_file": size("cli.parse_frame_file"),
                 "cli.write_frame_file": size("cli.write_frame_file")}
    with Patches() as patches:
        for span, sites in TRACE_POINTS.items():
            for module, attr in sites:
                patches.replace(modules[module], attr,
                                lambda fn, span=span: tracer.wrap(fn, span, observers.get(span)))
        traced_s = sum(run_in_process(job, tracer.wrap(cli.main, ROOT_SPAN), tally))

    multiplications = [0]

    def counting(fn):
        def counted(*args):
            multiplications[0] += 1
            return fn(*args)
        return counted

    with Patches() as patches:
        patches.replace(modules["decoder"], "gf_mul_table", counting)
        run_in_process(job, cli.main, tally)

    stats = summarise(tracer)
    never_called = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(span: str) -> dict:
        return stats.get(span, never_called)

    wall = row(ROOT_SPAN)["total_s"]
    units = per_layer_units()
    values = {}
    for span in [*TRACE_POINTS, ROOT_SPAN]:
        values[f"{span}.calls"] = row(span)["calls"]
        values[f"{span}.self_pct"] = 100 * row(span)["self_s"] / wall
    for span in TIMED_ON_EVERY_WORKLOAD:
        values[f"{span}.self_s"] = row(span)["self_s"]
    values["gf64.build_tables.s"] = row("gf64.build_tables")["total_s"]
    for span in INCLUSIVE_SHARE:
        values[f"{span}.pct"] = 100 * row(span)["total_s"] / wall
    for key in ("decoder.no_error", "decoder.corrected", "decoder.uncorrectable",
                "cli.parse_frame_file.bytes", "cli.write_frame_file.bytes"):
        values[key] = tracer.counts[key]
    useful = ratio(tracer.counts["decoder.corrected"], row("decoder.chien_search")["calls"])
    values["decoder.chien_useful_ratio"] = useful["value"]
    values["decoder.gf_mul_table.calls"] = multiplications[0]
    values["trace.spans"] = len(tracer)
    values["trace.wall_s"] = traced_s
    values["trace.frames_per_s"] = job.frames / traced_s
    values["trace.untraced_frames_per_s"] = job.frames / untraced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s

    notes = {
        "decoder.chien_useful_ratio": f"{useful['numerator']} corrected of "
                                      f"{useful['base']} Chien searches",
        "trace.overhead_ratio": f"traced {traced_s:.6g} s against untraced {untraced_s:.6g} s",
    }
    rows = [(key, values[key], units[key], notes.get(key, "")) for key in units]
    trace = {"spans": tracer.spans(), "counts": dict(tracer.counts), "per_layer": stats}
    return tally, rows, trace


# --- environment and output -----------------------------------------------

def load_codec():
    """Import the checkout's ``bch6351`` (never an installed copy)."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    codec = importlib.import_module("bch6351")
    if os.path.dirname(os.path.dirname(os.path.abspath(codec.__file__))) != SRC:
        raise RuntimeError(f"imported bch6351 from {codec.__file__}, not from {SRC}")
    return codec


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head.removeprefix("ref: ")
    commit = _read(os.path.join(git, ref)).strip()
    if commit:
        return commit
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bch6351", "__main__.py")):
        print(f"error: no codec source at {SRC}/bch6351; run from a full checkout",
              file=sys.stderr)
        return 2
    env = environment(args)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    _write(os.path.join(work, "empty"), "")
    try:
        if args.trace:
            tally, rows, trace = traced(args.workload, args.seed, work)
        else:
            tally, rows = end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = set(per_layer_units() if args.trace else E2E_METRICS)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"env": env, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": u, "note": note} for n, v, u, note in rows}}
    if args.trace:
        record["trace"] = trace
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh)

    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, note in rows:
        print(f"{name:<42} {value:>14.6g} {unit:<6} {note}")
    print(f"# results in {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows if n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
