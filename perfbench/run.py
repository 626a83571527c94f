"""catborel benchmark: fixed CLI command lists, run the way a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 42 --trace 0

One client runs one command per fresh process, one after another (a closed
loop), with ``CATBOREL_THREADS`` removed from the environment.  A run goes
round the workload's command list until the next command would overrun
``--seconds``.  Every command's output is checked, and a command fails on a
nonzero exit, a timeout or a failed check.

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json: the
wall and child CPU time of one pass over the command list, built from each
command's median, as ratios to the same pass run in the same rounds by the
copy of catborel in ``baseline/`` (the raw seconds are printed too); the peak
child RSS of a pass; and the median start-up time of ``import catborel.cli``.
``--trace 1`` alternates
an untraced pass with a pass whose commands run under ``trace_runner.py``,
and prints the per-layer metrics from the traced passes.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory for the workloads and the
layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src"
# catborel as it was when this benchmark was defined, never edited: the
# reference each command is timed against in the same round.
BASELINE = BENCH / "baseline"
TRACE_MARK = "catborel-trace "

# Each run must end within 180 s; a hung command is killed at this mark.
HARD_LIMIT_S = 165.0
SETUP_SAMPLES_PER_ROUND = 2

# "full" is what the benchmark measures; "tiny" (n <= 4) is for selftest.py.
# {i} {j} is the seeded cell.  The full sizes keep every command within about
# two seconds, so that a run times each command and its baseline six times or
# more: on a shared host one command's time swings by a fifth from sample to
# sample, and a median of three or four samples does not settle.
WORKLOADS = {
    "enumerate": {
        "full": ["enumerate-basic --n 6 --format json", "qnd-histogram --n 7"],
        "tiny": ["enumerate-basic --n 4 --format json", "qnd-histogram --n 4"],
    },
    "counts": {
        "full": ["bn --upto 30", "quasi-abelian --upto 7", "cells --n 11 --i {i} --j {j}"],
        "tiny": ["bn --upto 4", "quasi-abelian --upto 4", "cells --n 4 --i {i} --j {j}"],
    },
    "oracles": {
        "full": [
            "verify --max-n 4",
            "support-classes --n 6 --format json",
            "split-search --type E8",
            "order-check --type E8",
        ],
        "tiny": [
            "verify --max-n 3",
            "support-classes --n 4 --format json",
            "split-search --type D4",
            "order-check --type B3",
        ],
    },
}
CELL_N = {"full": 11, "tiny": 4}

# sha256 of the stdout of every fixed-input command, pinned at the commit
# that added this benchmark.  Seeded `cells` and `verify` are checked by rule.
PINS = {
    "enumerate-basic --n 6 --format json": "c40c1d45e6060a1508b20808da57e36794c6a1ac4e8fd13448da01da2b4cc289",
    "qnd-histogram --n 7": "a371d4b8254a73b1a8494d1b0752570166a725b084a687564ebbdd7f7443f340",
    "enumerate-basic --n 4 --format json": "9bda223bad456d5ab9057bfe1ab2a4437514226e77ed953a9746af05a31f83d2",
    "qnd-histogram --n 4": "9d3ece72d6be7adf05d6e58070b4635adfbae74ac7a905cc6bf6101fb3cc8880",
    "bn --upto 30": "1bfb0a8c7ee61cad3d7b09beb207b01496009ca9638bcbf5474c120836cfa973",
    "quasi-abelian --upto 7": "5414ec6295b6be1ac0454f08b99483f08b324becb55fa7150351c1293877a603",
    "bn --upto 4": "023cde6f8ac7bfb6c102ea16658af65a72c8ec376b5e40053872a42d853c7e06",
    "quasi-abelian --upto 4": "d818bc31e4120028f3f4907c18cb04f6c41483ecf42e09f5fea9f957ccf6a688",
    "support-classes --n 6 --format json": "a53a3fa9ee2a89ffae22dc22e530c4c8ea7f13ff75b50761dbaa1778adbe7a81",
    "split-search --type E8": "471d4962d3773882337bfcb0ac36f8f21b2b731c1b2806fb2f4d92d0be03ba42",
    "order-check --type E8": "a4d589a70a031945ca4d6fdea82124a0df47381a3e9f6db7d3a97cc623678973",
    "support-classes --n 4 --format json": "e3e5a643fbc977ba165e8d223a1c6c26637d2972e9578739ca03e979754778a1",
    "split-search --type D4": "55906c7ad339a9e66c21ef534bdd3502aea0af400de67da22e9904b615aae623",
    "order-check --type B3": "94576637afce238b6f97e08ec0efc624e933f700a3041f97d2d9f497f8409348",
}


@dataclass
class Outcome:
    """One finished child process."""

    spawned: float
    cpu: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None
    out: bytes
    err: bytes
    error: str | None = None


def child_env(path: Path = SOURCES) -> dict:
    # Bytecode is written on the first import, as an install writes it, so
    # that catborel and its baseline both run from it.
    drop = ("CATBOREL_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(path)
    return env


def run_child(argv: list[str], timeout: float, cpu: int, path: Path = SOURCES) -> Outcome:
    """Run argv on the given processor, with catborel imported from path, to
    completion; wall, CPU and peak RSS come from wait4."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(path), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = None if timed_out else spawned + timeout - time.perf_counter()
            if left is not None and left <= 0:
                proc.kill()
                timed_out = True
                continue
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - spawned
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        spawned=spawned,
        cpu=cpu,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=None if timed_out else code,
        out=b"".join(chunks[proc.stdout]),
        err=b"".join(chunks[proc.stderr]),
        error=f"timed out after {timeout:.0f} s" if timed_out else None,
    )


def _flag(tokens: list[str], name: str) -> int:
    return int(tokens[tokens.index(name) + 1])


def cell_count(n: int, i: int, j: int) -> int:
    """Size of the cell (i, j) of semilength-n Dyck paths by the reflection
    principle, computed here so that the check does not trust the program."""
    top = (n - 1 - i) + (n - 1 - j)

    def binom(a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    return binom(top, n - 1 - i) - binom(top, n - i - j - 1)


def check_cell_listing(n: int, i: int, j: int, out: bytes) -> str | None:
    """The listing must be exactly the cell: strictly increasing Dyck words of
    semilength n with first peak height i and last peak height j, as many as
    the closed form counts."""
    text = out.decode("ascii", "replace")
    if not text.endswith("\n"):
        return "cells output does not end with a newline"
    lines = text[:-1].split("\n")
    if len(lines) != cell_count(n, i, j):
        return f"cells listed {len(lines)} paths, expected {cell_count(n, i, j)}"
    prev = ""
    for word in lines:
        if len(word) != 2 * n or word <= prev:
            return f"cells line {word!r} is out of order or of the wrong length"
        prev = word
        height = 0
        peaks = []
        for k, step in enumerate(word):
            if step == "r":
                height += 1
                if k + 1 == len(word) or word[k + 1] == "f":
                    peaks.append(height)
            elif step == "f":
                height -= 1
            else:
                height = -1
            if height < 0:
                return f"cells line {word!r} is not a Dyck word"
        if height != 0:
            return f"cells line {word!r} is not a Dyck word"
        if peaks[0] != i or peaks[-1] != j:
            return f"cells line {word!r} is not in cell ({i}, {j})"
    return None


def check_output(command: str, outcome: Outcome, pins: dict) -> str | None:
    """Reason the command failed, or None."""
    if outcome.error:
        return outcome.error
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    tokens = command.split()
    if tokens[0] == "verify":
        lines = outcome.out.decode("utf-8", "replace").splitlines()
        if any(line.startswith("FAIL") for line in lines):
            return "verify reported FAIL"
        if not any(line.startswith("PASS") for line in lines):
            return "verify reported no PASS"
        return None
    if tokens[0] == "cells":
        n, i, j = (_flag(tokens, f) for f in ("--n", "--i", "--j"))
        return check_cell_listing(n, i, j, outcome.out)
    if command not in pins:
        return "no pinned output hash"
    if hashlib.sha256(outcome.out).hexdigest() != pins[command]:
        return "stdout differs from the pinned sha256"
    return None


class Run:
    """One benchmark run: the seeded command list and what it has spent."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, pins: dict):
        rng = random.Random(seed)
        cell_n = CELL_N[size]
        self.cell = (rng.randint(1, cell_n - 1), rng.randint(1, cell_n - 1))
        self.commands = [c.format(i=self.cell[0], j=self.cell[1]) for c in WORKLOADS[workload][size]]
        rng.shuffle(self.commands)
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.pins = pins
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]
        self.round = 0
        self.attempted = 0
        self.failed = 0

    def timeout(self) -> float:
        return max(1.0, self.started + HARD_LIMIT_S - time.perf_counter())

    def command(self, command: str, traced: bool) -> Outcome:
        head = [sys.executable, str(BENCH / "trace_runner.py")] if traced else [sys.executable, "-m", "catborel.cli"]
        outcome = run_child(head + command.split(), self.timeout(), self.cpu)
        outcome.error = check_output(command, outcome, self.pins)
        self.attempted += 1
        if outcome.error:
            self.failed += 1
            print(f"FAILED {command}: {outcome.error}", flush=True)
        return outcome

    def baseline(self, command: str) -> Outcome:
        outcome = run_child([sys.executable, "-m", "catborel.cli"] + command.split(), self.timeout(), self.cpu, BASELINE)
        if outcome.code != 0:
            raise RuntimeError(f"baseline {command} failed: {outcome.err.decode(errors='replace')}")
        return outcome

    def paired(self, command: str) -> tuple[Outcome, Outcome]:
        """The command and its baseline back to back, in an order that
        alternates round by round."""
        if self.round % 2:
            base = self.baseline(command)
            return self.command(command, traced=False), base
        return self.command(command, traced=False), self.baseline(command)

    def one_pass(self, traced: bool = False) -> list[Outcome]:
        return [self.command(c, traced) for c in self.commands]

    def cycle(self, steps) -> list[list]:
        """Call the steps in turn, round after round, until the next call could
        pass the deadline; every step runs at least once.  Returns each
        step's results.

        Each round runs its children on the next processor in turn: the
        processors of a shared host are slowed by their neighbours by
        different amounts, and where the scheduler puts a child would
        otherwise decide a run's times."""
        results = [[] for _ in steps]
        longest = 0.0
        calls = 0
        while True:
            self.round = calls // len(steps)
            self.cpu = self.cpus[self.round % len(self.cpus)]
            began = time.perf_counter()
            results[calls % len(steps)].append(steps[calls % len(steps)]())
            longest = max(longest, time.perf_counter() - began)
            calls += 1
            if calls >= len(steps) and time.perf_counter() + longest > self.deadline:
                return results

    def summary(self) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed}


def setup_seconds(run: Run, samples: int) -> list[Outcome]:
    """Wall times of a fresh interpreter importing the CLI."""
    argv = [sys.executable, "-c", "import catborel.cli"]
    out = []
    for _ in range(samples):
        outcome = run_child(argv, run.timeout(), run.cpu)
        if outcome.code != 0:
            raise RuntimeError(f"import catborel.cli failed: {outcome.err.decode(errors='replace')}")
        out.append(outcome)
    return out


def balanced(outcomes: list[Outcome], key: str) -> float:
    """The mean over processors of the median on each, so that a run whose
    rounds fall unevenly on a fast and a slow processor reads the same."""
    on = {}
    for o in outcomes:
        on.setdefault(o.cpu, []).append(getattr(o, key))
    return statistics.fmean(statistics.median(v) for v in on.values())


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """Each command's median over the run, taken on each processor and
    averaged over them.  A pass's wall and CPU time are the sums of these, so
    one slow command moves neither; the same is taken of the baseline, which
    runs each command right next to it, and the metrics are the ratios.
    Set-up samples are spread over the run, one group per round."""
    setup_seconds(run, 1)  # writes the bytecode cache, as an install does
    run_child([sys.executable, "-c", "import catborel.cli"], run.timeout(), run.cpu, BASELINE)
    steps = [lambda: setup_seconds(run, SETUP_SAMPLES_PER_ROUND)]
    steps += [lambda c=c: run.paired(c) for c in run.commands]
    groups, *pairs = run.cycle(steps)
    setup = [s for group in groups for s in group]
    per_command = [[cur for cur, _ in p] for p in pairs]
    per_base = [[base for _, base in p] for p in pairs]
    wall = sum(balanced(outs, "wall_s") for outs in per_command)
    cpu = sum(balanced(outs, "cpu_s") for outs in per_command)
    base_wall = sum(balanced(outs, "wall_s") for outs in per_base)
    base_cpu = sum(balanced(outs, "cpu_s") for outs in per_base)
    lines = [
        f"wall_s {wall:.6g} s",
        f"cpu_s {cpu:.6g} s",
        f"baseline: wall_s {base_wall:.6g} s, cpu_s {base_cpu:.6g} s",
        f"set-up samples {len(setup)}",
    ]
    for command, outcomes in zip(run.commands, per_command):
        walls = sorted(o.wall_s for o in outcomes)
        # the highest percentile with at least ten samples beyond it
        tail = f", p{100 * (len(walls) - 10) / len(walls):.0f} {walls[-11]:.4g} s" if len(walls) > 10 else ""
        on = " ".join(
            f"cpu{c} {statistics.median(o.wall_s for o in outcomes if o.cpu == c):.4g} s"
            for c in sorted({o.cpu for o in outcomes})
        )
        lines.append(
            f"  {command}: {len(walls)} runs, wall median {statistics.median(walls):.4g} s{tail}, "
            f"min {walls[0]:.4g} s, max {walls[-1]:.4g} s; median on {on}"
        )
    values = {
        "wall_rel": wall / base_wall,
        "cpu_rel": cpu / base_cpu,
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in outs) for outs in per_command),
        "setup_s": balanced(setup, "wall_s"),
    }
    return values, lines


def command_layers(outcome: Outcome) -> dict | None:
    """Per-layer totals of one traced command from its span dump; None when
    the process died without one (it already counts as failed)."""
    dump = None
    for line in outcome.err.decode("utf-8", "replace").splitlines():
        if line.startswith(TRACE_MARK):
            dump = json.loads(line[len(TRACE_MARK):])
    if dump is None:
        return None
    names, name_id, parent = dump["names"], dump["name"], dump["parent"]
    dur = [e - s for s, e in zip(dump["start"], dump["end"])]
    child = [0.0] * len(dur)
    for k, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[k]
    totals = {"self": {}, "incl": {}, "calls": dict(dump["calls"]), "items": dump["items"], "cache": dump["cache"]}
    for k, nid in enumerate(name_id):
        name = names[nid]
        totals["self"][name] = totals["self"].get(name, 0.0) + dur[k] - child[k]
        totals["incl"][name] = totals["incl"].get(name, 0.0) + dur[k]
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
    (main,) = (k for k, p in enumerate(parent) if p == -1)
    totals["startup_s"] = dump["start"][main] - outcome.spawned
    totals["main_s"] = dur[main]
    return totals


def layer_metrics(traced: list[Outcome], untraced_wall: float) -> dict:
    """Every per-layer value of one traced pass, keyed by metric name."""
    self_s, incl, calls, items, hits, lookups = {}, {}, {}, {}, {}, {}
    startup = main = 0.0
    for t in filter(None, map(command_layers, traced)):
        for src, dst in ((t["self"], self_s), (t["incl"], incl), (t["calls"], calls), (t["items"], items)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (h, m) in t["cache"].items():
            hits[k] = hits.get(k, 0) + h
            lookups[k] = lookups.get(k, 0) + h + m
        startup += t["startup_s"]
        main += t["main_s"]
    wall = sum(o.wall_s for o in traced)
    pairs = items.get("ideals.enumerate_basic.pairs", 0)
    values = {
        "ideals.enumerate_basic.admit_ratio": items.get("ideals.enumerate_basic", 0) / pairs if pairs else 0.0,
        "verify.checks": items.get("verify.run_suites", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.out_bytes": sum(len(o.out) for o in traced),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.startup_s": startup,
        "trace.unaccounted_s": wall - startup - main,
    }
    for name in self_s:
        values[f"{name}.self_s"] = self_s[name]
        values[f"{name}.s"] = incl[name]
    for name in calls:
        values[f"{name}.calls"] = calls[name]
    for name in items:
        values[f"{name}.items"] = items[name]
    for name in hits:
        values[f"{name}.hit_ratio"] = hits[name] / lookups[name] if lookups[name] else 0.0
    return values


def per_layer(run: Run, declared: list[dict]) -> tuple[dict, list[str]]:
    (pairs,) = run.cycle([lambda: (run.one_pass(), run.one_pass(traced=True))])
    untraced = statistics.median(sum(o.wall_s for o in p) for p, _ in pairs)
    per_pass = [layer_metrics(t, untraced) for _, t in pairs]
    # a layer the workload never enters has no span, hence 0
    metrics = {m["name"]: statistics.median(v.get(m["name"], 0) for v in per_pass) for m in declared}
    lines = [f"traced passes {len(per_pass)}; untraced wall_s median {untraced:.6g} s"]
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", pins: dict = PINS) -> dict:
    """Run the benchmark, print its report, and return the result object."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    run = Run(workload, seed, seconds, size, pins)
    print(f"workload {workload} seed {seed} cell {run.cell} commands {run.commands}", flush=True)
    values, lines = per_layer(run, declared) if trace else end_to_end(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = dict(run.summary(), metrics=metrics)
    print(f"error_rate {run.failed / run.attempted:.6g} ratio  ({run.failed} failed of {run.attempted} attempted)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "catborel" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no catborel sources under {SOURCES}\n")
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
