#!/usr/bin/env python3
"""invforge benchmark: real CLI runs, checked outputs, outside-in layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client starts one `python -m invforge.cli ... --machine`
process at a time (PYTHONPATH=src, so the working tree is measured); the
next starts only after the previous has exited.  Every output is checked.

--trace 0 prints the end-to-end metrics: set-up probes, then whole passes
over the workload's invocations while the next pass fits in --seconds.
--trace 1 prints the per-layer metrics: one pass with every invocation run
untraced and then under span wrappers (probe.py spans), one scalar-op
counting pass (probe.py counts), single-operation timings and the import
cost.  Metric names and units come from BENCHMARK.json; the last line of
stdout is the result object, the line before it run metadata (host drift,
pass times).  NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join("src", "invforge", "corpus", "data")
REFERENCE = os.path.join(HERE, "reference")
PROBE = os.path.join(HERE, "probe.py")

RUN_LIMIT_S = 170      # a run ends, killing a stuck child, before the 180 s limit
SETUP_REPEATS = 5      # set-up probes before the passes, and again after them
IMPORT_REPEATS = 5
SETUP_CODE = ("import json, sys, invforge.cli\n"
              "from invforge.groups import load_group_file\n"
              "print(json.dumps([load_group_file(p).order for p in sys.argv[1:]]))")

# name -> (group file, CLI arguments before --group, after it, output keys
# that do not depend on the coordinates chosen by the seed)
SINGLE = {
    "e8-normalizer": ("e8.group", ["normalizer"], [],
                      ("center_order", "commutant_dim", "intertwiners",
                       "outer_class_count", "realized_outer_count",
                       "realized_outer_group_order", "torus_rank", "torus_split")),
    "e8-generators": ("e8.group", ["generators"], [],
                      ("degrees", "e", "scaled_exponents")),
    "m7-hilbert": ("m7.group", ["hilbert"], ["--max-degree", "12"], ("dims",)),
}
CORPUS_SMALL = ("an-split", "an-split-2", "an-split-4", "an-split-5",
                "an-nonsplit", "char2", "q8", "mu2sq", "mixed", "s3-perm",
                "claim51", "parabolic", "permmod", "permmod-z3", "permmod-z5",
                "h1-real-an", "rank-po3")
WORKLOADS = tuple(SINGLE) + ("corpus-small",)

# Boundaries a traced pass must reach on each workload; zero calls means
# the wrapping missed a caller and the per-layer numbers would be wrong.
EXPECTED_CALLS = {
    "e8-normalizer": ("groups.close", "groups.table_group", "groups.mult",
                      "groups.outer_classes", "tables.automorphisms",
                      "linalg.matmul", "normalizer.normalizer_report"),
    "e8-generators": ("groups.close", "invariants.minimal_generators",
                      "invariants.invariant_space", "poly.mul", "poly.pow",
                      "poly.substitute_linear"),
    "m7-hilbert": ("groups.close", "invariants.hilbert_dims",
                   "invariants.invariant_space", "linalg.rref", "linalg.kernel"),
    "corpus-small": ("corpus.verify_example", "groups.close",
                     "geometry.check_claim_51", "geometry.check_parabolic_claim",
                     "geometry.perm_module_irreducible", "geometry.rank_obstruction",
                     "cohomology.h1_classes", "cohomology.square_class_forms",
                     "invariants.invariant_space"),
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def signed(expr, sign):
    if sign > 0 or expr == "0":
        return expr
    return f"-({expr})"


def conjugated_group_text(text, rng):
    """The group file with every generator g replaced by D g D^-1 for one
    seeded diagonal sign matrix D.

    (D g D^-1)[i][j] = s_i s_j g[i][j]: the entries are the same expressions
    up to sign, so heights, sparsity, the monomial-vs-dense path and every
    checked answer stay the same, and so does the work: each elimination
    step is the seed-0 step with signs flipped.  Permuting coordinates or
    reordering generators would not keep the work; the cost depends on both
    (NOTES.md, findings).
    """
    lines = text.splitlines()
    n = next(int(line.split("=", 1)[1]) for line in lines
             if line.split("=", 1)[0].strip() == "dim")
    s = [rng.choice((1, -1)) for _ in range(n)]
    out = []
    for line in lines:
        key, sep, value = line.partition("=")
        if sep and key.strip() == "generator":
            e = [x.strip() for x in value.split(",")]
            line = "generator = " + ", ".join(
                signed(e[i * n + j], s[i] * s[j]) for i in range(n) for j in range(n))
        out.append(line)
    return "\n".join(out) + "\n"


def read_reference(name, mode="rb"):
    with open(os.path.join(REFERENCE, name), mode) as fh:
        return fh.read()


def corpus_group_files(ids):
    """Group files of the given corpus examples, from the manifest."""
    files, current = [], None
    with open(os.path.join(ROOT, DATA, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[example ") and line.endswith("]"):
                current = line[len("[example "):-1].strip()
            elif current in ids and line.split("=", 1)[0].strip() == "group":
                files.append(os.path.join(DATA, line.split("=", 1)[1].strip()))
    return files


def plan(workload, seed, work):
    """(invocations, group files for set-up) for one workload and seed.

    An invocation is a dict with the CLI arguments and what its stdout must
    be: the reference bytes, or, for seeded coordinates, the reference
    values of the coordinate-free output keys.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "corpus-small":
        ids = list(CORPUS_SMALL)
        if seed:
            rng.shuffle(ids)
        invocations = [{"label": f"verify {i}",
                        "argv": ["verify", i, "--machine"],
                        "ref": read_reference(f"verify-{i}.out")} for i in ids]
        return invocations, corpus_group_files(ids)
    group, head, tail, stable = SINGLE[workload]
    ref = read_reference(f"{workload}.out")
    path = os.path.join(DATA, group)
    inv = {"label": workload, "ref": ref}
    if seed:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = conjugated_group_text(fh.read(), rng)
        path = os.path.relpath(os.path.join(work, group), ROOT)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        inv = {"label": workload, "ref": None, "stable": stable,
               "expected": json.loads(ref)["outputs"]}
    inv["argv"] = head + ["--group", path] + tail + ["--machine"]
    return [inv], [path]


def check_output(inv, returncode, stdout):
    """None if the invocation's output is correct, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    if inv.get("ref") is not None:
        return None if stdout == inv["ref"] else "stdout differs from the reference"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    outputs = payload.get("outputs") if isinstance(payload, dict) else None
    if not isinstance(outputs, dict) or payload.get("exit_code") != 0:
        return "malformed machine output"
    for key in inv["stable"]:
        if outputs.get(key) != inv["expected"][key]:
            return f"outputs.{key} differs from the reference"
    return None


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

class Child:
    __slots__ = ("returncode", "stdout", "stderr", "wall", "cpu", "maxrss_kb")


class Client:
    """Runs one child at a time and keeps the failure tally of the run."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        # fixed hashing: set iteration order, and with it the work done,
        # repeats exactly from run to run
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failures = []

    def spawn(self, argv):
        """Run argv to completion; the run's deadline kills it if needed."""
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            fd = os.pidfd_open(proc.pid)
            ready = []
            try:
                left = self.deadline - time.perf_counter()
                ready = select.select([fd], [], [], max(left, 0.0))[0]
            finally:
                # past the deadline, or interrupted (SIGTERM): the child goes
                # down with the run, and is always reaped
                if not ready:
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                os.close(fd)
                proc.returncode = os.waitstatus_to_exitcode(status)  # tell Popen
            out.seek(0)
            err.seek(0)
            child = Child()
            child.returncode = proc.returncode
            child.stdout, child.stderr = out.read(), err.read()
        child.wall = wall
        child.cpu = usage.ru_utime + usage.ru_stime
        child.maxrss_kb = usage.ru_maxrss
        if not ready:
            raise TimeoutError(f"run limit of {RUN_LIMIT_S} s reached in {argv}")
        return child

    def record(self, label, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def python(self, args, label, check=None):
        """Run the interpreter on args; count it; return the child."""
        child = self.spawn([sys.executable] + args)
        problem = (f"exit status {child.returncode}" if child.returncode
                   else check(child.stdout) if check else None)
        self.record(label, problem)
        return child

    def run_pass(self, invocations, wrap=None):
        """One pass over the invocations: (wall, cpu, peak rss kb).

        wrap(i, argv) gives the interpreter arguments for invocation i;
        default: the plain CLI.
        """
        wall = cpu = 0.0
        rss = 0
        for i, inv in enumerate(invocations):
            args = (["-m", "invforge.cli"] + inv["argv"] if wrap is None
                    else wrap(i, inv["argv"]))
            child = self.spawn([sys.executable] + args)
            problem = check_output(inv, child.returncode, child.stdout)
            if problem and child.stderr:
                problem += ": " + child.stderr.decode(errors="replace").strip()[-300:]
            self.record(inv["label"], problem)
            wall += child.wall
            cpu += child.cpu
            rss = max(rss, child.maxrss_kb)
        return wall, cpu, rss


def drift_probe():
    """Seconds for a fixed integer loop, three times: host speed beside each
    run, as metadata."""
    out = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        out.append(time.perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time per span name, summed over spans of that name.

    spans: [name, start, end, parent] with parent the index of the enclosing
    span or -1.  Self time is a span's duration minus the part of it that
    its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered(children.get(i, ()), start, end)
    return out


def load_records(paths):
    """The JSON files the probes wrote.  A probe that failed may have written
    none; its failure is already counted."""
    records = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        except (OSError, ValueError):
            pass
    return records


def untraced_metrics(client, invocations, setup_files, seconds):
    orders = json.loads(read_reference("orders.json", "r"))
    want = (json.dumps([orders[os.path.basename(p)] for p in setup_files])
            + "\n").encode()

    def check_orders(stdout):
        return None if stdout == want else "group orders differ"
    def probe_setup():
        return [client.python(["-c", SETUP_CODE] + setup_files, "setup",
                              check_orders).wall for _ in range(SETUP_REPEATS)]
    # probes at both ends of the run: host speed drifts over seconds, and
    # one block of short probes would sample a single moment of it
    setup = probe_setup()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(client.run_pass(invocations))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setup += probe_setup()
    values = {
        "wall_s": statistics.median(p[0] for p in passes),
        "cpu_s": statistics.median(p[1] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p[2] for p in passes) / 1024,
    }
    meta = {"setup_s": setup, "pass_wall_s": [p[0] for p in passes],
            "pass_cpu_s": [p[1] for p in passes]}
    return values, meta


def traced_metrics(client, workload, invocations, seed):
    # each invocation untraced, then under spans: adjacent in time, so host
    # drift between the two stays small
    outs = [os.path.join(client.work, f"spans-{i}.json") for i in range(len(invocations))]
    wall = traced_wall = 0.0
    for inv, out in zip(invocations, outs):
        wall += client.run_pass([inv])[0]
        traced_wall += client.run_pass(
            [inv], lambda _, argv: [PROBE, "spans", out, "--"] + argv)[0]
    counts_out = [os.path.join(client.work, f"counts-{i}.json")
                  for i in range(len(invocations))]
    client.run_pass(invocations,
                    lambda i, argv: [PROBE, "counts", counts_out[i], "--"] + argv)
    micro_out = os.path.join(client.work, "micro.json")
    client.python([PROBE, "micro", micro_out, str(seed)], "micro")
    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(client.python(["-c", "pass"], "bare interpreter").wall)
        imported.append(client.python(["-c", "import invforge.cli"], "import").wall)

    counts, selfs = Counter(), defaultdict(float)
    for record in load_records(outs):
        counts.update(record["counts"])
        for name, value in self_times(record["spans"]).items():
            selfs[name] += value
    for record in load_records(counts_out):
        counts.update(record["counts"])
    missing = [b for b in EXPECTED_CALLS[workload] if not counts[b + "_calls"]]
    if missing:
        client.record("traced pass", "no calls recorded at " + ", ".join(missing))

    values = defaultdict(float)
    values.update(counts)
    values.update({name + "_s": v for name, v in selfs.items()})
    for record in load_records([micro_out]):
        values.update(record)
    values["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    values["trace.overhead_frac"] = traced_wall / wall - 1
    meta = {"untraced_wall_s": wall, "traced_wall_s": traced_wall,
            "stage_self_s": dict(selfs), "import_s": imported, "bare_s": bare}
    return values, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "invforge", "cli.py")):
        print(f"perfbench: no invforge source tree under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    client = Client(work, start + RUN_LIMIT_S)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "machine": os.uname().machine,
            "cpus": os.cpu_count(), "drift_loop_s_before": drift_probe()}
    values = {}
    try:
        invocations, setup_files = plan(args.workload, args.seed, work)
        if args.trace:
            values, extra = traced_metrics(client, args.workload, invocations, args.seed)
        else:
            values, extra = untraced_metrics(client, invocations, setup_files,
                                             args.seconds)
        meta.update(extra)
    except TimeoutError as exc:
        client.record("run", str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = max(client.attempted, 1)
    values["ok_frac"] = 1 - len(client.failures) / attempted
    meta.update(drift_loop_s_after=drift_probe(), failures=client.failures[:20],
                elapsed_s=time.perf_counter() - start)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": not client.failures, "attempted": attempted,
                      "failed": len(client.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
