"""Tests of the benchmark harness itself: python -m pytest perfbench"""

import json
import os
import random
import sys
import tempfile
import time

import pytest

import probe
import run


def test_self_times_of_nested_tree_add_up():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9] > d [6, 8]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0], ["d", 6.0, 8.0, 3]]
    selfs = run.self_times(spans)
    assert selfs == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 2.0, "d": 2.0}
    assert sum(selfs.values()) == 10.0


def test_self_times_sum_names_and_count_overlap_once():
    spans = [["root", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["x", 3.0, 6.0, 0],
             ["y", 7.0, 8.0, 0]]
    selfs = run.self_times(spans)
    assert selfs["root"] == 10.0 - 5.0 - 1.0
    assert selfs["x"] == 7.0


def test_recorder_parents_stay_within_a_kind():
    rec = probe.Recorder()
    inner = rec.wrap(lambda: time.sleep(0.01), "op", probe.OP)
    stage = rec.wrap(lambda: inner(), "stage", probe.STAGE)
    rec.wrap(lambda: stage(), "root", probe.STAGE)()
    names = {s[0]: s for s in rec.spans}
    assert names["root"][3] == -1
    assert names["stage"][3] == rec.spans.index(names["root"])
    assert names["op"][3] == -1          # an op does not nest under a stage
    selfs = run.self_times(rec.spans)
    assert selfs["stage"] >= 0.01 and selfs["op"] >= 0.01
    assert rec.counts == {"root_calls": 1, "stage_calls": 1, "op_calls": 1}


@pytest.fixture
def client():
    with tempfile.TemporaryDirectory() as work:
        yield run.Client(work, time.perf_counter() + 60)


def _fake_cli(client, inv, code):
    return client.run_pass([inv], lambda i, argv: ["-c", code])


def test_corrupted_output_is_a_failure(client):
    ref = b'{"command":"hilbert","exit_code":0,"outputs":{"dims":[1,0]}}\n'
    inv = {"label": "x", "argv": [], "ref": ref}
    _fake_cli(client, inv, "import sys; sys.stdout.write(%r)" % ref.decode())
    assert client.failures == []
    _fake_cli(client, inv, "print('{\"dims\": [1, 1]}')")
    _fake_cli(client, inv, "")
    assert client.attempted == 3
    assert len(client.failures) == 2


def test_nonzero_exit_is_a_failure(client):
    ref = b"ok\n"
    inv = {"label": "x", "argv": [], "ref": ref}
    _fake_cli(client, inv, "print('ok'); raise SystemExit(1)")
    _fake_cli(client, inv, "print('ok'); raise RuntimeError('crash')")
    assert client.attempted == 2
    assert [f.split(":")[1].strip() for f in client.failures] == ["exit status 1"] * 2


def test_seeded_outputs_are_checked_on_stable_keys():
    inv = {"ref": None, "stable": ("dims",), "expected": {"dims": [1, 0, 2]}}
    good = json.dumps({"exit_code": 0, "outputs": {"dims": [1, 0, 2], "x": 5}})
    assert run.check_output(inv, 0, good.encode()) is None
    assert run.check_output(inv, 0, good.replace("2]", "3]").encode())
    assert run.check_output(inv, 0, b"not json")
    assert run.check_output(inv, 0, json.dumps({"exit_code": 1, "outputs": {}}).encode())


def test_timeout_kills_child_and_raises():
    with tempfile.TemporaryDirectory() as work:
        c = run.Client(work, time.perf_counter() + 0.5)
        with pytest.raises(TimeoutError):
            c.spawn([sys.executable, "-c", "import time; time.sleep(30)"])


def test_span_pass_reaches_early_bound_names(client):
    # normalizer.py binds outer_classes with `from .groups import ...`
    out = os.path.join(client.work, "spans.json")
    inv = {"label": "an-split", "argv": ["verify", "an-split", "--machine"],
           "ref": run.read_reference("verify-an-split.out")}
    client.run_pass([inv], lambda i, argv: [run.PROBE, "spans", out, "--"] + argv)
    assert client.failures == []
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    counts = record["counts"]
    assert counts["groups.outer_classes_calls"] > 0
    assert counts["corpus.verify_example_calls"] == 1
    assert counts["corpus.assertions"] == 10
    selfs = run.self_times(record["spans"])
    root = next(s for s in record["spans"] if s[0] == "cli.main")
    stages = {b[0] for b in probe.BOUNDARIES if b[4] == probe.STAGE} | {"cli.main"}
    assert abs(sum(v for k, v in selfs.items() if k in stages) - (root[2] - root[1])) < 1e-6


def test_seeded_group_changes_signs_only():
    text = "name = t\nfield = rational\ndim = 2\ngenerator = 1, 2, 0, 4\ngenerator = 0, 1, 1, 0\n"
    outs = {run.conjugated_group_text(text, random.Random(s)) for s in range(8)}
    assert len(outs) == 2                  # D and -D give the same conjugate
    for out in outs:
        assert out.splitlines()[:3] == text.splitlines()[:3]
        gens = [line.split("=", 1)[1].split(",") for line in out.splitlines()[3:]]
        entries = [e.strip().lstrip("-").strip("()") for g in gens for e in g]
        assert entries == ["1", "2", "0", "4", "0", "1", "1", "0"]


def micro_metrics():
    sys.path.insert(0, run.SRC)
    try:
        return probe.micro(0)
    finally:
        sys.path.remove(run.SRC)


def test_every_declared_metric_has_a_source():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = {b[0] for b in probe.BOUNDARIES + probe.FIELD_OPS}
    known = {n + suffix for n in layer for suffix in ("_s", "_calls")}
    known |= {c for c, _ in probe.EXTRA_COUNTERS.values()}
    known |= set(micro_metrics())
    known |= {"cli.import_s", "trace.overhead_frac"}
    unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in known]
    assert unknown == []
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"]
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        <= set(run.WORKLOADS)
