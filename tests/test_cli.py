import json
import os
import subprocess
import sys

import pytest

from invforge.cli import main
from invforge import corpus

DATA = corpus.DATA_DIR
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference")
E8 = "src/invforge/corpus/data/e8.group"
GOLDEN = [(name, ["verify", name[len("verify-"):-len(".out")]])
          for name in sorted(os.listdir(REFERENCE)) if name.startswith("verify-")]
GOLDEN += [("e8-normalizer.out", ["normalizer", "--group", E8]),
           ("e8-generators.out", ["generators", "--group", E8])]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_human(capsys):
    code, out, err = run_cli(capsys, "info", "--group",
                             os.path.join(DATA, "q8.group"))
    assert code == 0
    assert "order = 8" in out


def test_generators_machine(capsys):
    code, out, _ = run_cli(capsys, "generators", "--group",
                           os.path.join(DATA, "an-split.group"), "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["degrees"] == [2, 3, 3]
    assert payload["outputs"]["e"] == 1
    assert payload["exit_code"] == 0


def test_machine_output_deterministic(capsys):
    argv = ["hilbert", "--group", os.path.join(DATA, "mu2sq.group"),
            "--max-degree", "6", "--machine"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["outputs"]["dims"] == [1, 0, 2, 0, 3, 0, 4]


def test_molien_command(capsys):
    code, out, _ = run_cli(capsys, "molien", "--group",
                           os.path.join(DATA, "mu2sq.group"),
                           "--max-degree", "6", "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["dims"] == [1, 0, 2, 0, 3, 0, 4]


def test_relation_command(capsys):
    code, out, _ = run_cli(capsys, "relation", "--group",
                           os.path.join(DATA, "an-split.group"),
                           "--wdeg-max", "8", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["relation"] == "y1^3 - y2*y3"
    assert payload["outputs"]["weighted_degree"] == 6


def test_normalizer_command(capsys):
    code, out, _ = run_cli(capsys, "normalizer", "--group",
                           os.path.join(DATA, "an-split.group"), "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["commutant_dim"] == 2
    assert payload["outputs"]["realized_outer_count"] == 1


def test_fixed_points_command(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--group",
                           os.path.join(DATA, "an-nonsplit.group"), "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["count"] == 0


def test_rank_command(capsys):
    code, out, _ = run_cli(capsys, "rank", "--group",
                           os.path.join(DATA, "po3diag.group"),
                           "--ell", "2", "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["rank"] == 2


def test_permmod_command(capsys):
    code, out, _ = run_cli(capsys, "permmod", "--group",
                           os.path.join(DATA, "a4perm.group"),
                           "--p", "5", "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["irreducible"] is True


def test_claim51_command_pass_and_equality(capsys):
    code, out, _ = run_cli(capsys, "claim51", "--poly", "x*(x+1)*y*(y+1)",
                           "--q", "2", "--n", "2", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["total"] == 8
    assert payload["outputs"]["bound"] == 8
    assert payload["outputs"]["verdict"] is True


def test_parabolic_command(capsys):
    code, out, _ = run_cli(capsys, "parabolic", "--q", "3", "--n", "3",
                           "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["verdict"] is True


def test_h1_command(capsys):
    code, out, _ = run_cli(capsys, "h1", "--action",
                           os.path.join(DATA, "z2-inv-mu4.action"), "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["class_count"] == 2


def test_square_classes_command(capsys):
    code, out, _ = run_cli(capsys, "square-classes", "--field", "reals",
                           "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["count"] == 2


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "an-split", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["passed"] is True


def test_generators_icosahedral_cli(capsys, icosahedral):
    code, out, _ = run_cli(capsys, "generators", "--group",
                           os.path.join(DATA, "e8.group"), "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["degrees"] == [12, 20, 30]
    assert payload["outputs"]["e"] == 2
    assert payload["outputs"]["scaled_exponents"] == [6, 10, 15]


def test_verify_all_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["passed"] is True
    examples = payload["outputs"]["examples"]
    assert len(examples) >= 10
    assert all(e["passed"] for e in examples)


def test_list_examples_command(capsys):
    code, out, _ = run_cli(capsys, "list-examples", "--machine")
    assert code == 0
    examples = json.loads(out)["outputs"]["examples"]
    assert len(examples) >= 10
    ids = {e["id"] for e in examples}
    assert "e8" in ids and "char2" in ids


def test_machine_flag_before_or_after_subcommand(capsys):
    for argv in (["list-examples"],
                 ["info", "--group", os.path.join(DATA, "q8.group")]):
        _, before, _ = run_cli(capsys, "--machine", *argv)
        _, after, _ = run_cli(capsys, *argv, "--machine")
        _, human, _ = run_cli(capsys, *argv)
        assert before == after != human
        assert json.loads(before)["exit_code"] == 0


def test_failed_certificate_is_an_error_exit(capsys, monkeypatch):
    from invforge import normalizer
    monkeypatch.setattr(normalizer, "verify_intertwiner", lambda *args: False)
    code, out, err = run_cli(capsys, "normalizer", "--group",
                             os.path.join(DATA, "an-split.group"), "--machine")
    assert code == 1
    assert out == ""
    assert err.startswith("error: intertwiner fails")


def test_exit_code_computation_error(capsys):
    code, out, err = run_cli(capsys, "molien", "--group",
                             os.path.join(DATA, "char2.group"),
                             "--max-degree", "4")
    assert code == 1
    assert "error" in err


def test_exit_code_failing_verdict(capsys):
    # rank hypothesis fails: mu_3 diag in GL_2 with ell = 2 has no 2-torsion
    code, out, _ = run_cli(capsys, "rank", "--group",
                           os.path.join(DATA, "an-split.group"),
                           "--ell", "2", "--machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["outputs"]["hypothesis_holds"] is False
    assert payload["exit_code"] == 1


def test_exit_code_unknown_command(capsys):
    code = main(["definitely-not-a-command"])
    _ = capsys.readouterr()
    assert code == 2


def test_unknown_command_returns_2():
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", "definitely-not-a-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_missing_args_exit_2(capsys):
    code = main(["info"])
    _ = capsys.readouterr()
    assert code == 2


PASS_FAIL_INVOCATIONS = [
    ("info", ["info", "--group", os.path.join(DATA, "q8.group")],
     ["info", "--group", "/no/such/file.group"]),
    ("hilbert", ["hilbert", "--group", os.path.join(DATA, "mu2sq.group"),
                 "--max-degree", "4"],
     ["hilbert", "--group", "/no/such/file.group", "--max-degree", "4"]),
    ("molien", ["molien", "--group", os.path.join(DATA, "mu2sq.group"),
                "--max-degree", "4"],
     ["molien", "--group", os.path.join(DATA, "char2.group"),
      "--max-degree", "4"]),
    ("generators", ["generators", "--group", os.path.join(DATA, "an-split.group")],
     ["generators", "--group", os.path.join(DATA, "char2.group")]),
    ("relation", ["relation", "--group", os.path.join(DATA, "an-split.group"),
                  "--wdeg-max", "6"],
     ["relation", "--group", "/no/such/file.group", "--wdeg-max", "6"]),
    ("normalizer", ["normalizer", "--group", os.path.join(DATA, "an-split.group")],
     ["normalizer", "--group", os.path.join(DATA, "q8.group"),
      "--aut-bound", "2"]),
    ("fixed-points", ["fixed-points", "--group",
                      os.path.join(DATA, "an-split.group")],
     ["fixed-points", "--group", os.path.join(DATA, "an-split-2.group")]),
    ("rank", ["rank", "--group", os.path.join(DATA, "po3diag.group"),
              "--ell", "2"],
     ["rank", "--group", os.path.join(DATA, "po3diag.group"), "--ell", "3"]),
    ("permmod", ["permmod", "--group", os.path.join(DATA, "a4perm.group"),
                 "--p", "3"],
     ["permmod", "--group", os.path.join(DATA, "q8.group"), "--p", "3"]),
    ("claim51", ["claim51", "--poly", "x*y", "--q", "2", "--n", "2"],
     ["claim51", "--poly", "x*y +", "--q", "2", "--n", "2"]),
    ("parabolic", ["parabolic", "--q", "3", "--n", "3"],
     ["parabolic", "--q", "3", "--n", "3", "--poly", "x2^2 + x2*x3"]),
    ("h1", ["h1", "--action", os.path.join(DATA, "z2-on-z2.action")],
     ["h1", "--action", "/no/such/file.action"]),
    ("square-classes", ["square-classes", "--field", "reals"],
     ["square-classes", "--field", "finite(2)"]),
    ("verify", ["verify", "an-split"],
     ["verify", "no-such-example"]),
    ("list-examples", ["list-examples"], None),
]


@pytest.mark.parametrize("name,passing,failing", PASS_FAIL_INVOCATIONS,
                         ids=[r[0] for r in PASS_FAIL_INVOCATIONS])
def test_exit_code_contract_per_subcommand(capsys, name, passing, failing):
    code = main(passing)
    _ = capsys.readouterr()
    assert code == 0, f"{name}: passing invocation should exit 0"
    if failing is None:
        # no computation-level failure exists; a usage error exits 2
        code = main([name, "--bogus-flag"])
        _ = capsys.readouterr()
        assert code == 2
    else:
        code = main(failing)
        _ = capsys.readouterr()
        assert code == 1, f"{name}: failing invocation should exit 1"


def test_machine_roundtrip_lossless(capsys):
    code, out, _ = run_cli(capsys, "claim51", "--poly", "x", "--q", "3",
                           "--n", "2", "--machine")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_cli_entry_point_subprocess():
    group = os.path.join(DATA, "mu2sq.group")
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", "info", "--group", group,
         "--machine"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["outputs"]["order"] == 4


def test_machine_output_byte_identical_across_processes():
    argv = [sys.executable, "-m", "invforge.cli", "hilbert", "--group",
            os.path.join(DATA, "mu2sq.group"), "--max-degree", "6",
            "--machine"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_machine_output_matches_reference(name, argv, capsys, monkeypatch):
    # the committed reference outputs name group files relative to the repo root
    monkeypatch.chdir(ROOT)
    with open(os.path.join(REFERENCE, name), "rb") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, *argv, "--machine")
    assert code == 0
    assert out.encode() == want


@pytest.mark.parametrize("argv", [
    ["molien", "--group", os.path.join(DATA, "q8.group"), "--max-degree", "-1"],
    ["generators", "--group", os.path.join(DATA, "q8.group"), "--max-degree", "-3"],
    ["hilbert", "--group", os.path.join(DATA, "q8.group"), "--max-degree", "-1"],
    ["relation", "--group", os.path.join(DATA, "q8.group"), "--wdeg-max", "-1"],
], ids=["molien", "generators", "hilbert", "relation"])
def test_negative_degree_bound_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--machine")
    assert code == 1 and out == ""
    assert err == "error: d_max must be >= 0\n"


def test_parabolic_without_a_first_coordinate_refused(capsys):
    # n = 0 has no hyperplane x1 = 0 (it used to report a vacuous success)
    code, out, err = run_cli(capsys, "parabolic", "--q", "3", "--n", "0")
    assert code == 1 and out == ""
    assert err == "error: the hyperplane x1 = 0 needs n >= 1\n"


def test_claim51_without_variables_refused(capsys):
    # n = 0 made the bound q^(n-1) * deg f a float ("bound": 0.0, exit 0)
    code, out, err = run_cli(capsys, "claim51", "--poly", "1", "--q", "3",
                             "--n", "0", "--machine")
    assert code == 1 and out == ""
    assert err == "error: the bound q^(n-1) * deg f needs n >= 1\n"


def test_group_file_with_negative_dim_refused(tmp_path):
    # dim = -1 passed the entry count (n * n = 1), built 0x0 generators and
    # ended in an IndexError traceback
    path = tmp_path / "bad.group"
    path.write_text("field = rational\ndim = -1\ngenerator = 5\n")
    proc = subprocess.run([sys.executable, "-m", "invforge.cli", "info",
                           "--group", str(path)], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("lines", [
    ["gamma = cyclic(2)", "generator = 1", "image = aut 99"],
    ["gamma = cyclic(2)", "generator = 7", "image = perm 0,3,2,1"],
    ["gamma = cyclic(2)", "generator = 1", "image = perm 0,3,2"],
    ["gamma_table = 0,1;1", "generator = 1", "image = perm 0,3,2,1"],
], ids=["aut-index", "generator", "short-perm", "ragged-table"])
def test_malformed_action_file_refused(capsys, tmp_path, lines):
    # each of these used to end in an IndexError traceback
    path = tmp_path / "bad.action"
    path.write_text("\n".join(
        lines + ["module = " + os.path.join(DATA, "mu4mod.group")]) + "\n")
    code, out, err = run_cli(capsys, "h1", "--action", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


# fixed-points and info reach Polynomial.evaluate through the eigenvalue
# search, and parabolic reaches translate and the dehomogenization.  Their
# stdout, stderr and exit codes were captured by running
# `python -m invforge.cli <argv> --machine` from the repo root while both
# still ran FieldElement loops, so any change of bytes shows here.
with open(os.path.join(ROOT, "tests", "data", "cli-machine-outputs.json")) as fh:
    PINNED = json.load(fh)


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_machine_output_matches_pinned_bytes(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv.split(), "--machine")
    assert (code, out, err) == (PINNED[argv]["exit_code"], PINNED[argv]["stdout"],
                                PINNED[argv]["stderr"])


def test_negative_relation_bound_refused_before_the_search(capsys, monkeypatch):
    from invforge import cli

    def no_search(*args, **kwargs):
        pytest.fail("minimal_generators ran for a negative --wdeg-max")

    monkeypatch.setattr(cli, "minimal_generators", no_search)
    code, out, err = run_cli(capsys, "relation", "--group",
                             os.path.join(DATA, "e8.group"), "--wdeg-max", "-1",
                             "--machine")
    assert code == 1 and out == ""
    assert err == "error: d_max must be >= 0\n"


def test_parabolic_n1_notes_have_no_float(capsys):
    # the multiplicity closed form (q^(n-2)-1)/(q-1) needs n >= 2
    code, out, _ = run_cli(capsys, "parabolic", "--q", "3", "--n", "1", "--machine")
    assert code == 0
    assert json.loads(out)["outputs"]["notes"] == [
        "computed: deg = 1, max multiplicity off (x1=0) = 0",
        "closed-form values for comparison (not asserted): "
        "deg = (q^(n-1)-1)/(q-1) = 0",
    ]
