import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hallkit.cli import dispatch, main, parse_cayley_file, parse_relation_file, render
from hallkit.enumeration import MAX_COUNT_DIM, MAX_MATERIALIZE_DIM
from hallkit.relations import MAX_DIM


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    write("delta2.rel", "2\n10\n01\n")
    write("zero2.rel", "2\n00\n00\n")
    write("ones2.rel", "2\n11\n11\n")
    write("bad.rel", "3\n101\n1011\n111\n")
    write("z2.cay", "e,a\n1,2\n2,1\nidentity=e\n")
    write("semilattice.cay", "one,z\n1,2\n2,2\nidentity=one\n")
    write("hall2.cay", _hall2_text())
    return paths


@pytest.fixture
def main_env(monkeypatch):
    """main() sets OPENBLAS_NUM_THREADS=1 in os.environ; set first here, monkeypatch
    puts back whatever this process had once the test ends."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _hall2_text():
    from hallkit import emit_cayley, materialize_hall

    return emit_cayley(materialize_hall(2)[0])


def test_parse_relation_file(files):
    r = parse_relation_file(files["delta2.rel"])
    assert r.dim == 2 and r.pairs() == [(1, 1), (2, 2)]
    with pytest.raises(ValueError, match="line 3"):
        parse_relation_file(files["bad.rel"])
    with pytest.raises(ValueError):
        parse_relation_file(files["delta2.rel"] + ".missing")


def test_parse_cayley_file(files):
    s = parse_cayley_file(files["z2.cay"])
    assert s.labels == ("e", "a") and s.identity == 0


def test_check_hall_pass(files):
    report, code = dispatch(["check-hall", files["ones2.rel"]])
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["witness"] == [1, 2]


def test_check_hall_fail(files):
    report, code = dispatch(["check-hall", files["zero2.rel"]])
    assert code == 1
    assert report["status"] == "fail"
    assert report["results"]["witness"] is None
    assert report["witnesses"]


def test_compose(files):
    report, code = dispatch(["compose", files["delta2.rel"], files["ones2.rel"]])
    assert code == 0
    assert report["results"]["relation"] == "2\n11\n11\n"


def test_analyze_group(files):
    report, code = dispatch(["analyze", files["z2.cay"]])
    assert code == 0
    results = report["results"]
    assert results["is_j_trivial"] is False
    assert results["is_block_group"] is True
    assert results["j_classes"] == [["e", "a"]]


def test_power_group(files):
    report, code = dispatch(["power-group", "--group", "cyclic:3"])
    assert code == 0
    assert report["results"]["power_order"] == 7
    assert report["results"]["is_block_group"] is True


def test_power_group_from_file(files):
    report, code = dispatch(["power-group", "--group", f"file:{files['z2.cay']}"])
    assert code == 0
    assert report["results"]["power_order"] == 3


@pytest.mark.usefixtures("main_env")
def test_power_group_over_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["power-group", "--group", "cyclic:13"])
    assert exc.value.code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert "cap" in report["witnesses"][0]


@pytest.mark.parametrize("argv", [
    ["power-group", "--group", "symmetric:1000000"],
    ["embed", "--group", "cyclic:5000"],
    ["power-group", "--group", "symmetric:6"],
])
def test_group_orders_past_the_subset_cap_refused_before_work(argv):
    start = time.perf_counter()
    report, code = dispatch(argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and report["status"] == "error"
    message = report["witnesses"][0]
    assert "cap" in message and len(message) < 120


def test_embed(files):
    report, code = dispatch(["embed", "--group", "cyclic:3"])
    assert code == 0
    assert report["results"]["injective"] is True
    assert report["results"]["multiplicative"] is True
    assert report["results"]["pairs_checked"] == 49


def test_semidirect(files):
    report, code = dispatch(["semidirect", "--n", "2"])
    assert code == 0
    results = report["results"]
    assert results["semidirect_order"] == 8
    assert results["hall_order"] == 7
    assert results["surjective"] is True
    assert results["factorization_roundtrip"] is True


def test_count_hall(files):
    report, code = dispatch(["count-hall", "--n", "2", "--no-timing"])
    assert code == 0
    assert report["results"]["total_hall"] == 7
    assert "elapsed_seconds" not in report["results"]


def test_count_hall_env_workers(monkeypatch):
    monkeypatch.setenv("HALLKIT_WORKERS", "2")
    report, code = dispatch(["count-hall", "--n", "2", "--no-timing"])
    assert code == 0
    assert report["inputs"]["workers"] == 2
    assert report["results"]["total_hall"] == 7


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_count_hall_bad_env_workers(monkeypatch, value):
    monkeypatch.setenv("HALLKIT_WORKERS", value)
    report, code = dispatch(["count-hall", "--n", "2", "--no-timing"])
    assert code == 2
    assert json.loads(render(report))["status"] == "error"
    assert report["witnesses"]


def test_campaign(files):
    report, code = dispatch(["campaign", "--n", "2", "--no-timing"])
    assert code == 0
    assert all(c["passed"] for c in report["results"]["checks"])


def test_divide_found(files):
    report, code = dispatch(["divide", files["semilattice.cay"], files["hall2.cay"]])
    assert code == 0
    assert report["results"]["found"] is True
    assert report["results"]["generators"]


def test_divide_not_found(files):
    report, code = dispatch(["divide", files["z2.cay"], files["semilattice.cay"]])
    assert code == 1
    assert report["results"]["found"] is False
    assert "not a proof" in report["results"]["note"]


@pytest.mark.usefixtures("main_env")
def test_divide_huge_generator_bound(files, capsys):
    # the subset sizes stop at the target's size, so a hostile bound costs nothing
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["divide", files["z2.cay"], files["semilattice.cay"],
              "--max-generators", "1000000000"])
    assert time.perf_counter() - start < 2
    assert exc.value.code == 1
    note = json.loads(capsys.readouterr().out)["results"]["note"]
    assert note == ("no witness within bounds (generator subsets up to size 1000000000);"
                    " absence within bounds is not a proof of non-division")


GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code); each report is GOLDEN/<name>.json, the stdout of
# `python -m hallkit.cli <argv> --no-timing` run inside tests/golden
GOLDEN_REPORTS = {
    "check-hall-hall3": (["check-hall", "hall3.rel"], 0),
    "check-hall-nonhall3": (["check-hall", "nonhall3.rel"], 1),
    "compose-hall3-nonhall3": (["compose", "hall3.rel", "nonhall3.rel"], 0),
    "count-hall-3": (["count-hall", "--n", "3"], 0),
    "count-hall-6": (["count-hall", "--n", "6"], 0),
    "analyze-hall2": (["analyze", "hall2.cay"], 0),
    "power-group-cyclic4": (["power-group", "--group", "cyclic:4"], 0),
    "power-group-symmetric3": (["power-group", "--group", "symmetric:3"], 0),
    "embed-cyclic3": (["embed", "--group", "cyclic:3"], 0),
    "embed-cyclic12": (["embed", "--group", "cyclic:12"], 0),
    "semidirect-2": (["semidirect", "--n", "2"], 0),
    "campaign-2": (["campaign", "--n", "2"], 0),
    "divide-semilattice-hall2": (["divide", "semilattice.cay", "hall2.cay"], 0),
    "refuse-power-group-cyclic13": (["power-group", "--group", "cyclic:13"], 2),
    "refuse-analyze-nonassoc": (["analyze", "nonassoc.cay"], 2),
    "refuse-analyze-outofrange": (["analyze", "outofrange.cay"], 2),
    "refuse-check-hall-missing": (["check-hall", "missing.rel"], 2),
    "refuse-check-hall-malformed": (["check-hall", "malformed.rel"], 2),
    "refuse-count-hall-9": (["count-hall", "--n", "9"], 2),
    "refuse-power-group-cyclic-x": (["power-group", "--group", "cyclic:x"], 2),
}


@pytest.mark.usefixtures("main_env")
@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_reports(name, monkeypatch, capsys):
    argv, code = GOLDEN_REPORTS[name]
    monkeypatch.chdir(GOLDEN)  # reports echo the input paths as given
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-timing"])
    assert exc.value.code == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _fresh_python(*args):
    """Run a new interpreter inside tests/golden, on this checkout's sources, with
    OPENBLAS_NUM_THREADS unset unless the program sets it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args], cwd=GOLDEN, capture_output=True, text=True,
                          timeout=60, env={**env, "PYTHONPATH": src})


HEAVY_MODULES = ("numpy", "concurrent.futures", "multiprocessing")

LOADED_AFTER = """
import json, sys
import hallkit.cli
for argv in json.loads(sys.argv[1]):
    hallkit.cli.dispatch(argv)
print(json.dumps([m for m in %r if m in sys.modules]))
""" % (HEAVY_MODULES,)


@pytest.mark.parametrize("argvs, loaded", [
    ([], []),
    ([["check-hall", "hall3.rel"], ["check-hall", "nonhall3.rel"],
      ["compose", "hall3.rel", "nonhall3.rel"], ["check-hall", "missing.rel"],
      ["power-group", "--group", "cyclic:x"], ["count-hall", "--n", "9"],
      ["count-hall", "--n", "0"]], []),
    # Cayley text errors are refused by the text layer, before the table engine loads
    ([["analyze", "missing.cay"], ["analyze", "outofrange.cay"], ["analyze", "malformed.rel"],
      ["divide", "outofrange.cay", "hall2.cay"], ["divide", "hall2.cay", "missing.cay"],
      ["embed", "--group", "file:missing.cay"], ["power-group", "--group", "file:outofrange.cay"]],
     []),
    # associativity is a table check
    ([["analyze", "hall2.cay"]], ["numpy"]),
    ([["analyze", "nonassoc.cay"]], ["numpy"]),
    ([["count-hall", "--n", "3", "--workers", "1000000000"], ["campaign", "--n", "1"]], ["numpy"]),
], ids=["import", "pure-relation-commands", "cayley-text-refusals", "analyze", "nonassoc",
        "count-in-process"])
def test_fresh_cli_loads_the_table_engine_only_when_used(argvs, loaded):
    # a subprocess, because this test process already holds numpy
    proc = _fresh_python("-c", LOADED_AFTER, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded


@pytest.mark.parametrize("name", ["check-hall-nonhall3", "compose-hall3-nonhall3",
                                  "refuse-power-group-cyclic-x", "refuse-analyze-outofrange"])
def test_golden_reports_from_the_entry_point(name):
    argv, code = GOLDEN_REPORTS[name]
    proc = _fresh_python("-m", "hallkit.cli", *argv, "--no-timing")
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.encode() == (GOLDEN / f"{name}.json").read_bytes()


THREADS_AFTER = """
import os, sys
from hallkit.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write(f"{code} {'numpy' in sys.modules} {len(os.listdir('/proc/self/task'))}")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("argv", [["analyze", "hall2.cay"], ["power-group", "--group", "cyclic:4"]])
def test_fresh_cli_runs_the_table_engine_on_one_thread(argv):
    # main() asks OpenBLAS for no worker thread: hallkit makes no BLAS call
    proc = _fresh_python("-c", THREADS_AFTER, *argv, "--no-timing")
    assert proc.stderr == "0 True 1"


ENVIRON_AFTER = """
import json, os, sys
before = dict(os.environ)
import hallkit.cli
for argv in json.loads(sys.argv[1]):
    hallkit.cli.dispatch(argv)
print(json.dumps([dict(os.environ) == before, "numpy" in sys.modules]))
"""


def test_import_and_dispatch_leave_the_environment_alone():
    argvs = [["analyze", "hall2.cay"], ["count-hall", "--n", "2"], ["analyze", "missing.cay"]]
    proc = _fresh_python("-c", ENVIRON_AFTER, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, True]


def test_input_error_exit_code(files):
    report, code = dispatch(["check-hall", files["bad.rel"]])
    assert code == 2
    assert report["status"] == "error"
    assert report["witnesses"]


def _assert_usage_error(argv, argument):
    message = _assert_refused(argv)
    assert argument in message and len(message) < 200


def test_unknown_command():
    _assert_usage_error(["frobnicate"], "argument command")
    _assert_usage_error(["x" * 5000], "argument command")


def test_missing_required_flag():
    _assert_usage_error(["count-hall"], "--n")
    _assert_usage_error(["count-hall", "--n", "x"], "argument --n")
    _assert_usage_error(["count-hall", "--n", "7" * 5000], "argument --n")
    _assert_usage_error(["count-hall", "--n", "3", "--workers", "1" * 5000], "argument --workers")
    _assert_usage_error(["divide", "s.cay", "t.cay", "--max-generators=y"], "--max-generators")
    _assert_usage_error(["count-hall", "--n", "3", "--bogus"], "--bogus")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["count-hall", "--help"]):
        assert dispatch(argv) == (None, 0)
        assert "usage: hallkit" in capsys.readouterr().out


def test_usage_error_from_the_entry_point():
    proc = _fresh_python("-m", "hallkit.cli", "count-hall", "--n", "x", "--pretty")
    assert proc.returncode == 2 and proc.stderr == ""
    assert proc.stdout == "hallkit: error\n  witness: argument --n: invalid int value: 'x'\n"


def test_reports_are_reproducible(files):
    first, _ = dispatch(["count-hall", "--n", "3", "--no-timing"])
    second, _ = dispatch(["count-hall", "--n", "3", "--no-timing"])
    assert render(first) == render(second)
    a, _ = dispatch(["analyze", files["hall2.cay"]])
    b, _ = dispatch(["analyze", files["hall2.cay"]])
    assert render(a) == render(b)


def test_render_json_sorted(files):
    report, _ = dispatch(["count-hall", "--n", "1", "--no-timing"])
    text = render(report)
    assert json.loads(text)["results"]["total_hall"] == 1
    assert text.endswith("\n")


def test_render_pretty(files):
    report, _ = dispatch(["check-hall", files["ones2.rel"]])
    text = render(report, pretty=True)
    assert "check-hall: pass" in text
    assert "witness" in text


@pytest.mark.usefixtures("main_env")
def test_main_exit_codes(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-hall", "--n", "2", "--no-timing"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["total_hall"] == 7
    with pytest.raises(SystemExit) as exc:
        main(["check-hall", files["zero2.rel"]])
    assert exc.value.code == 1


# the exit-code contract on hostile input: exit 2, a JSON error report, no exception


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


WORDS = st.text(st.characters(exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), max_size=8)
NON_INT = WORDS.filter(_not_an_int)
REFUSED_ORDERS = st.one_of(st.integers(max_value=0), st.integers(min_value=13)).map(str)

GROUP_SPECS = st.one_of(
    st.tuples(st.sampled_from(["cyclic", "symmetric"]), st.one_of(REFUSED_ORDERS, NON_INT))
    .map(":".join),
    st.tuples(WORDS.filter(lambda k: k not in ("cyclic", "symmetric", "file")), WORDS)
    .map(":".join),
    WORDS.filter(lambda spec: ":" not in spec),
)


@st.composite
def bad_relmat(draw):
    """A relmat text with one flaw: its dimension, its row count, a row's length or a character."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.text("01", min_size=n, max_size=n)) for _ in range(n)]
    flaw = draw(st.sampled_from(["dimension", "short", "long", "width", "character"]))
    head = str(n)
    if flaw == "dimension":
        head = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_DIM + 1)).map(str)
                    | NON_INT.filter(lambda w: w.strip()))
    elif flaw == "short":
        rows = rows[: draw(st.integers(0, n - 1))]
    elif flaw == "long":
        rows.append(rows[0])
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        extra = "1" if flaw == "width" else draw(st.sampled_from("2x.-#"))
        rows[i] = rows[i][:j] + extra + rows[i][j + (flaw == "character"):]
    return "\n".join([head] + rows) + "\n"


@st.composite
def bad_cayley(draw):
    """A cayley text with one flaw: a label, the row count, a row's width, an entry, the identity."""
    k = draw(st.integers(1, 5))
    labels = [f"x{i}" for i in range(k)]
    rows = [[str(draw(st.integers(1, k))) for _ in range(k)] for _ in range(k)]
    flaw = draw(st.sampled_from(["label", "short", "long", "width", "entry", "range", "identity"]))
    trailer = []
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if flaw == "label":
        labels[i] = ""
    elif flaw == "short":
        rows = rows[: draw(st.integers(0, k - 1))]
    elif flaw == "long":
        rows.append(rows[0])
    elif flaw == "width":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif flaw == "entry":
        rows[i][j] = draw(NON_INT.filter(lambda w: "," not in w))
    elif flaw == "range":
        rows[i][j] = str(draw(st.one_of(st.integers(max_value=0), st.integers(min_value=k + 1))))
    else:
        trailer = ["identity=nowhere"]
    return "\n".join([",".join(labels)] + [",".join(r) for r in rows] + trailer) + "\n"


def _assert_refused(argv):
    start = time.perf_counter()
    report, code = dispatch(argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert report["status"] == "error" and report["results"] == {} and report["witnesses"]
    assert json.loads(render(report))["schema"] == "hallkit-report v1"
    return report["witnesses"][0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["power-group", "embed"]), GROUP_SPECS)
def test_hostile_group_specs_exit_2(command, spec):
    message = _assert_refused([command, f"--group={spec}"])
    assert repr(spec)[:40] in message and len(message) < 120


HOSTILE_N = {
    "count-hall": MAX_COUNT_DIM,
    "semidirect": MAX_MATERIALIZE_DIM,
    "campaign": MAX_MATERIALIZE_DIM,
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(HOSTILE_N)).flatmap(lambda command: st.tuples(
    st.just(command), st.one_of(st.integers(max_value=0),
                                st.integers(min_value=HOSTILE_N[command] + 1)))))
@example(("count-hall", MAX_COUNT_DIM + 1))
def test_hostile_dimensions_exit_2(case):
    command, n = case
    _assert_refused([command, f"--n={n}"])


@settings(max_examples=50, deadline=None)
@given(st.integers(max_value=0))
def test_hostile_worker_counts_exit_2(workers):
    # counts above 1 are accepted and only echoed, since the count runs in process
    _assert_refused(["count-hall", "--n", "2", f"--workers={workers}"])


INPUT = "<input>"  # stands for the file the text is written to
SOURCE, TARGET = str(GOLDEN / "semilattice.cay"), str(GOLDEN / "hall2.cay")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    bad_relmat().map(lambda t: (["check-hall", INPUT], t)),
    bad_cayley().map(lambda t: (["analyze", INPUT], t)),
    bad_cayley().map(lambda t: (["divide", INPUT, TARGET], t)),
    bad_cayley().map(lambda t: (["divide", SOURCE, INPUT], t)),
    # valid files, but a generator bound below 1
    st.integers(max_value=0).map(lambda g: (["divide", SOURCE, TARGET, f"--max-generators={g}"], "")),
))
def test_malformed_files_exit_2(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        _assert_refused([str(path) if arg == INPUT else arg for arg in argv])
