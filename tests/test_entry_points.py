"""Each entry point in a fresh interpreter: what it imports, and that every
subcommand runs through ``python -m blockseq``.

In-process tests share one interpreter, which by then has imported every
module, so they cannot see a back end that a command forgot to import.
These tests start a new interpreter for every check.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import blockseq
from blockseq import jsonio
from blockseq.cli import run

SRC = str(Path(blockseq.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

# Runs ``python -m blockseq <argv>`` in this interpreter, then prints the exit
# code and the loaded module names as one JSON line.
PROBE = """
import json, runpy, sys
sys.argv = ["blockseq", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("blockseq", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""

BACK_ENDS = ("extract", "partition", "biarc", "avoid", "ramsey", "rangecount", "oracle", "svg")


def python(*args):
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120
    )


def loaded(argv):
    """(exit code, module names) of ``python -m blockseq argv`` run afresh."""
    proc = python("-c", PROBE, *argv)
    assert "Traceback" not in proc.stderr, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["exit"], set(probe["modules"])


def blockseq_cli(*argv):
    """Exit code of ``python -m blockseq argv``; a traceback fails the test."""
    proc = python("-m", "blockseq", *argv)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode


# -- what each entry point imports ---------------------------------------------

def test_import_blockseq_loads_no_submodule_and_no_numpy():
    proc = python("-c", "import json, sys, blockseq; print(json.dumps(sorted(sys.modules)))")
    modules = set(json.loads(proc.stdout))
    assert "numpy" not in modules
    assert sorted(m for m in modules if m.startswith("blockseq")) == ["blockseq"]


def test_verify_of_a_sequence_witness_pair_loads_no_numpy(tmp_path):
    seq, wit = str(tmp_path / "seq.json"), str(tmp_path / "wit.json")
    assert run(["gen", "--kind", "sequence", "--n", "60", "--seed", "1", "--out", seq]).exit_code == 0
    assert run(["extract", "--k", "2", "--in", seq, "--out", wit]).exit_code == 0
    for argv in (["verify", "--witness", wit, "--in", seq], ["verify", "--in", seq],
                 ["verify", "--in", wit]):
        code, modules = loaded(argv)
        assert code == 0
        assert "numpy" not in modules, argv


def test_gen_sequence_loads_no_algorithm_module(tmp_path):
    code, modules = loaded(
        ["gen", "--kind", "sequence", "--n", "30", "--out", str(tmp_path / "s.json")]
    )
    assert code == 0
    assert not {f"blockseq.{name}" for name in BACK_ENDS} & modules


def test_lazy_exports_cover_all():
    proc = python(
        "-c",
        "import json, blockseq\n"
        "names = {}\n"
        "exec('from blockseq import *', names)\n"
        "print(json.dumps([blockseq.__all__, dir(blockseq), sorted(names)]))",
    )
    assert proc.returncode == 0, proc.stderr
    public, listed, bound = json.loads(proc.stdout)
    assert set(public) <= set(listed)
    assert set(public) <= set(bound)
    with pytest.raises(AttributeError):
        blockseq.no_such_name


# -- every subcommand, once, in a fresh interpreter ------------------------------

GEN_FLAGS = {
    "sequence": ["--n", "60", "--seed", "1"],
    "clustered": ["--k", "2", "--s", "3", "--inner", "seeded-random"],
    "es-extremal": ["--k", "3"],
    "coloring": ["--n", "12", "--q", "2", "--seed", "1"],
    "coloring-recursive": ["--k", "2", "--q", "3"],
    "points": ["--n", "120", "--seed", "2"],
    "points-grid": ["--k", "2", "--per-cluster", "5", "--seed", "1"],
    "graph": ["--n", "14", "--m", "30", "--seed", "2"],
}


@pytest.mark.parametrize("kind", sorted(GEN_FLAGS))
def test_gen_runs_fresh(tmp_path, kind):
    out = str(tmp_path / "out.json")
    assert blockseq_cli("gen", "--kind", kind, *GEN_FLAGS[kind], "--out", out) == 0
    assert run(["verify", "--in", out]).exit_code == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input artifacts made in-process; the commands under test run afresh."""
    d = tmp_path_factory.mktemp("inputs")
    made = {kind: str(d / f"{kind}.json") for kind in ("sequence", "coloring", "points", "graph")}
    for kind, out in made.items():
        assert run(["gen", "--kind", kind, *GEN_FLAGS[kind], "--out", out]).exit_code == 0
    made["witness"] = str(d / "witness.json")
    assert run(["extract", "--k", "2", "--in", made["sequence"], "--out", made["witness"]]).exit_code == 0
    made["pages"] = str(d / "pages.json")
    assert run(["paginate", "--epsilon", "0.5", "--in", made["graph"], "--out", made["pages"]]).exit_code == 0
    made["avoid"] = str(d / "avoid.json")
    assert run(["avoid", "--k", "2", "--in", made["points"], "--out", made["avoid"]]).exit_code == 0
    return made


PRODUCERS = {
    "extract": ["extract", "--k", "2", "--in", "{sequence}"],
    "partition-full": ["partition", "--k", "2", "--in", "{sequence}"],
    "partition-greedy": ["partition", "--k", "2", "--mode", "greedy", "--in", "{sequence}"],
    "ramsey-search": ["ramsey", "--mode", "search", "--in", "{coloring}"],
    "ramsey-block-path": ["ramsey", "--mode", "block-path", "--in", "{coloring}"],
    "avoid": ["avoid", "--k", "2", "--in", "{points}"],
    "paginate-svg": ["paginate", "--epsilon", "0.5", "--in", "{graph}", "--svg", "{out}.svg"],
    "render": ["render", "--in", "{witness}", "--data", "{sequence}"],
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_producing_command_runs_fresh(tmp_path, inputs, name):
    out = str(tmp_path / "out")
    argv = [a.format(out=out, **inputs) for a in PRODUCERS[name]]
    assert blockseq_cli(*argv, "--out", out) == 0
    assert Path(out).is_file()
    if name == "paginate-svg":
        assert Path(out + ".svg").is_file()


VERIFIERS = {
    "in": (["--in", "{sequence}"], 0),
    "witness": (["--witness", "{witness}", "--in", "{sequence}"], 0),
    "all": (["--all", "{dir}"], 0),
    "oracle-pages": (["--witness", "{pages}", "--in", "{graph}", "--oracle"], 0),
    "oracle-avoid": (["--in", "{avoid}", "--oracle"], 0),
    "mismatch": (["--witness", "{witness}", "--in", "{graph}"], 4),
    "usage": ([], 4),
}


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verify_runs_fresh(inputs, name):
    flags, code = VERIFIERS[name]
    argv = [a.format(dir=Path(inputs["sequence"]).parent, **inputs) for a in flags]
    assert blockseq_cli("verify", *argv) == code


def test_corrupt_witness_fails_fresh_with_exit_3(tmp_path, inputs):
    doc = jsonio.read_artifact(inputs["witness"])
    doc["blocks"] = list(reversed(doc["blocks"]))
    bad = str(tmp_path / "bad.json")
    jsonio.write_artifact(doc, bad)
    assert blockseq_cli("verify", "--witness", bad, "--in", inputs["sequence"]) == 3
    assert blockseq_cli("render", "--in", bad, "--data", inputs["sequence"],
                        "--out", str(tmp_path / "bad.svg")) == 3
