"""The map of lexcite.parallel, the stages that map (tag and profile per
document, compare per variable) on one and on two processes, and errors
that cross a pipe."""

import ast
import json
import os
import pickle
import random
import signal
import time
import warnings
from collections import Counter
from importlib.resources import files
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite import cli, errors, ingest, parallel, reports
from lexcite.cli import DocumentError, RunConfig, main
from lexcite.errors import (EmptyDocument, FormatError, GroupEmptyWarning, LexciteError,
                            TaggerLengthMismatch)
from lexcite.ingest import RawDocument, write_corpus
from lexcite.metrics import VARIABLE_COLUMNS
from lexcite.tableio import read_table, write_table

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("LEXCITE_"):
            monkeypatch.delenv(key)


# ------------------------------------------------------------- the map

def loop_until_failure(values) -> tuple[list, str | None]:
    """The values an iterable gives, up to its failure, and that failure."""
    got = []
    try:
        for value in values:
            got.append(value)
    except LexciteError as exc:
        return got, str(exc)
    return got, None


# more than a pipe's buffer (64 KiB on Linux), so that a child sending it waits
LARGE = 1 << 17


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(), max_size=9),
       failing=st.sets(st.integers(min_value=0, max_value=8), max_size=3),
       large=st.booleans())
def test_both_maps_are_the_loop(values, failing, large):
    """For any items and any failing indices, the map gives the values of
    the loop on one CPU and raises its failure, on one CPU and on two, also
    when each value is larger than the pipe's buffer."""
    items = list(enumerate(values))

    def work(item):
        index, value = item
        if index in failing:
            raise FormatError(index, "this item fails")
        return value * 2, bytes(LARGE if large else 0)

    want = loop_until_failure(work(item) for item in items)
    for cpus in (1, 2):
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus):
            assert loop_until_failure(parallel.run_on_two_processes(
                lambda: items, work)) == want


def test_early_stop_starts_no_later_item():
    """A caller that stops at the first value has had work called here once,
    not for the whole of this process's share, and the child, blocked on a
    full pipe, ends and is reaped when the map is closed."""
    worked = []

    def work(item):
        worked.append(item)
        return bytes(LARGE)

    with mock.patch.object(parallel, "usable_cpus", lambda: 2):
        values = parallel.run_on_two_processes(lambda: range(10), work)
        for value in values:
            break
        time.sleep(0.1)  # the child has sent part of item 1's value and waits
        values.close()
    assert (worked, value) == ([0], bytes(LARGE))


def test_the_rule_lives_in_parallel():
    """No lexcite module imports a threading module, and none but parallel
    imports a process module, forks, or asks how many CPUs it may use."""
    threads = {"threading", "_thread"}
    processes = {"multiprocessing", "concurrent", "fork", "forkpty", "usable_cpus"}
    found = []
    for path in sorted(Path(parallel.__file__).parent.glob("*.py")):
        banned = threads if path.name == "parallel.py" else threads | processes
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "",
                         *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name.split(".")[0] in banned]
    assert found == []


# ------------------------------------------------------------- pickling

def _error_cases():
    for error_type in vars(errors).values():
        if isinstance(error_type, type) and issubclass(error_type, (LexciteError, Warning)):
            if error_type is FormatError:
                yield FormatError(3, "x")
            else:
                yield error_type("a message")
    yield DocumentError("d", FormatError(3, "x"))
    yield DocumentError("d", IsADirectoryError(21, "Is a directory", "tagged/d.tsv"))


@pytest.mark.parametrize("error", list(_error_cases()), ids=lambda e: type(e).__name__)
def test_errors_survive_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for attribute in ("line_number", "document"):
        assert getattr(copy, attribute, None) == getattr(error, attribute, None)
    if isinstance(error, DocumentError):
        assert type(copy.cause) is type(error.cause)
        assert str(copy.cause) == str(error.cause)
        assert getattr(copy.cause, "line_number", None) == getattr(error.cause,
                                                                    "line_number", None)


# ---------------------------------------------------- one or two processes

def run_on(monkeypatch, cpus: int, *argv) -> tuple[int, int]:
    """main(argv) as if the process could use `cpus` CPUs: its exit code,
    and how many times it forked."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(True)
        return fork()

    with monkeypatch.context() as patched:
        patched.setattr(parallel, "usable_cpus", lambda: cpus)
        patched.setattr(os, "fork", counted_fork)
        code = main([str(arg) for arg in argv])
    return code, len(forks)


def tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_minicorpus_bytes_equal_on_one_and_two_processes(tmp_path, monkeypatch):
    outputs = {}
    for cpus in (1, 2):
        out, imported = tmp_path / f"out{cpus}", tmp_path / f"imported{cpus}"
        forks = cpus - 1
        assert run_on(monkeypatch, cpus, "ingest", "--input", MINICORPUS,
                      "--out", out) == (0, 0)
        assert run_on(monkeypatch, cpus, "tag", "--out", out) == (0, forks)
        assert run_on(monkeypatch, cpus, "profile", "--out", out) == (0, forks)
        assert run_on(monkeypatch, cpus, "tag", "--out", imported,
                      "--import-tagged", out / "tagged") == (0, forks)
        assert run_on(monkeypatch, cpus, "profile", "--out", imported) == (0, forks)
        outputs[cpus] = (tree(out), tree(imported))
    assert len(outputs[1][0]) == 30 + 3  # corpus.jsonl, rejects.csv, profiles.csv
    assert outputs[1] == outputs[2]


def test_tag_decodes_each_record_once(tmp_path, monkeypatch):
    """On two CPUs, each corpus.jsonl record is decoded once, by the process
    that tags it: the map hands out lines, and the work decodes them."""
    out, log = tmp_path / "out", tmp_path / "decodes.txt"
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0
    decode = ingest.document_from_json

    def logged(line: str) -> RawDocument:
        doc = decode(line)
        with open(log, "a", encoding="utf-8") as fh:  # the child appends its own
            fh.write(f"{os.getpid()} {doc.doc_id}\n")
        return doc

    monkeypatch.setattr(ingest, "document_from_json", logged)
    assert run_on(monkeypatch, 2, "tag", "--out", out) == (0, 1)
    decodes = [line.split(" ") for line in log.read_text(encoding="utf-8").splitlines()]
    assert len(decodes) == 30
    assert len({doc_id for _, doc_id in decodes}) == 30
    assert sorted(Counter(pid for pid, _ in decodes).values()) == [15, 15]


def test_one_document_forks_once(tmp_path, monkeypatch):
    """No count of documents decides the split: one document forks tag and
    profile once each on two CPUs, and gives the bytes of one CPU."""
    outputs = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        corpus(out, "a")
        assert run_on(monkeypatch, cpus, "tag", "--out", out) == (0, cpus - 1)
        assert run_on(monkeypatch, cpus, "profile", "--out", out) == (0, cpus - 1)
        outputs[cpus] = tree(out)
    assert sorted(outputs[1]) == ["corpus.jsonl", "profiles.csv", "tagged/a.tsv"]
    assert outputs[1] == outputs[2]


def corpus(out: Path, *doc_ids: str) -> None:
    out.mkdir()
    write_corpus([RawDocument(doc_id, 2010, "x", [f"The cat {i} sat."])
                  for i, doc_id in enumerate(doc_ids)], out / "corpus.jsonl")


def minicorpus_with_bad_line(line: int):
    def make(out: Path) -> None:
        assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0
        lines = (out / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        lines[line - 1] = b'{"doc_id": "x"}\n'
        (out / "corpus.jsonl").write_bytes(b"".join(lines))
    return make


def corpus_with_bad_line(line: int, *doc_ids: str):
    def make(out: Path) -> None:
        corpus(out, *doc_ids)
        lines = (out / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        lines.insert(line - 1, b'{"doc_id": "x"}\n')
        (out / "corpus.jsonl").write_bytes(b"".join(lines))
    return make


def tagged(**texts: str):
    def make(out: Path) -> None:
        (out / "tagged").mkdir(parents=True)
        for name, text in texts.items():
            if text is None:
                (out / "tagged" / f"{name}.tsv").mkdir()
            else:
                (out / "tagged" / f"{name}.tsv").write_text(text, encoding="utf-8")
    return make


GOOD = "The\tDT\ncats\tNNS\nsleep\tVBP\n.\t.\n\n"

# name: (make the inputs in out, stage, the (document, error) of errors.json)
FAILURES = {
    "bad-record-odd-line": (minicorpus_with_bad_line(5), "tag", ("", "FormatError")),
    "bad-record-even-line": (minicorpus_with_bad_line(4), "tag", ("", "FormatError")),
    "collision-across-shares": (lambda out: corpus(out, "a/b", "a_b", "c"), "tag",
                                ("a_b", "DataError")),
    "one-document-two-files": (tagged(x="#doc=d\n" + GOOD, y="#doc=d\n" + GOOD), "profile",
                               ("d", "DataError")),
    "empty-document-in-child": (tagged(a=GOOD, b=".\t.\n\n", c=GOOD), "profile",
                                ("b", "EmptyDocument")),
    # the child fails at index 1 and the parent at index 2: 1 comes first
    "failures-in-both-shares": (tagged(a=GOOD, b=".\t.\n\n", c=None), "profile",
                                ("b", "EmptyDocument")),
    # the child's a_b collides at index 1; both fail to read index 2
    "collision-before-failure": (corpus_with_bad_line(3, "a/b", "a_b", "c"), "tag",
                                 ("a_b", "DataError")),
    # the child fails at index 1; the parent's index 2 repeats index 0's document
    "failure-before-collision": (tagged(a="#doc=d\n" + GOOD, b=".\t.\n\n",
                                        c="#doc=d\n" + GOOD), "profile",
                                 ("b", "EmptyDocument")),
}


@pytest.mark.parametrize("name", FAILURES)
def test_failure_same_on_one_and_two_processes(tmp_path, monkeypatch, name):
    make, stage, (document, error) = FAILURES[name]
    reports = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        make(out)
        assert run_on(monkeypatch, cpus, stage, "--out", out) == (1, cpus - 1)
        reports[cpus] = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        if stage == "tag":
            assert not list(out.glob("tagged/*.tsv"))
        assert not (out / "profiles.csv").exists()
    assert reports[1] == reports[2]
    assert (reports[1]["stage"], reports[1]["document"], reports[1]["error"]) == (
        stage, document, error)


# the stage of run that fails, the document that fails it (index 3, then
# 11: both of the child's share), the function it fails in, and the error
RUN_FAILURES = {
    "tag": ("ECO.2010.0002", "tag_document", TaggerLengthMismatch),
    "profile": ("GEN.2009.0002", "complexity_profile", EmptyDocument),
}


@pytest.mark.parametrize("stage", RUN_FAILURES)
def test_run_failure_same_on_one_and_two_processes(tmp_path, monkeypatch, stage):
    """A failure in tag or in profile ends run with the same errors.json,
    and leaves the same files, on one process and on two."""
    document, function, error = RUN_FAILURES[stage]
    original = getattr(cli, function)

    def failing(doc, *args):
        if doc.doc_id == document:
            raise error(f"{document} fails")
        return original(doc, *args)

    monkeypatch.setattr(cli, function, failing)
    outputs = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        forks = (cpus - 1) * (1 if stage == "tag" else 2)
        assert run_on(monkeypatch, cpus, "run", "--input", MINICORPUS, "--citations",
                      MINICORPUS / "citations.csv", "--out", out) == (1, forks)
        outputs[cpus] = tree(out)
    assert outputs[1] == outputs[2]
    report = json.loads(outputs[1]["errors.json"])
    assert (report["stage"], report["document"], report["error"]) == (
        stage, document, error.__name__)
    assert sorted(name for name in outputs[1] if not name.startswith("tagged/")) == [
        "corpus.jsonl", "errors.json", "rejects.csv"]
    assert len([name for name in outputs[1] if name.startswith("tagged/")]) == (
        0 if stage == "tag" else 30)


@pytest.mark.parametrize("stage", ["tag", "profile"])
@pytest.mark.parametrize("value", ["²", "9" * 5000, "𝟑"],
                         ids=["superscript", "5000-digits", "mathematical-digit"])
def test_clause_value_int_refuses_fails_the_stage(tmp_path, monkeypatch, capsys, stage,
                                                  value):
    """A "#clauses=" value that int() would refuse is a FormatError naming
    its line, in the child's share (b) as in the calling process's."""
    reports = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        tsv_dir = out / "tagged" if stage == "profile" else tmp_path / f"ext{cpus}"
        tsv_dir.mkdir(parents=True)
        for name, text in dict(a=GOOD, b=f"{GOOD}#clauses={value}\n{GOOD}", c=GOOD).items():
            (tsv_dir / f"{name}.tsv").write_text(text, encoding="utf-8")
        argv = ("--import-tagged", tsv_dir) if stage == "tag" else ()
        assert run_on(monkeypatch, cpus, stage, "--out", out, *argv) == (1, cpus - 1)
        reports[cpus] = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        if stage == "tag":
            assert not list(out.glob("tagged/*.tsv"))
        assert not (out / "profiles.csv").exists()
    assert reports[1] == reports[2]
    assert (reports[1]["stage"], reports[1]["document"], reports[1]["error"]) == (
        stage, "b.tsv", "FormatError")
    assert reports[1]["message"].startswith("line 6: ")
    assert "Traceback" not in capsys.readouterr().err


def test_memory_error_crosses_the_pipe(tmp_path, monkeypatch, capsys):
    """A MemoryError in the child's share (b) fails the stage as it does on
    one process, not as an error of the forked worker."""
    tag_document = cli.tag_document

    def short_of_memory(raw, tagger):
        if raw.doc_id == "b":
            raise MemoryError("no room for b")
        return tag_document(raw, tagger)

    monkeypatch.setattr(cli, "tag_document", short_of_memory)
    reports = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        corpus(out, "a", "b", "c")
        assert run_on(monkeypatch, cpus, "tag", "--out", out) == (1, cpus - 1)
        reports[cpus] = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        assert not list(out.glob("tagged/*.tsv"))
    assert reports[1] == reports[2] == {"stage": "tag", "document": "",
                                        "error": "MemoryError", "message": "no room for b"}
    assert "Traceback" not in capsys.readouterr().err


def in_child_only(monkeypatch, act):
    """Make cli.tag_document call act() first when it runs in a forked child."""
    parent, tag_document = os.getpid(), cli.tag_document

    def tag_or_act(raw, tagger):
        if os.getpid() != parent:
            act()
        return tag_document(raw, tagger)

    monkeypatch.setattr(cli, "tag_document", tag_or_act)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


def test_killed_child_fails_the_stage(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0
    in_child_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert main(["tag", "--out", str(out)]) == 1
    report = json.loads((out / "errors.json").read_text(encoding="utf-8"))
    assert (report["stage"], report["document"], report["error"]) == (
        "tag", "", "ChildProcessError")
    assert "SIGKILL" in report["message"]
    assert not list((out / "tagged").glob("*.tsv"))
    assert "Traceback" not in capsys.readouterr().err


def test_warning_raised_in_the_child_crosses_the_pipe(tmp_path, monkeypatch, capsys):
    """A warning that the filter raises in the child's share fails the stage
    as itself, as it would in the calling process."""
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0
    in_child_only(monkeypatch, lambda: warnings.warn("the child warns", RuntimeWarning))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tag", "--out", str(out)]) == 1
    assert json.loads((out / "errors.json").read_text(encoding="utf-8")) == {
        "stage": "tag", "document": "", "error": "RuntimeWarning",
        "message": "the child warns"}
    assert not list((out / "tagged").glob("*.tsv"))
    assert "Traceback" not in capsys.readouterr().err


def test_unexpected_child_error_keeps_its_traceback(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0

    def fail():
        raise KeyError("a bug")

    in_child_only(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"(?s)forked worker.*KeyError: 'a bug'"):
        main(["tag", "--out", str(out)])


def test_child_reaped_before_a_failed_stage_returns(tmp_path, monkeypatch):
    """The stage fails in the calling process while the child still writes
    its files, more slowly: in the map, at the first document, or in tag's
    own loop, at index 2, whose file name index 0 has taken. main returns
    only after the child ended, and so removes them."""
    parent, tag_document = os.getpid(), cli.tag_document

    def slow_child(raw, tagger):
        if os.getpid() != parent:
            time.sleep(0.1)
        elif raw.doc_id == "d0":
            raise TaggerLengthMismatch("the first document fails")
        return tag_document(raw, tagger)

    monkeypatch.setattr(cli, "tag_document", slow_child)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    for case, (first, third, failure) in enumerate([
            ("d0", "d2", ("d0", "TaggerLengthMismatch")),
            ("a/b", "a_b", ("a_b", "DataError"))]):
        out = tmp_path / f"out{case}"
        corpus(out, first, "d1", third, "d3", "d4", "d5")
        assert main(["tag", "--out", str(out)]) == 1
        report = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        assert (report["document"], report["error"]) == failure
        time.sleep(0.3)  # a child still running would write its files now
        assert not list((out / "tagged").glob("*.tsv"))


def test_interrupt_stays_an_interrupt(tmp_path, monkeypatch):
    """Ctrl-C reaches both processes. The child ends without a share, and
    the calling process still ends in the KeyboardInterrupt, not in a
    ChildProcessError, once it has reaped the child."""
    out = tmp_path / "out"
    corpus(out, "a", "b", "c")

    def interrupted(raw, tagger):
        raise KeyboardInterrupt

    children, fork = [], os.fork

    def recorded_fork():
        children.append(fork())
        return children[-1]

    monkeypatch.setattr(cli, "tag_document", interrupted)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", recorded_fork)
    with pytest.raises(KeyboardInterrupt):
        main(["tag", "--out", str(out)])
    (child,) = children
    with pytest.raises(ChildProcessError):
        os.waitpid(child, os.WNOHANG)  # already reaped


# ---------------------------------------------------- compare, per variable

COMPARE_FILES = ("comparison.csv", "cdf.csv", "estimates.csv")


def compare_inputs(out: Path, sizes=(3, 40, 500), present=VARIABLE_COLUMNS) -> None:
    """profiles.csv and scores.csv of generated documents, sizes = (High,
    Medium, Low) counts. The variables not in present are Absent, and every
    present value has two decimals, so that some repeat."""
    rng = random.Random(13)
    out.mkdir()
    profiles, scores = [], []
    for group, size in zip(("High", "Medium", "Low"), sizes):
        for _ in range(size):
            doc_id = f"d{len(profiles):04d}"
            profiles.append([doc_id, *(round(rng.uniform(1, 9), 2) if column in present
                                       else None for column in VARIABLE_COLUMNS)])
            scores.append([doc_id, rng.expovariate(1.0), group])
    write_table(out / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS], profiles)
    write_table(out / "scores.csv", ["doc_id", "nc", "group"], scores)


def compare_on(monkeypatch, cpus: int, out: Path) -> dict[str, bytes]:
    """The files compare writes in out as if the process could use `cpus`
    CPUs, after checking that it forked once on two CPUs and never on one."""
    assert run_on(monkeypatch, cpus, "compare", "--out", out, "--iterations", 300) == (
        0, cpus - 1)
    return {name: (out / name).read_bytes() for name in COMPARE_FILES}


@pytest.mark.parametrize("inputs", ["bundled-corpus", "generated"])
def test_compare_bytes_equal_on_one_and_two_processes(tmp_path, monkeypatch, inputs):
    out = tmp_path / "out"
    if inputs == "generated":
        compare_inputs(out)
    else:
        with pytest.warns(GroupEmptyWarning):
            assert run_on(monkeypatch, 1, "run", "--input", MINICORPUS, "--citations",
                          MINICORPUS / "citations.csv", "--out", out) == (0, 0)
    one, two = (compare_on(monkeypatch, cpus, out) for cpus in (1, 2))
    assert len(list(read_table(out / "estimates.csv").rows)) == 36
    assert two == one


def test_compare_one_variable_forks_once(tmp_path, monkeypatch):
    """No count of variables or cells decides the split: with only x1
    present, and only in the Low group, one non-empty cell gives the same
    bytes on one CPU and on two, where compare forks once."""
    out = tmp_path / "out"
    compare_inputs(out, sizes=(0, 0, 5), present=("x1",))
    one, two = (compare_on(monkeypatch, cpus, out) for cpus in (1, 2))
    statuses = [row[-1] for _, row in read_table(out / "estimates.csv").rows]
    assert statuses.count("Ok") == 1 and len(statuses) == 36
    assert two == one


@pytest.mark.parametrize("failing", ["all", "odd"])
def test_compare_raises_the_lowest_variables_failure(tmp_path, monkeypatch, failing):
    """With every variable failing, and the child failing first, compare
    raises the failure of x1's first group, which the loop on one CPU
    raises. With only the child's variables (x2, x4, ...) failing, x2's
    first group's failure crosses the pipe as itself. Either way the
    calling process starts no variable after the failure."""
    out = tmp_path / "out"
    compare_inputs(out)
    cell_of = {reports.subseed(0, var, group): 3 * (var - 1) + group
               for var in range(1, 13) for group in range(3)}
    caller, child_failed = os.getpid(), tmp_path / "child-failed"
    started = []

    def failing_cell(sample, iterations, level, seed):
        cell = cell_of[seed]
        if os.getpid() == caller:
            started.append(cell)
        if failing == "odd" and cell // 3 % 2 == 0:
            return original(sample, iterations=iterations, level=level, seed=seed)
        if os.getpid() == caller:
            deadline = time.monotonic() + 30
            while not child_failed.exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
        else:
            child_failed.touch()
        raise FormatError(cell, "this cell fails")

    original = reports.bootstrap_mean_ci
    monkeypatch.setattr(reports, "bootstrap_mean_ci", failing_cell)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(FormatError) as raised:
        cli.stage_compare(RunConfig(out=out, iterations=100))
    want = 0 if failing == "all" else 3
    assert type(raised.value) is FormatError
    assert str(raised.value) == f"line {want}: this cell fails"
    assert started == ([0] if failing == "all" else [0, 1, 2])
    assert not any((out / name).exists() for name in COMPARE_FILES)


def test_compare_splits_each_variable_once(tmp_path, monkeypatch):
    """One pass over the variables: compare groups each variable's values
    once, for its rows of all three tables, so on one CPU it calls
    group_samples 12 times, in variable order."""
    out = tmp_path / "out"
    compare_inputs(out)
    columns, original = [], reports.group_samples

    def counted(values, codes, column):
        columns.append(column)
        return original(values, codes, column)

    monkeypatch.setattr(cli, "group_samples", counted)
    monkeypatch.setattr(reports, "group_samples", counted)
    compare_on(monkeypatch, 1, out)
    assert columns == list(VARIABLE_COLUMNS)


def test_compare_failure_follows_variable_order_across_tables(tmp_path, monkeypatch):
    """A variable makes its KS rows and then its bootstrap rows, so a
    bootstrap failure of x2 (the child's share) comes before a KS failure
    of x3 (the calling process's), on one CPU and on two."""
    out = tmp_path / "out"
    compare_inputs(out)
    comparison_rows, estimate_rows = cli.build_comparison_rows, cli.build_estimate_rows

    def ks_fails_at_x3(column, samples):
        if column == "x3":
            raise FormatError(3, "x3's KS fails")
        return comparison_rows(column, samples)

    def bootstrap_fails_at_x2(column, samples, *args):
        if column == "x2":
            raise FormatError(2, "x2's bootstrap fails")
        return estimate_rows(column, samples, *args)

    monkeypatch.setattr(cli, "build_comparison_rows", ks_fails_at_x3)
    monkeypatch.setattr(cli, "build_estimate_rows", bootstrap_fails_at_x2)
    for cpus in (1, 2):
        assert run_on(monkeypatch, cpus, "compare", "--out", out, "--iterations", 50) == (
            1, cpus - 1)
        assert json.loads((out / "errors.json").read_text(encoding="utf-8")) == {
            "stage": "compare", "document": "", "error": "FormatError",
            "message": "line 2: x2's bootstrap fails"}
        assert not any((out / name).exists() for name in COMPARE_FILES)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_compare_forks_with_one_thread_after_blas(tmp_path, monkeypatch):
    """BLAS has started its threads, yet the process that forks for
    compare has one thread just after the fork: OpenBLAS joins its pool
    before a fork."""
    import numpy as np

    np.linalg.lstsq(np.eye(40), np.ones(40), rcond=None)
    readings, listening = [], [True]

    def threads_now():
        if listening:
            with open("/proc/self/status", encoding="ascii") as status:
                readings.extend(int(line.split()[1]) for line in status
                                if line.startswith("Threads:"))

    os.register_at_fork(after_in_parent=threads_now)  # cannot be removed
    out = tmp_path / "out"
    compare_inputs(out)
    try:
        compare_on(monkeypatch, 2, out)
    finally:
        listening.clear()
    assert readings == [1]
