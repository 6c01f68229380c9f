"""The text stages on one and on two processes, and errors that cross a pipe."""

import json
import os
import pickle
import signal
import time
from importlib.resources import files
from pathlib import Path

import pytest

from lexcite import cli, errors, parallel
from lexcite.cli import DocumentError, main
from lexcite.errors import FormatError, LexciteError, TaggerLengthMismatch
from lexcite.ingest import RawDocument, write_corpus

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("LEXCITE_"):
            monkeypatch.delenv(key)


# ------------------------------------------------------------- pickling

def _error_cases():
    for error_type in vars(errors).values():
        if isinstance(error_type, type) and issubclass(error_type, LexciteError):
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
                                ("a_b", "ConfigError")),
    "one-document-two-files": (tagged(x="#doc=d\n" + GOOD, y="#doc=d\n" + GOOD), "profile",
                               ("d", "ConfigError")),
    "empty-document-in-child": (tagged(a=GOOD, b=".\t.\n\n", c=GOOD), "profile",
                                ("b", "EmptyDocument")),
    # the child fails at index 1 and the parent at index 2: 1 comes first
    "failures-in-both-shares": (tagged(a=GOOD, b=".\t.\n\n", c=None), "profile",
                                ("b", "EmptyDocument")),
    # the child's a_b collides at index 1; both fail to read index 2
    "collision-before-failure": (corpus_with_bad_line(3, "a/b", "a_b", "c"), "tag",
                                 ("a_b", "ConfigError")),
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


@pytest.mark.parametrize("stage", ["tag", "profile"])
@pytest.mark.parametrize("value", ["²", "9" * 5000], ids=["superscript", "5000-digits"])
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


def test_unexpected_child_error_keeps_its_traceback(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0

    def fail():
        raise KeyError("a bug")

    in_child_only(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"(?s)forked worker.*KeyError: 'a bug'"):
        main(["tag", "--out", str(out)])


def test_child_reaped_before_a_failed_stage_returns(tmp_path, monkeypatch):
    """The calling process fails on its first document at once; the child
    writes its files later. main returns only after the child ended, and so
    removes them."""
    out = tmp_path / "out"
    corpus(out, *(f"d{i}" for i in range(6)))
    parent, tag_document = os.getpid(), cli.tag_document

    def slow_child(raw, tagger):
        if os.getpid() == parent:
            raise TaggerLengthMismatch("the first document fails")
        time.sleep(0.1)
        return tag_document(raw, tagger)

    monkeypatch.setattr(cli, "tag_document", slow_child)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert main(["tag", "--out", str(out)]) == 1
    report = json.loads((out / "errors.json").read_text(encoding="utf-8"))
    assert (report["document"], report["error"]) == ("d0", "TaggerLengthMismatch")
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
