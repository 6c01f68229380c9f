"""Output checks and digests for one pass of a workload.

The checks read the output files with the standard csv module, not with
lexcite's own reader, and compare them with what the generator planted.
Each failure names the stage whose output is wrong, so that it can be
charged to the invocation that ran that stage.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import defaultdict
from pathlib import Path

from generate import Planted

STAGE_FILES = {
    "ingest": ("corpus.jsonl", "rejects.csv"),
    "tag": ("tagged",),
    "profile": ("profiles.csv",),
    "normalize": ("baselines.csv", "scores.csv"),
    "group": ("scores.csv",),
    "compare": ("comparison.csv", "cdf.csv", "estimates.csv"),
    "regress": ("regression.csv",),
}

N_VARIABLES = 12
N_GROUP_PAIRS = 3
N_GROUPS = 3
N_MODELS = 6
N_COHORTS = 4


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a lexcite table, skipping #key=value lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    rows = [row for row in csv.reader(io.StringIO("\n".join(body))) if row]
    return rows[0], rows[1:]


def _check_stage(stage: str, out: Path, planted: Planted) -> list[str]:
    problems = [f"missing {name}" for name in STAGE_FILES[stage]
                if not (out / name).exists()]
    if problems:
        return problems
    if stage == "ingest":
        _, rejects = read_rows(out / "rejects.csv")
        got = sorted(row[0] for row in rejects)
        want = sorted(f"{doc_id}.xml" for doc_id in planted.rejects)
        if got != want:
            problems.append(f"rejects {got} != planted {want}")
        with open(out / "corpus.jsonl", encoding="utf-8") as fh:
            n_corpus = sum(1 for line in fh if line.strip())
        if n_corpus != planted.profiles:
            problems.append(f"corpus.jsonl has {n_corpus} documents, want {planted.profiles}")
    elif stage == "tag":
        n_tagged = len(list((out / "tagged").glob("*.tsv")))
        if n_tagged != planted.profiles:
            problems.append(f"tagged/ has {n_tagged} files, want {planted.profiles}")
    elif stage == "profile":
        _, rows = read_rows(out / "profiles.csv")
        if len(rows) != planted.profiles:
            problems.append(f"profiles.csv has {len(rows)} rows, want "
                            f"{planted.documents} - {len(planted.rejects)} rejects")
    elif stage == "normalize":
        _, rows = read_rows(out / "scores.csv")
        if len(rows) != planted.documents:
            problems.append(f"scores.csv has {len(rows)} rows, want {planted.documents}")
        cells: dict[tuple[int, str], list[float]] = defaultdict(list)
        for row in rows:
            cells[planted.cells[row[0]]].append(float(row[1]))
        for cell, values in sorted(cells.items()):
            mean = sum(values) / len(values)
            if abs(mean - 1.0) > 1e-9:
                problems.append(f"cell {cell} has mean nc {mean!r}, want 1")
    elif stage == "group":
        _, rows = read_rows(out / "scores.csv")
        n = len(rows)
        sizes = {"High": 0, "Medium": 0, "Low": 0}
        for row in rows:
            sizes[row[2]] = sizes.get(row[2], 0) + 1
        want = {"High": n // 100, "Medium": n // 10 - n // 100,
                "Low": n - n // 10}
        if sizes != want:
            problems.append(f"group sizes {sizes} != {want}")
    elif stage == "compare":
        _, comparison = read_rows(out / "comparison.csv")
        if len(comparison) != N_VARIABLES * N_GROUP_PAIRS:
            problems.append(f"comparison.csv has {len(comparison)} rows")
        header, estimates = read_rows(out / "estimates.csv")
        if len(estimates) != N_VARIABLES * N_GROUPS:
            problems.append(f"estimates.csv has {len(estimates)} rows")
        col = {name: header.index(name) for name in ("point", "ci_low", "ci_high", "status")}
        for row in estimates:
            if row[col["status"]] != "Ok":
                continue
            low, point, high = (float(row[col[k]]) for k in ("ci_low", "point", "ci_high"))
            if not low <= point <= high:
                problems.append(f"estimate {row[:2]}: not ci_low <= point <= ci_high")
        _, cdf = read_rows(out / "cdf.csv")
        if not cdf:
            problems.append("cdf.csv has no rows")
    elif stage == "regress":
        _, rows = read_rows(out / "regression.csv")
        if len(rows) != N_MODELS * N_COHORTS:
            problems.append(f"regression.csv has {len(rows)} rows")
        for row in rows:
            if row[2] != "-" and not 0.0 <= float(row[2]) <= 1.0:
                problems.append(f"regression {row[:2]}: r_squared {row[2]} outside [0, 1]")
    return problems


def check_outputs(stages: list[str], out: Path, planted: Planted) -> dict[str, list[str]]:
    """Problems per stage; an empty dict means every check passed."""
    found = {}
    if (out / "errors.json").exists():
        found["errors.json"] = [(out / "errors.json").read_text(encoding="utf-8")]
    for stage in stages:
        problems = _check_stage(stage, out, planted)
        if problems:
            found[stage] = problems
    return found


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out: Path) -> dict[str, str]:
    """sha256 per output file; the tagged/*.tsv files share one digest over
    their sorted (name, sha256) pairs."""
    result = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    tagged = out / "tagged"
    if tagged.is_dir():
        listing = "".join(f"{p.name}\t{_sha256(p)}\n" for p in sorted(tagged.iterdir()))
        result["tagged/"] = hashlib.sha256(listing.encode("utf-8")).hexdigest()
    return result
