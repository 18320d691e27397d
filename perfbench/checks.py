"""Correctness checks and digests of the files one operation wrote.

Each check returns a list of problems; an empty list means the output
passed.  A run counts an operation as failed when it raised or when any
check found a problem.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from screenfit.pipeline import ARTIFACT_NAMES

N_DECILES = 10
TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the manifest, which holds timings."""
    return {
        name: sha256(out_dir / name)
        for name in ARTIFACT_NAMES
        if name != "manifest.json" and (out_dir / name).is_file()
    }


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("no data rows")
    header = rows[0]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    return [dict(zip(header, r)) for r in rows[1:]]


def check_deciles(rows: list[dict], n_expected: int, label: str) -> list[str]:
    """Deciles 1..10 in order, sizes summing to n, cumulative capture ending at 1."""
    problems = []
    if [int(r["decile"]) for r in rows] != list(range(1, N_DECILES + 1)):
        problems.append(f"{label}: deciles are not 1..{N_DECILES}")
    total = sum(int(r["n"]) for r in rows)
    if total != n_expected:
        problems.append(f"{label}: decile sizes sum to {total}, expected {n_expected}")
    if rows and abs(float(rows[-1]["cum_captured"]) - 1.0) > TOLERANCE:
        problems.append(f"{label}: cum_captured ends at {rows[-1]['cum_captured']}, not 1")
    return problems


def check_pipeline_dir(out_dir: Path) -> tuple[list[str], dict]:
    """Check the artifacts of one run_pipeline call on a synthetic config.

    Returns the problems found and what the metrics need from the files:
    the out-of-sample first-decile lift and the model's source variables.
    """
    problems: list[str] = []
    docs: dict[str, object] = {}
    for name in ARTIFACT_NAMES:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    docs[name] = json.load(fh)
            else:
                docs[name] = _read_csv(path)
        except (ValueError, KeyError, csv.Error) as exc:
            problems.append(f"{name}: does not parse: {exc}")
    if problems:
        return problems, {}

    manifest = docs["manifest.json"]
    try:
        synthetic = manifest["config"]["synthetic"]
        sizes = {
            "train": manifest["split"]["train_rows"],
            "validation": manifest["split"]["validation_rows"],
            "out_of_sample": synthetic["n_signal"] + synthetic["n_background"],
        }
        by_dataset: dict[str, list[dict]] = {}
        for row in docs["charts.csv"]:
            by_dataset.setdefault(row["dataset"], []).append(row)
        if sorted(by_dataset) != sorted(sizes):
            problems.append(f"charts.csv: datasets {sorted(by_dataset)}, expected {sorted(sizes)}")
        for dataset, rows in sorted(by_dataset.items()):
            problems += check_deciles(rows, sizes.get(dataset, -1), f"charts.csv {dataset}")
        problems += check_deciles(
            docs["decile_table.csv"], sizes["validation"], "decile_table.csv"
        )

        model = docs["model.json"]
        final = docs["screening_report.json"]["stages"][-1]["retained"]
        if model["variables"] != final:
            problems.append("model.json: variables differ from the final screening stage")
        sources = [row["term"]["source"] for row in model["model"]["rows"][1:]]
        stray = sorted(set(sources) - set(final))
        if stray:
            problems.append(f"model.json: terms from outside final_variables: {stray}")
        lift = float(by_dataset["out_of_sample"][0]["lift"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"artifacts lack an expected field: {exc!r}")
        return problems, {}
    return problems, {"oos_lift_d1": lift, "sources": sorted(set(sources))}


def planted_recall(sources: list[str], planted: set[str]) -> float:
    """Share of the model's source variables that the generator planted."""
    return sum(s in planted for s in sources) / len(sources) if sources else 0.0


def check_scores(path: Path, target: str) -> tuple[list[str], dict]:
    """Check a score_table_file output against the scored records' outcomes.

    target holds one '0'/'1' per input record, in record order.  Returns
    the problems found and the first-decile lift of the scores.
    """
    try:
        rows = _read_csv(path)
    except (OSError, ValueError, csv.Error) as exc:
        return [f"{path.name}: does not parse: {exc}"], {}
    problems = []
    if list(rows[0]) != ["id", "probability", "decile"]:
        return [f"{path.name}: unexpected header {list(rows[0])}"], {}
    if len(rows) != len(target):
        problems.append(f"{path.name}: {len(rows)} rows for {len(target)} records")
    try:
        ids = [int(r["id"]) for r in rows]
        probs = [float(r["probability"]) for r in rows]
        deciles = [int(r["decile"]) for r in rows]
    except ValueError as exc:
        return problems + [f"{path.name}: bad cell: {exc}"], {}
    if ids != list(range(len(rows))):
        problems.append(f"{path.name}: ids are not one per record in order")
    if not all(0.0 <= p <= 1.0 for p in probs):
        problems.append(f"{path.name}: probability outside [0, 1]")
    if not all(1 <= d <= N_DECILES for d in deciles):
        problems.append(f"{path.name}: decile outside 1..{N_DECILES}")
    if problems:
        return problems, {}
    y = [c == "1" for c in target]
    top = [hit for hit, d in zip(y, deciles) if d == 1]
    lift = (sum(top) / len(top)) / (sum(y) / len(y))
    return problems, {"oos_lift_d1": lift}
