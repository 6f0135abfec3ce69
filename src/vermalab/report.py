"""Machine-readable verification reports and golden-file comparison.

Reports are deterministic: keys sorted, UTF-8, newline terminated, and no
wall-clock data inside the payload (timings go to stderr), so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .field import VermalabError

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
FINDING = "finding"


WITNESS_LIMIT = 600


@dataclass
class ReportItem:
    label: str
    anchor: str
    status: str
    witness: str | None = None

    def __post_init__(self):
        if self.status in (FAIL, FINDING) and not self.witness:
            raise VermalabError(f"item {self.label}: status {self.status} needs a witness")
        if self.witness is not None and len(self.witness) > WITNESS_LIMIT:
            self.witness = self.witness[:WITNESS_LIMIT] + " ...(truncated)"

    def to_json_dict(self) -> dict:
        out = {"anchor": self.anchor, "label": self.label, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    suite: str
    config: dict
    items: list[ReportItem] = field(default_factory=list)

    def add(self, label: str, anchor: str, status: str, witness: str | None = None):
        self.items.append(ReportItem(label, anchor, status, witness))

    def add_check(self, label: str, anchor: str, witness: str | None):
        """A check: it holds, and passes, exactly when there is no witness."""
        self.items.append(ReportItem(label, anchor, PASS if witness is None else FAIL, witness))

    def add_probe(self, label: str, anchor: str, witness: str | None):
        """A formula-level probe: a finding when there is a witness, else a pass."""
        self.add(label, anchor, PASS if witness is None else FINDING, witness)

    def ok(self) -> bool:
        return all(item.status != FAIL for item in self.items)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, VACUOUS: 0, FINDING: 0}
        for item in self.items:
            out[item.status] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "config": {k: self.config[k] for k in sorted(self.config)},
            "counts": self.counts(),
            "items": [item.to_json_dict() for item in self.items],
            "suite": self.suite,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["label,status,anchor,witness"]
        for item in self.items:
            witness = (item.witness or "").replace('"', "'")
            lines.append(f'"{item.label}",{item.status},"{item.anchor}","{witness}"')
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for item in self.items:
            mark = {"pass": "ok", "fail": "FAIL", "vacuous": "vacuous", "finding": "FINDING"}[item.status]
            lines.append(f"  [{mark:8s}] {item.label}")
            if item.witness:
                lines.append(f"             witness: {item.witness}")
        c = self.counts()
        lines.append(
            f"  {c[PASS]} pass, {c[FAIL]} fail, {c[FINDING]} finding, {c[VACUOUS]} vacuous"
        )
        return "\n".join(lines)


def write_text(path: str, text: str):
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as err:
        raise VermalabError(f"cannot write {path}: {err}") from None


def report_text(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return report.to_csv()
    raise VermalabError(f"unknown format {fmt}")


class GoldenMismatch(VermalabError):
    pass


def golden_diff(produced: str, golden_dir: str, name: str, bless: bool = False) -> dict:
    """Byte-level comparison against golden_dir/name; --bless rewrites.

    Returns {"status": "match"|"blessed"|"mismatch", "mismatches": [...]}.
    """
    path = os.path.join(golden_dir, name)
    if bless:
        write_text(path, produced)
        return {"status": "blessed", "mismatches": []}
    if not os.path.exists(path):
        raise GoldenMismatch(f"golden file missing: {path} (run with --bless to create)")
    with open(path, encoding="utf-8") as fh:
        want = fh.read()
    if want == produced:
        return {"status": "match", "mismatches": []}
    mismatches = []
    for lineno, (a, b) in enumerate(zip(produced.splitlines(), want.splitlines()), start=1):
        if a != b:
            mismatches.append({"line": lineno, "produced": a, "golden": b})
        if len(mismatches) >= 20:
            break
    pl, wl = len(produced.splitlines()), len(want.splitlines())
    if pl != wl:
        mismatches.append({"line": min(pl, wl) + 1, "produced": f"<{pl} lines>", "golden": f"<{wl} lines>"})
    return {"status": "mismatch", "mismatches": mismatches}
