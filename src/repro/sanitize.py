"""Runtime determinism sanitizer (``repro sanitize``).

The static DET1xx rules (``tools/lint``) prove worker purity on the
*reference graph* they can see; this module is the dynamic complement
that catches what static analysis cannot — entropy that only exists at
runtime:

* :class:`RngTrap` — intercepts ``np.random.default_rng`` construction
  and stdlib ``random`` calls while a run is wrapped, and reports any
  *unseeded* generator (**SAN101**) or stdlib-random use (**SAN102**)
  originating from ``repro`` code, with the construction site's
  file:line;
* :func:`hash_seed_replay` — replays a run in two subprocesses with
  different ``PYTHONHASHSEED`` values and byte-compares the canonical
  report serialization (**SAN104** on divergence) — the dynamic twin of
  lint rule DET103, and the check that would have caught the PR-5
  simulator bug on the first run;
* :func:`executor_matrix` — runs the same detection under the serial
  and process executors and byte-compares the reports (**SAN105** on
  divergence), the contract the chaos suite asserts.

Findings carry the same ``(rule, path, line, message, hint)`` schema,
text/JSON/SARIF rendering, exit codes, and baseline suppression format
as ``repro lint`` — deliberately mirrored here rather than imported,
because ``tools.lint`` only exists in a repository checkout while the
sanitizer ships inside the package.

Run it via the CLI (``repro sanitize``).

Known limitation: findings recorded *inside forked process workers* die
with the worker — the RNG trap covers the serial executor; the process
executor is covered by the replay and matrix checks, which observe its
output bytes from the parent.
"""

from __future__ import annotations

import functools
import json
import os
import random  # repro-lint: disable=DET002  (patched, never consumed)
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Finding",
    "RngTrap",
    "apply_baseline",
    "executor_matrix",
    "format_findings",
    "hash_seed_replay",
    "load_baseline",
    "sarif_document",
]

#: Schema tag shared with the repro-lint baseline file format.
BASELINE_SCHEMA = "repro.lint-baseline/1"

#: stdlib random functions the trap intercepts (module-level entry points
#: of the shared global-state Mersenne Twister).
_STDLIB_RANDOM_FNS = (
    "random", "seed", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "betavariate", "expovariate",
)


@dataclass(frozen=True)
class Finding:
    """One runtime violation — mirrors ``tools.lint.core.Finding``."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text


def _repro_caller(skip_substrings: Tuple[str, ...]) -> Tuple[str, int]:
    """File:line of the nearest stack frame inside the ``repro`` package.

    Frames from this module (and ``skip_substrings``) are skipped so the
    trap reports the construction site, not its own wrapper.  Returns
    ``("<unknown>", 0)`` when the call did not originate in repro code.
    """
    sep = os.sep
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if (
            f"{sep}repro{sep}" in filename
            and not filename.endswith(f"{sep}sanitize.py")
            and not any(token in filename for token in skip_substrings)
        ):
            return _display(filename), frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


def _display(filename: str) -> str:
    path = Path(filename)
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


class RngTrap:
    """Context manager trapping unseeded-RNG construction at runtime.

    Patches ``np.random.default_rng`` and the module-level stdlib
    ``random`` entry points.  Construction still happens — the trap
    *records*, it never alters behavior — so a sanitized run produces
    the same output as an unsanitized one.

    Only calls whose stack passes through the ``repro`` package are
    reported: third-party libraries constructing their own generators
    are not this codebase's findings.
    """

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._saved_default_rng: Optional[Callable[..., object]] = None
        self._saved_stdlib: Dict[str, Callable[..., object]] = {}

    def __enter__(self) -> "RngTrap":
        original = np.random.default_rng
        self._saved_default_rng = original

        @functools.wraps(original)
        def traced_default_rng(*args: object, **kwargs: object) -> object:
            if not args and not kwargs:
                path, line = _repro_caller(())
                if line:
                    self.findings.append(
                        Finding(
                            rule="SAN101",
                            path=path,
                            line=line,
                            message="np.random.default_rng() constructed "
                            "without a seed during a sanitized run",
                            hint="pass an explicit seed (derive_task_seed for "
                            "engine tasks) or thread a Generator parameter",
                        )
                    )
            return original(*args, **kwargs)

        np.random.default_rng = traced_default_rng  # type: ignore[assignment]
        for name in _STDLIB_RANDOM_FNS:
            fn = getattr(random, name, None)
            if fn is None:
                continue
            self._saved_stdlib[name] = fn
            setattr(random, name, self._make_stdlib_probe(name, fn))
        return self

    def _make_stdlib_probe(
        self, name: str, fn: Callable[..., object]
    ) -> Callable[..., object]:
        @functools.wraps(fn)
        def probe(*args: object, **kwargs: object) -> object:
            path, line = _repro_caller(())
            if line:
                self.findings.append(
                    Finding(
                        rule="SAN102",
                        path=path,
                        line=line,
                        message=f"stdlib random.{name}() called from repro "
                        "code during a sanitized run (global-state RNG)",
                        hint="take a seeded np.random.Generator parameter "
                        "instead",
                    )
                )
            return fn(*args, **kwargs)

        return probe

    def __exit__(self, *exc_info: object) -> None:
        if self._saved_default_rng is not None:
            np.random.default_rng = self._saved_default_rng  # type: ignore[assignment]
            self._saved_default_rng = None
        for name, fn in self._saved_stdlib.items():
            setattr(random, name, fn)
        self._saved_stdlib.clear()


# -- subprocess replay / executor matrix -----------------------------


def canonical_report_bytes(
    dataset: object,
    executor: str = "serial",
    chaos_dropout: float = 0.0,
    chaos_seed: int = 0,
) -> bytes:
    """Deterministic report serialization of one detection run.

    Reports + health only — run *stats* carry wall-clock timings and are
    excluded, exactly as the crash-resume verifier excludes them.
    """
    from .core import HierarchicalDetectionPipeline, PipelineConfig
    from .io import reports_to_json

    if chaos_dropout > 0:
        from .plant import ChaosConfig, inject_chaos

        dataset, __ = inject_chaos(
            dataset,
            ChaosConfig(seed=chaos_seed, sensor_dropout_rate=chaos_dropout),
        )
    pipeline = HierarchicalDetectionPipeline(
        dataset, config=PipelineConfig(executor=executor)
    )
    reports = pipeline.run()
    return reports_to_json(reports, health=pipeline.health).encode("utf-8")


def hash_seed_replay(
    child_argv: Sequence[str],
    hash_seeds: Tuple[int, int] = (0, 1),
    timeout: float = 600.0,
) -> List[Finding]:
    """Replay a run under two ``PYTHONHASHSEED`` values, byte-compare.

    ``child_argv`` is the ``repro sanitize --replay-child ...`` argument
    vector; each child prints :func:`canonical_report_bytes` on stdout.
    A fresh interpreter per seed is mandatory — the hash seed is fixed
    at startup and cannot be changed in-process.
    """
    outputs: List[bytes] = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *child_argv],
            capture_output=True,
            env=env,
            timeout=timeout,
        )
        if proc.returncode != 0:
            return [
                Finding(
                    rule="SAN104",
                    path="<replay>",
                    line=0,
                    message=f"PYTHONHASHSEED={hash_seed} replay child exited "
                    f"{proc.returncode}: "
                    f"{proc.stderr.decode('utf-8', 'replace').strip()[-300:]}",
                    hint="the replay child must run to completion for the "
                    "hash-order check to compare anything",
                )
            ]
        outputs.append(proc.stdout)
    if outputs[0] != outputs[1]:
        return [
            Finding(
                rule="SAN104",
                path="<replay>",
                line=0,
                message=f"reports diverge between PYTHONHASHSEED="
                f"{hash_seeds[0]} and {hash_seeds[1]}: some iteration order "
                "leaks hash-seeded set/dict ordering into the output",
                hint="run `repro lint --select DET103` to locate "
                "order-exposing set iteration",
            )
        ]
    return []


def executor_matrix(
    make_dataset: Callable[[], object],
    executors: Sequence[str] = ("serial", "process"),
    chaos_dropout: float = 0.0,
    chaos_seed: int = 0,
) -> List[Finding]:
    """Byte-compare reports across executors (**SAN105** on divergence).

    ``make_dataset`` is called once per executor so in-place mutation by
    one run can never masquerade as executor divergence in the next.
    """
    reference: Optional[bytes] = None
    reference_executor = ""
    findings: List[Finding] = []
    for executor in executors:
        produced = canonical_report_bytes(
            make_dataset(),
            executor=executor,
            chaos_dropout=chaos_dropout,
            chaos_seed=chaos_seed,
        )
        if reference is None:
            reference, reference_executor = produced, executor
        elif produced != reference:
            findings.append(
                Finding(
                    rule="SAN105",
                    path="<matrix>",
                    line=0,
                    message=f"reports from the {executor!r} executor are not "
                    f"byte-identical to {reference_executor!r}: the "
                    "determinism contract of repro.core.parallel is broken",
                    hint="look for worker-side shared state (DET101) "
                    "or completion-order-dependent merging",
                )
            )
    return findings


# -- rendering / baselines (mirrors tools.lint.core) ------------------


def _summary(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def format_findings(
    findings: Iterable[Finding],
    fmt: str = "text",
    checked: int = 0,
    tool: str = "repro-sanitize",
    suppressed: int = 0,
) -> str:
    """Render findings as human text, a JSON document, or SARIF 2.1.0."""
    findings = list(findings)
    if fmt == "json":
        return json.dumps(
            {
                "tool": tool,
                "checked_files": checked,
                "findings": [f.as_dict() for f in findings],
                "summary": _summary(findings),
            },
            indent=2,
        )
    if fmt == "sarif":
        return json.dumps(sarif_document(findings, tool=tool), indent=2)
    lines = [f.render() for f in findings]
    counts = _summary(findings)
    note = f" ({suppressed} baselined)" if suppressed else ""
    if findings:
        per_rule = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        lines.append(
            f"{tool}: {len(findings)} finding(s) in {checked} check(s){note}: "
            f"{per_rule}"
        )
    else:
        lines.append(f"{tool}: clean ({checked} check(s) run){note}")
    return "\n".join(lines)


def sarif_document(
    findings: Sequence[Finding], tool: str = "repro-sanitize"
) -> Dict[str, object]:
    """Minimal SARIF 2.1.0 log, same shape as the repro-lint renderer."""
    rule_ids: List[str] = []
    first_message: Dict[str, str] = {}
    for finding in findings:
        if finding.rule not in first_message:
            rule_ids.append(finding.rule)
            first_message[finding.rule] = finding.message
    results = []
    for finding in findings:
        text = finding.message
        if finding.hint:
            text += f" [fix: {finding.hint}]"
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": text},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {"startLine": max(1, finding.line)},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "rules": [
                            {
                                "id": rid,
                                "shortDescription": {"text": first_message[rid]},
                            }
                            for rid in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def load_baseline(path: Path) -> Dict[Tuple[str, str], int]:
    """Read a ``repro.lint-baseline/1`` suppression file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: not a {BASELINE_SCHEMA} baseline "
            f"(schema={doc.get('schema')!r})"
        )
    out: Dict[Tuple[str, str], int] = {}
    for entry in doc.get("suppressions", []):
        rule, fpath, count = entry["rule"], entry["path"], int(entry["count"])
        if count < 1:
            raise ValueError(f"{path}: non-positive count for {rule} @ {fpath}")
        out[(str(rule), str(fpath))] = count
    return out


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[Tuple[str, str], int]
) -> Tuple[List[Finding], int]:
    """Drop up to ``count`` findings per baselined ``(rule, path)``."""
    budget = dict(baseline)
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        key = (finding.rule, finding.path)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed
