"""Core machinery of the repo-specific static analysis pass.

Generic linters know nothing about this codebase's load-bearing invariants —
bit-identical decision digests at any worker count, telemetry that measures
but never decides, seed-derived RNGs only, exactly-once shared-memory
unlink, fork-safe locks.  ``repro check`` encodes them as small AST rules
(:mod:`repro.analysis.rules`) run over parsed modules by :func:`run_checks`.

The pieces:

* :class:`Violation` — one finding: ``file:line`` + rule id + message + fix
  hint, with a line-content :attr:`~Violation.fingerprint` stable under
  unrelated edits (used by the baseline workflow).
* :class:`Rule` — base class; subclasses register via :func:`register_rule`
  and implement :meth:`Rule.check` over a :class:`ModuleInfo`.
* :class:`CheckConfig` — the knobs rules consult (the truthiness class
  list, the obs package name, the blessed shared-memory module, ...).
* :func:`run_checks` — walk paths, parse, run rules, apply the optional
  baseline; importable API behind the ``repro check`` CLI.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # circular at runtime: baseline.py imports Violation
    from repro.analysis.baseline import Baseline

__all__ = [
    "CheckConfig",
    "CheckResult",
    "ModuleInfo",
    "Rule",
    "Violation",
    "all_rules",
    "iter_python_files",
    "register_rule",
    "run_checks",
]


@dataclass(frozen=True)
class CheckConfig:
    """Repo-specific knobs consulted by the rules.

    Defaults describe *this* repository; downstream callers may override
    (e.g. a different truthiness class list, or extra RNG exemptions).
    """

    #: Classes that define ``__len__`` but are used as presence flags —
    #: ``if collector:`` silently means "non-empty", not "present" (the PR-7
    #: ``TraceCollector`` bug class).  Rule REP002.
    truthiness_classes: Tuple[str, ...] = (
        "TraceCollector",
        "PlanCache",
        "KeyRegistry",
        "SlotAllocator",
    )
    #: ``np.random`` attributes that are fine to call: everything else on the
    #: module touches (or *is*) process-global RNG state.  Rule REP001.
    numpy_random_allowed: Tuple[str, ...] = (
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
    )
    #: Package directory (a path segment) whose modules must stay free of
    #: decision-code imports.  Rule REP003.
    obs_package: str = "obs"
    #: Top-level packages the obs layer may never import from.  Rule REP003.
    obs_forbidden_imports: Tuple[str, ...] = (
        "repro.engine",
        "repro.core",
        "repro.robustness",
        "repro.service",
        "repro.quant",
        "repro.experiments",
    )
    #: Basename of the one module allowed to create/unlink shared-memory
    #: segments.  Rule REP004.
    shm_module: str = "shm.py"
    #: Name that marks the unlink-once registry a ``SharedMemory(create=True)``
    #: must be paired with.  Rule REP004.
    shm_registry_name: str = "_LIVE_SEGMENTS"
    #: Path segments that mark a module as test/fixture code, exempt from the
    #: unseeded-RNG rule (test fixtures legitimately use convenience RNGs).
    test_path_segments: Tuple[str, ...] = ("tests", "fixtures", "conftest.py")

    def is_test_path(self, relpath: Path) -> bool:
        """True when ``relpath`` lies in test/fixture territory."""
        parts = set(relpath.parts)
        return any(segment in parts for segment in self.test_path_segments)


@dataclass(frozen=True)
class Violation:
    """One rule finding, pointing at ``path:line``."""

    path: str  # POSIX-style path as given to the checker
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = ""
    source_line: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for the baseline: rule + file + offending text.

        Deliberately excludes the line *number*, so edits elsewhere in the
        file do not invalidate grandfathered entries; two identical offending
        lines in one file share a fingerprint and are baselined by count.
        """
        basis = f"{self.rule_id}:{self.path}:{self.source_line.strip()}"
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        """``file:line:col: RULE message (hint)`` — the CLI output line."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class ModuleInfo:
    """One parsed module handed to every rule."""

    path: Path  # as discovered (possibly relative to the CWD)
    relpath: Path  # relative to the checked root (rules match on this)
    source: str
    tree: ast.Module
    is_test: bool

    _lines: Optional[List[str]] = field(default=None, repr=False)

    @property
    def lines(self) -> List[str]:
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    def line_text(self, lineno: int) -> str:
        """The 1-indexed source line (empty for out-of-range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for one invariant check.

    Subclasses define the class attributes and implement :meth:`check`,
    yielding :class:`Violation` objects.  :meth:`violation` builds one with
    the module/node bookkeeping filled in.
    """

    rule_id: str = "REP000"
    name: str = "base"
    description: str = ""
    hint: str = ""

    def check(self, module: ModuleInfo, config: CheckConfig) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Violation:
        lineno = getattr(node, "lineno", 1)
        return Violation(
            path=module.relpath.as_posix(),
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            hint=self.hint if hint is None else hint,
            source_line=module.line_text(lineno),
        )


_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry (id-unique)."""
    if cls.rule_id in _RULE_REGISTRY:
        raise ValueError(f"rule id {cls.rule_id!r} registered twice")
    _RULE_REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, id-sorted."""
    # Importing the rules module populates the registry on first use.
    from repro.analysis import rules as _rules  # noqa: F401

    return [_RULE_REGISTRY[rule_id]() for rule_id in sorted(_RULE_REGISTRY)]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Tuple[Path, Path]]:
    """Yield ``(file, relpath)`` for every ``.py`` under ``paths``.

    ``relpath`` is relative to the given root (or the file's parent for a
    single-file path), which is what rules match module locations on.
    Hidden directories and ``__pycache__`` are skipped.
    """
    for root in paths:
        root = Path(root)
        if root.is_file():
            yield root, Path(root.name)
            continue
        for candidate in sorted(root.rglob("*.py")):
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.relative_to(root).parts
            ):
                continue
            yield candidate, candidate.relative_to(root)


@dataclass
class CheckResult:
    """Outcome of one :func:`run_checks` invocation."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing (beyond the baseline) was found."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (the ``repro check --json`` payload)."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": self.rules_run,
            "violations": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "rule": v.rule_id,
                    "message": v.message,
                    "hint": v.hint,
                    "fingerprint": v.fingerprint,
                }
                for v in self.violations
            ],
            "suppressed": len(self.suppressed),
        }

    def render(self) -> str:
        """Human-readable report."""
        lines = [violation.render() for violation in self.violations]
        summary = (
            f"{len(self.violations)} violation(s) in {self.files_checked} file(s), "
            f"{len(self.rules_run)} rule(s)"
        )
        if self.suppressed:
            summary += f", {len(self.suppressed)} baselined"
        lines.append(summary)
        return "\n".join(lines)


def run_checks(
    paths: Sequence,
    rules: Optional[Iterable[Rule]] = None,
    config: Optional[CheckConfig] = None,
    baseline: "Optional[Baseline]" = None,
) -> CheckResult:
    """Run the invariant rules over every Python file under ``paths``.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    rules:
        Rule instances to run; defaults to every registered rule.
    config:
        Repo-specific knobs; defaults to :class:`CheckConfig`.
    baseline:
        Optional :class:`repro.analysis.baseline.Baseline`; matching
        violations land in ``suppressed`` instead of ``violations``.
    """
    config = config or CheckConfig()
    active = list(rules) if rules is not None else all_rules()
    result = CheckResult(rules_run=[rule.rule_id for rule in active])
    violations: List[Violation] = []
    for path, relpath in iter_python_files([Path(p) for p in paths]):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            violations.append(
                Violation(
                    path=relpath.as_posix(),
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    rule_id="REP000",
                    message=f"could not parse: {exc}",
                    hint="fix the syntax error; unparseable files are unchecked",
                )
            )
            result.files_checked += 1
            continue
        module = ModuleInfo(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            is_test=config.is_test_path(relpath),
        )
        result.files_checked += 1
        for rule in active:
            violations.extend(rule.check(module, config))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    if baseline is not None:
        fresh, suppressed = baseline.filter(violations)
        result.violations = fresh
        result.suppressed = suppressed
    else:
        result.violations = violations
    return result
