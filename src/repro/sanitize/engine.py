"""The tree-analyzer engine: one loader and one driver for five families.

Every source-tree analyzer -- the per-file ``sanitize`` rules and the
whole-program ``flow``, ``perf``, ``race`` and ``shape`` families --
runs through this module, over Python source parsed with the stdlib
:mod:`ast`:

* :class:`SourceTree`, the loader: sorted discovery, each file read and
  parsed once into a :class:`FileContext`, and the
  :class:`~repro.flow.graph.Program` built at most once over them;
  ``repro sanitize --flow --perf --race --shape`` hands one tree to
  every family it runs;
* :class:`Family` and :func:`run_family`, the driver: the ``select``
  filter, the rules and the waiver pass
  (:func:`~repro.diagnostics.apply_waivers`), the same for every
  family;
* :func:`sanitize_source`, one in-memory source string under a virtual
  path (the fixture-corpus and unit-test entry point).

:class:`FileContext` computes the shared per-file passes (import
aliases, module-level names, suppression pragmas) lazily and once.
Unparseable files become ``parse/syntax-error`` diagnostics instead of
stack traces and are left out of the program.

Determinism contract: the report depends only on the *set* of files and
their contents -- never on visit order, dict order, or the host -- so
two runs over the same tree are bit-identical (property-tested in
``tests/sanitize/test_determinism.py`` and each family's
``test_order_independence.py``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..diagnostics import apply_waivers
from ..errors import SanitizeError
from .baseline import Baseline
from .diagnostics import Diagnostic, Severity, SourceLocation
from .report import SanitizeReport
from .rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..diagnostics import DiagnosticReport
    from ..flow.graph import Program

__all__ = [
    "AnalyzerConfig",
    "SanitizeConfig",
    "FileContext",
    "SourceTree",
    "Family",
    "anchored_path",
    "discover_files",
    "SANITIZE",
    "check_family",
    "run_family",
    "sanitize_source",
    "sanitize_file",
    "sanitize_paths",
]

#: ``# sanitize: ok`` or ``# sanitize: ok[prefix, prefix]`` on a line
#: suppresses findings anchored there (bracketed form: only matching
#: rule-id prefixes).
_PRAGMA = re.compile(r"#\s*sanitize:\s*ok(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class AnalyzerConfig:
    """The tunable every tree analyzer shares.

    ``select`` optionally restricts a run to rules whose id starts with
    one of the given prefixes (``--select flow/dead`` etc.).
    """

    select: tuple[str, ...] | None = None

    def rule_enabled(self, rule_id: str) -> bool:
        """True iff ``rule_id`` passes the ``select`` filter."""
        if not self.select:
            return True
        return any(rule_id.startswith(prefix) for prefix in self.select)


@dataclass(frozen=True)
class SanitizeConfig(AnalyzerConfig):
    """Tunables for one sanitize run.

    ``schema_registry`` overrides the packaged schema fingerprint
    registry (tests inject fixture registries here); ``None`` loads
    ``schema_registry.json`` from the package.
    """

    schema_registry: dict[str, Any] | None = None


def anchored_path(path: str | Path) -> str:
    """Normalise a file path to its ``repro/...`` suffix.

    Rule scopes and baseline fingerprints are keyed by this anchored
    form so they are independent of where the tree is checked out
    (``src/repro/core/x.py`` and ``/ci/build/src/repro/core/x.py`` both
    anchor to ``repro/core/x.py``).  Paths without a ``repro`` segment
    fall back to the bare file name.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return parts[-1]


class FileContext:
    """Lazily-computed shared state handed to every rule for one file."""

    def __init__(
        self,
        source: str,
        path: str,
        tree: ast.Module,
        registry: dict[str, Any] | None = None,
    ):
        self.source = source
        #: The path as given (what diagnostics display).
        self.path = path
        #: The ``repro/...``-anchored path (what rule scopes match on).
        self.relpath = anchored_path(path)
        self.tree = tree
        #: Parsed schema fingerprint registry (``schema/*`` rules).
        self.registry = registry if registry is not None else {}

    @cached_property
    def lines(self) -> list[str]:
        """Source split into lines (1-based access via :meth:`line_text`)."""
        return self.source.splitlines()

    def line_text(self, line: int | None) -> str:
        """The stripped text of a 1-based source line (or ``""``)."""
        if line is None or not (1 <= line <= len(self.lines)):
            return ""
        return self.lines[line - 1].strip()

    @cached_property
    def module(self) -> str:
        """Dotted module name derived from the anchored path."""
        rel = self.relpath
        if rel.endswith(".py"):
            rel = rel[: -len(".py")]
        parts = [p for p in rel.split("/") if p]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Imported-name map: local alias -> fully-qualified dotted name.

        Collected over the whole file (the tree under analysis imports
        lazily inside functions); relative imports are resolved against
        :attr:`module`, so ``from ..errors import ReproError`` inside
        ``repro/core/x.py`` maps ``ReproError`` to
        ``repro.errors.ReproError``.
        """
        aliases: dict[str, str] = {}
        parts = self.module.split(".") if self.module else []
        # An ``__init__.py``'s module name already IS its package, so a
        # level-1 relative import resolves against it, not its parent.
        if Path(self.relpath).name == "__init__.py":
            pkg = parts
        else:
            pkg = parts[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        root = a.name.split(".")[0]
                        aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = pkg[: len(pkg) - (node.level - 1)]
                    head = ".".join(base + ([node.module] if node.module else []))
                else:
                    head = node.module or ""
                for a in node.names:
                    if a.name == "*":
                        continue
                    full = f"{head}.{a.name}" if head else a.name
                    aliases[a.asname or a.name] = full
        return aliases

    def dotted(self, node: ast.AST) -> str | None:
        """The literal dotted form of a Name/Attribute chain, if any."""
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return f"{base}.{node.attr}" if base else None
        if isinstance(node, ast.Name):
            return node.id
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified name with the root alias expanded (or the raw name).

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as numpy;
        an unimported root (builtin, local variable) passes through
        unchanged.
        """
        name = self.dotted(node)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def resolve_imported(self, node: ast.AST) -> str | None:
        """Like :meth:`resolve`, but ``None`` unless the root is imported.

        Module-membership rules (``random.*``, ``numpy.random.*``) use
        this so a local variable that happens to shadow a module name
        (``rng.random()``) cannot false-positive.
        """
        name = self.dotted(node)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    @cached_property
    def module_level_names(self) -> frozenset[str]:
        """Names bound by plain assignments in the module body."""
        names: set[str] = set()
        for stmt in self.tree.body:
            for target in _assign_targets(stmt):
                names.add(target)
        return frozenset(names)

    @cached_property
    def function_nodes(self) -> list[ast.AST]:
        """Every function/lambda body node, for function-scope rules."""
        funcs: list[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                funcs.append(node)
        return funcs

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        """True iff this file's anchored path falls under any prefix."""
        rel = self.relpath
        return any(
            rel == p or (p.endswith("/") and rel.startswith(p))
            for p in prefixes
        )

    def suppressed(self, diag: Diagnostic) -> bool:
        """True iff a ``# sanitize: ok`` pragma covers this diagnostic."""
        loc = diag.location
        line = getattr(loc, "line", None)
        if line is None or not (1 <= line <= len(self.lines)):
            return False
        match = _PRAGMA.search(self.lines[line - 1])
        if match is None:
            return False
        prefixes = match.group(1)
        if prefixes is None:
            return True
        return any(
            diag.rule.startswith(p.strip())
            for p in prefixes.split(",")
            if p.strip()
        )


def _assign_targets(stmt: ast.stmt) -> Iterator[str]:
    """Plain names bound by one module-body statement."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            yield stmt.target.id


def _load_registry(override: dict[str, Any] | None) -> dict[str, Any]:
    """The schema fingerprint registry (packaged unless overridden)."""
    if override is not None:
        return override
    from .schema import load_registry

    return load_registry()


def _syntax_error(path: str, exc: SyntaxError) -> Diagnostic:
    """The ``parse/syntax-error`` finding for a file that does not parse."""
    return Diagnostic(
        rule="parse/syntax-error",
        severity=Severity.ERROR,
        message=f"cannot parse: {exc.msg}",
        location=SourceLocation(path=path, line=exc.lineno, col=exc.offset),
    )


def sanitize_source(
    source: str,
    path: str,
    config: SanitizeConfig | None = None,
    *,
    registry: dict[str, Any] | None = None,
) -> list[Diagnostic]:
    """Run every enabled rule over one source string.

    ``path`` locates the findings *and* selects rule scopes (the
    determinism rules only apply under ``repro/core/`` etc.), so tests
    can exercise scoped rules on fixture snippets by passing virtual
    paths like ``"repro/core/example.py"``.  Returns the pragma-filtered
    diagnostics, sorted.
    """
    cfg = config or SanitizeConfig()
    if registry is None:
        registry = _load_registry(cfg.schema_registry)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    ctx = FileContext(source, path, tree, registry=registry)
    diagnostics: list[Diagnostic] = []
    for rule in RULES.values():
        if not cfg.rule_enabled(rule.id):
            continue
        diagnostics.extend(rule.check(ctx))
    diagnostics = [d for d in diagnostics if not ctx.suppressed(d)]
    diagnostics.sort(key=lambda d: d.sort_key)
    return diagnostics


def sanitize_file(
    path: str | Path,
    config: SanitizeConfig | None = None,
    *,
    registry: dict[str, Any] | None = None,
) -> list[Diagnostic]:
    """Analyse one file on disk (raises ``SanitizeError`` if unreadable)."""
    p = Path(path)
    try:
        source = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SanitizeError(f"cannot read {p}: {exc}") from exc
    return sanitize_source(source, p.as_posix(), config, registry=registry)


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py``; ``__pycache__`` is
    skipped.  The sort (by posix path string) is what makes the report
    independent of filesystem enumeration order.
    """
    files: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.update(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.is_file():
            files.add(p)
        else:
            raise SanitizeError(f"no such file or directory: {p}")
    return sorted(files, key=lambda f: f.as_posix())


class _Unparsed:
    """A file that does not parse: no pragma applies, its lines still do."""

    def __init__(self, source: str):
        self.lines = source.splitlines()

    def suppressed(self, diag: Diagnostic) -> bool:
        return False

    line_text = FileContext.line_text


class SourceTree:
    """A file set read and parsed once, shared by every analyzer family.

    Discovery is eager, so a missing path fails up front; files are read
    and parsed on first use of :attr:`contexts`.  ``registry`` overrides
    the packaged schema fingerprint registry the ``schema/*`` rules read.
    """

    def __init__(
        self,
        paths: Iterable[str | Path],
        registry: dict[str, Any] | None = None,
    ):
        paths = list(paths)
        #: The paths as requested, sorted (every report's ``targets``).
        self.targets = sorted(str(p) for p in paths)
        self.files = discover_files(paths)
        self._registry = registry

    @cached_property
    def _loaded(
        self,
    ) -> tuple[list[FileContext], list[Diagnostic], dict[str, Any]]:
        registry = _load_registry(self._registry)
        contexts: list[FileContext] = []
        errors: list[Diagnostic] = []
        waivers: dict[str, Any] = {}
        for f in self.files:
            path = f.as_posix()
            try:
                source = f.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise SanitizeError(f"cannot read {f}: {exc}") from exc
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                errors.append(_syntax_error(path, exc))
                waivers[path] = _Unparsed(source)
                continue
            ctx = FileContext(source, path, tree, registry=registry)
            contexts.append(ctx)
            waivers[path] = ctx
        return contexts, errors, waivers

    @property
    def contexts(self) -> list[FileContext]:
        """One context per file that parsed, in path order."""
        return self._loaded[0]

    @property
    def parse_errors(self) -> list[Diagnostic]:
        """One ``parse/syntax-error`` per file that did not parse."""
        return self._loaded[1]

    @property
    def waivers(self) -> dict[str, Any]:
        """Path -> the pragma/line-text surface :func:`apply_waivers` reads."""
        return self._loaded[2]

    @cached_property
    def program(self) -> "Program":
        """The whole-program index over :attr:`contexts`, built once."""
        from ..flow.graph import Program

        return Program.build(self.contexts)


@dataclass(frozen=True)
class Family:
    """One analyzer family, as the driver runs it.

    ``rules`` is the family's registry.  ``build`` turns the shared
    program into the analysis every rule checks; without it (sanitize)
    each rule checks every :class:`FileContext`.  ``report`` is filled
    with the run's counts, findings and whatever ``stats`` reads off the
    analysis.
    """

    rules: Mapping[str, Any]
    report: Callable[..., "DiagnosticReport"]
    build: Callable[["Program", AnalyzerConfig], Any] | None = None
    stats: Callable[[Any], dict[str, Any]] | None = None


def check_family(
    family: Family,
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
) -> tuple[Any, list[Diagnostic], int]:
    """One family's analysis, its raw findings, and the file count.

    The analysis is the tree itself for a per-file family; the findings
    lead with the tree's parse errors, and no waiver applies yet.
    """
    tree = source if isinstance(source, SourceTree) else SourceTree(source)
    cfg = config or AnalyzerConfig()
    analysis: Any = tree
    units: list[Any] = list(tree.contexts)
    if family.build is not None:
        analysis = family.build(tree.program, cfg)
        units = [analysis]
    diagnostics = list(tree.parse_errors)
    for rule in family.rules.values():
        if cfg.rule_enabled(rule.id):
            for unit in units:
                diagnostics.extend(rule.check(unit))
    return analysis, diagnostics, len(tree.files)


def run_family(
    family: Family,
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
    baseline: Baseline | None = None,
) -> Any:
    """One family's report: its selected rules, then the waivers.

    Pragma-suppressed findings are dropped silently (the pragma is the
    documented waiver); baseline-matched findings are dropped from the
    report and exit code but counted in ``report.suppressed`` so a
    grandfathered tree never reads as clean.
    """
    tree = source if isinstance(source, SourceTree) else SourceTree(source)
    analysis, diagnostics, files = check_family(family, tree, config)
    kept, suppressed = apply_waivers(diagnostics, tree.waivers, baseline)
    stats = family.stats(analysis) if family.stats is not None else {}
    return family.report(
        targets=tree.targets,
        files=files,
        diagnostics=kept,
        suppressed=suppressed,
        **stats,
    )


#: The per-file family: every sanitize rule over each file's context.
SANITIZE = Family(rules=RULES, report=SanitizeReport)


def sanitize_paths(
    source: SourceTree | Iterable[str | Path],
    config: SanitizeConfig | None = None,
    baseline: Baseline | None = None,
) -> SanitizeReport:
    """The per-file family's report (paths load with the config's registry)."""
    cfg = config or SanitizeConfig()
    if not isinstance(source, SourceTree):
        source = SourceTree(source, cfg.schema_registry)
    return run_family(SANITIZE, source, cfg, baseline)
