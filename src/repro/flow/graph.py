"""The project-wide call graph: definitions, resolution, edges, facts.

Builds directly on the per-file passes :mod:`repro.sanitize` already
computes (:class:`~repro.sanitize.engine.FileContext` supplies module
names, import-alias resolution with relative imports expanded, and the
``# sanitize: ok`` pragma grammar) and adds the *whole-program* layer:

* a definitions index keyed by dotted qualname
  (``repro.core.attack.attack_circuit``,
  ``repro.farm.jobs.AttackJob.execute``);
* a class table with bases, methods, and subclass links, giving
  method-resolution-order lookups and exception-subtype tests (a small
  builtin exception hierarchy covers the stdlib side);
* re-export resolution that follows package ``__init__`` alias chains
  (``repro.farm.ArtifactStore`` hops to
  ``repro.farm.store.ArtifactStore``);
* call and reference edges annotated with the exception handlers
  lexically enclosing each site and with how (and whether) an ``rng``
  argument is forwarded;
* per-function facts feeding the fixpoints in
  :mod:`repro.flow.summaries`: raise sites that survive local
  handlers, module-state mutation sites (the
  ``forksafety/module-state-mutation`` idiom, pragma-aware), silent
  broad ``except`` clauses, and constant default-``rng`` construction.

Resolution is deliberately conservative in opposite directions for the
two consumers: *liveness* (``flow/dead-export``) counts every resolvable
reference as use, while *reachability* (``flow/fork-hostile-call``,
``flow/foreign-exception-escape``) follows call edges plus references,
so an unresolvable dynamic dispatch can hide work but a resolvable one
is never dropped.  Known blind spots (callable-valued dataclass fields,
exceptions raised inside third-party libraries) are documented in
``docs/FLOW.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..sanitize.engine import _PRAGMA, FileContext

__all__ = [
    "Handler",
    "Edge",
    "RaiseSite",
    "MutationSite",
    "BroadExceptSite",
    "FunctionInfo",
    "ClassInfo",
    "Program",
]

#: Immediate base of each builtin exception the tree touches; the
#: program class table covers everything defined in-tree, this table
#: covers the stdlib side of dual-inheritance chains.
_BUILTIN_EXC_BASES: dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "OSError": "Exception",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "SyntaxError": "Exception",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "Warning": "Exception",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "ZeroDivisionError": "ArithmeticError",
    "ModuleNotFoundError": "ImportError",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "UnboundLocalError": "NameError",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "OSError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "IsADirectoryError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "json.JSONDecodeError": "ValueError",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
}

#: Method names too generic to link by name alone: they collide with
#: builtin container/str/file methods, so an untyped receiver would pull
#: in near-random edges.  Receivers typed via ``self``, constructor
#: assignment, or annotations still resolve these precisely.
_GENERIC_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "close",
        "copy",
        "count",
        "extend",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "open",
        "pop",
        "popitem",
        "read",
        "remove",
        "setdefault",
        "sort",
        "split",
        "strip",
        "update",
        "values",
        "write",
    }
)

#: Name-based method linking gives up above this many candidates: a
#: vocabulary word shared by that many classes says nothing about the
#: receiver.
_MAX_NAMED_TARGETS = 12

#: Rule ids a pragma must cover to suppress a mutation site: the
#: per-file ids (a site excused for the per-file analyzer is excused
#: here too -- one pragma, both layers) plus the flow rule's own id.
_MUTATION_RULE_IDS = (
    "forksafety/module-state-mutation",
    "forksafety/global-statement",
    "flow/fork-hostile-call",
)


@dataclass(frozen=True)
class Handler:
    """One ``except`` clause enclosing a site: caught types, re-raise."""

    types: tuple[str, ...]
    reraises: bool


@dataclass(frozen=True)
class RaiseSite:
    """An exception construction that escapes its local handlers."""

    exc: str
    line: int


@dataclass(frozen=True)
class MutationSite:
    """A module-state mutation inside a function body."""

    what: str
    line: int
    suppressed: bool


@dataclass(frozen=True)
class BroadExceptSite:
    """An ``except Exception``/``BaseException`` that swallows silently."""

    line: int
    caught: str


@dataclass(frozen=True)
class Edge:
    """One call or reference from ``caller`` to ``callee``.

    ``kind`` is ``"call"`` for an invocation and ``"ref"`` for a plain
    name use (registry dicts, ``set_defaults(func=...)``, decorators);
    reachability and escape propagation treat both as potential
    transfers of control.  ``rng_mode`` (calls only) classifies how an
    ``rng`` keyword is forwarded: ``"absent"`` (not passed),
    ``"none"`` (literal ``None``), ``"param"`` (the caller forwards its
    own rng-like parameter), ``"value"`` (anything else, assumed
    non-``None``).  ``handlers`` are the ``except`` clauses lexically
    enclosing the site, innermost last.
    """

    caller: str
    callee: str
    path: str
    line: int
    kind: str
    rng_mode: str | None
    handlers: tuple[Handler, ...]


@dataclass
class FunctionInfo:
    """One indexed function or method plus its local facts."""

    qualname: str
    module: str
    name: str
    cls: str | None
    path: str
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]
    rng_param: str | None
    rng_param_optional: bool
    decorated: bool
    is_abstract: bool
    default_rng_line: int | None = None
    raises: tuple[RaiseSite, ...] = ()
    mutations: tuple[MutationSite, ...] = ()
    broad_excepts: tuple[BroadExceptSite, ...] = ()


@dataclass
class ClassInfo:
    """One indexed class: resolved bases and its own methods."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)
    decorated: bool = False


def _rng_like(name: str) -> bool:
    """Parameter names that carry a generator by convention."""
    return name == "rng" or name.endswith("_rng")


def _pragma_covers(ctx: FileContext, line: int, rule_ids: tuple[str, ...]) -> bool:
    """True iff a ``# sanitize: ok`` pragma on ``line`` covers any id."""
    if not (1 <= line <= len(ctx.lines)):
        return False
    match = _PRAGMA.search(ctx.lines[line - 1])
    if match is None:
        return False
    prefixes = match.group(1)
    if prefixes is None:
        return True
    wanted = [p.strip() for p in prefixes.split(",") if p.strip()]
    return any(rid.startswith(p) for rid in rule_ids for p in wanted)


class Program:
    """The whole-program index: definitions, resolution, edges."""

    def __init__(self) -> None:
        self.contexts: dict[str, FileContext] = {}  # path -> context
        self.modules: dict[str, FileContext] = {}  # module name -> context
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_all: dict[str, tuple[str, ...]] = {}
        self.module_defs: dict[str, list[str]] = {}  # module-level def/class
        self.dispatch: dict[str, tuple[str, ...]] = {}  # module.VAR -> targets
        self.edges: list[Edge] = []
        self.edges_from: dict[str, list[Edge]] = {}
        self.edges_to: dict[str, list[Edge]] = {}
        self.subclasses: dict[str, list[str]] = {}
        self._resolve_memo: dict[str, tuple[str, str] | None] = {}
        self._methods_named: dict[str, tuple[str, ...]] = {}

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, contexts: list[FileContext]) -> "Program":
        """Index definitions, then extract edges and per-function facts.

        ``contexts`` may arrive in any order; everything is keyed by
        path/qualname and iterated in sorted order downstream, so the
        result is independent of discovery order.
        """
        program = cls()
        for ctx in sorted(contexts, key=lambda c: c.path):
            program.contexts[ctx.path] = ctx
            if ctx.module and ctx.module not in program.modules:
                program.modules[ctx.module] = ctx
        for path in sorted(program.contexts):
            program._index_file(program.contexts[path])
        for cinfo in program.classes.values():
            for base in cinfo.bases:
                resolved = program.resolve(base, cinfo.module)
                key = resolved[1] if resolved and resolved[0] == "class" else base
                program.subclasses.setdefault(key, []).append(cinfo.qualname)
        for lst in program.subclasses.values():
            lst.sort()
        for path in sorted(program.contexts):
            program._extract_file(program.contexts[path])
        program.edges.sort(
            key=lambda e: (e.path, e.line, e.caller, e.callee, e.kind)
        )
        for edge in program.edges:
            program.edges_from.setdefault(edge.caller, []).append(edge)
            program.edges_to.setdefault(edge.callee, []).append(edge)
        return program

    def _index_file(self, ctx: FileContext) -> None:
        module = ctx.module
        self.module_defs.setdefault(module, [])
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, cls=None, top=True)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, stmt, prefix=module, top=True)
            elif isinstance(stmt, ast.Assign):
                self._index_assign(ctx, stmt)

    def _index_assign(self, ctx: FileContext, stmt: ast.Assign) -> None:
        """Record ``__all__`` lists and module-level dispatch dicts."""
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__" and isinstance(
                stmt.value, (ast.List, ast.Tuple)
            ):
                names = tuple(
                    e.value
                    for e in stmt.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
                self.module_all.setdefault(ctx.module, names)
            elif isinstance(stmt.value, ast.Dict):
                targets = []
                for value in stmt.value.values:
                    dotted = ctx.resolve(value)
                    if dotted is None:
                        targets = []
                        break
                    targets.append(dotted)
                if targets:
                    key = f"{ctx.module}.{target.id}"
                    self.dispatch.setdefault(key, tuple(targets))

    def _index_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
        top: bool,
    ) -> None:
        prefix = cls if cls is not None else ctx.module
        qualname = f"{prefix}.{node.name}"
        if qualname in self.functions or qualname in self.classes:
            return  # redefinition: first (sorted-path) definition wins
        args = node.args
        params = tuple(
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        )
        rng_param, optional = self._rng_param(args)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=ctx.module,
            name=node.name,
            cls=cls,
            path=ctx.path,
            line=node.lineno,
            node=node,
            params=params,
            rng_param=rng_param,
            rng_param_optional=optional,
            decorated=bool(node.decorator_list),
            is_abstract=self._is_abstract_marker(ctx, node),
        )
        if cls is not None:
            self.classes[cls].methods.setdefault(node.name, qualname)
        elif top:
            self.module_defs[ctx.module].append(qualname)

    def _index_class(
        self, ctx: FileContext, node: ast.ClassDef, prefix: str, top: bool
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        if qualname in self.classes or qualname in self.functions:
            return
        bases = []
        for base in node.bases:
            dotted = ctx.resolve(base)
            if dotted is not None:
                bases.append(self._qualify(dotted, ctx.module))
        self.classes[qualname] = ClassInfo(
            qualname=qualname,
            module=ctx.module,
            name=node.name,
            path=ctx.path,
            line=node.lineno,
            bases=tuple(bases),
            decorated=bool(node.decorator_list),
        )
        if top:
            self.module_defs[ctx.module].append(qualname)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, cls=qualname, top=False)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, stmt, prefix=qualname, top=False)

    @staticmethod
    def _rng_param(args: ast.arguments) -> tuple[str | None, bool]:
        """The rng-like parameter and whether it defaults to ``None``."""
        pos = args.posonlyargs + args.args
        defaults: list[ast.expr | None] = [None] * (
            len(pos) - len(args.defaults)
        ) + list(args.defaults)
        for a, d in list(zip(pos, defaults)) + list(
            zip(args.kwonlyargs, args.kw_defaults)
        ):
            if _rng_like(a.arg):
                optional = (
                    isinstance(d, ast.Constant) and d.value is None
                )
                return a.arg, optional
        return None, False

    @staticmethod
    def _is_abstract_marker(
        ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """Sole-statement ``raise NotImplementedError`` bodies.

        These mark abstract methods; every concrete call site resolves
        to an override, so counting the marker as a raised exception
        would fabricate escape paths through ``main``.
        """
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Raise):
            return False
        exc = body[0].exc
        if exc is None:
            return False
        target = exc.func if isinstance(exc, ast.Call) else exc
        return ctx.resolve(target) == "NotImplementedError"

    # -- name resolution ---------------------------------------------

    def _qualify(self, dotted: str, module: str) -> str:
        """Prefer the module-local definition for bare (undotted) names."""
        if "." not in dotted:
            local = f"{module}.{dotted}"
            if local in self.functions or local in self.classes:
                return local
        return dotted

    def resolve(
        self, dotted: str | None, module: str | None = None
    ) -> tuple[str, str] | None:
        """Map a dotted name to ``(kind, qualname)`` across re-exports.

        ``kind`` is ``"func"``, ``"class"``, ``"module"`` or
        ``"dispatch"``; alias chains through package ``__init__``
        modules are followed with a visited-set (cyclic re-exports
        terminate).  ``module`` qualifies bare local names.
        """
        if dotted is None:
            return None
        if module is not None:
            dotted = self._qualify(dotted, module)
        memo = self._resolve_memo
        if dotted in memo:
            return memo[dotted]
        seen: set[str] = set()
        cur: str | None = dotted
        result: tuple[str, str] | None = None
        while cur is not None and cur not in seen:
            seen.add(cur)
            if cur in self.functions:
                result = ("func", cur)
                break
            if cur in self.classes:
                result = ("class", cur)
                break
            if cur in self.dispatch:
                result = ("dispatch", cur)
                break
            if cur in self.modules:
                result = ("module", cur)
                break
            head, _, tail = cur.rpartition(".")
            if head in self.classes and tail:
                target = self.method_in_hierarchy(head, tail)
                if target is not None:
                    result = ("func", target)
                break
            cur = self._alias_hop(cur)
        memo[dotted] = result
        return result

    def _alias_hop(self, dotted: str) -> str | None:
        """One hop through the longest module prefix's import aliases."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            ctx = self.modules.get(module)
            if ctx is None:
                continue
            alias = ctx.aliases.get(parts[i])
            if alias is None:
                return None
            return ".".join([alias] + parts[i + 1 :])
        return None

    def method_in_hierarchy(self, cls: str, name: str) -> str | None:
        """Resolve a method by walking the class's bases (MRO-ish, BFS)."""
        queue, seen = [cls], set()
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            for base in info.bases:
                resolved = self.resolve(base, info.module)
                if resolved and resolved[0] == "class":
                    queue.append(resolved[1])
        return None

    def method_targets(self, cls: str, name: str) -> list[str]:
        """The method a typed receiver can dispatch to, plus overrides."""
        targets: set[str] = set()
        base = self.method_in_hierarchy(cls, name)
        if base is not None:
            targets.add(base)
        for sub in self.descendants(cls):
            info = self.classes.get(sub)
            if info and name in info.methods:
                targets.add(info.methods[name])
        return sorted(targets)

    def descendants(self, cls: str) -> list[str]:
        """All transitive subclasses of ``cls`` (sorted)."""
        out: set[str] = set()
        queue = list(self.subclasses.get(cls, ()))
        while queue:
            cur = queue.pop()
            if cur in out:
                continue
            out.add(cur)
            queue.extend(self.subclasses.get(cur, ()))
        return sorted(out)

    def methods_named(self, name: str) -> tuple[str, ...]:
        """Name-based fallback targets for untyped receivers."""
        if name in self._methods_named:
            return self._methods_named[name]
        hits = tuple(
            sorted(
                f.qualname
                for f in self.functions.values()
                if f.cls is not None and f.name == name
            )
        )
        if name in _GENERIC_METHODS or len(hits) > _MAX_NAMED_TARGETS:
            hits = ()
        self._methods_named[name] = hits
        return hits

    # -- exception subtyping -----------------------------------------

    def exception_bases(self, exc: str) -> list[str]:
        """Immediate bases of an exception type name (program + builtin)."""
        info = self.classes.get(exc)
        if info is not None:
            out = []
            for base in info.bases:
                resolved = self.resolve(base, info.module)
                out.append(
                    resolved[1]
                    if resolved and resolved[0] == "class"
                    else base
                )
            return out
        builtin = _BUILTIN_EXC_BASES.get(exc)
        return [builtin] if builtin else []

    def is_exception_subtype(self, exc: str, base: str) -> bool:
        """True iff ``exc`` is ``base`` or transitively derives from it."""
        queue, seen = [exc], set()
        while queue:
            cur = queue.pop(0)
            if cur == base:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(self.exception_bases(cur))
        return False

    def handler_catches(self, handler: Handler, exc: str) -> bool:
        """True iff one ``except`` clause would catch ``exc``."""
        return any(self.is_exception_subtype(exc, t) for t in handler.types)

    def absorbed(self, exc: str, handlers: tuple[Handler, ...]) -> bool:
        """True iff an enclosing non-re-raising handler stops ``exc``."""
        return any(
            not h.reraises and self.handler_catches(h, exc)
            for h in handlers
        )

    # -- edge and fact extraction ------------------------------------

    def _extract_file(self, ctx: FileContext) -> None:
        for qualname in sorted(self.functions):
            finfo = self.functions[qualname]
            if finfo.path != ctx.path:
                continue
            walker = _SiteWalker(self, ctx, qualname, finfo)
            walker.run_function(finfo.node)
            finfo.raises = tuple(walker.raises)
            finfo.mutations = tuple(walker.mutations)
            finfo.broad_excepts = tuple(walker.broad_excepts)
            finfo.default_rng_line = walker.default_rng_line
            self.edges.extend(walker.edges)
        module_walker = _SiteWalker(self, ctx, ctx.module, None)
        module_walker.run_module(ctx.tree)
        self.edges.extend(module_walker.edges)


class _SiteWalker:
    """Extracts edges and local facts for one function (or module) body.

    Tracks the lexical ``try`` context so every edge and raise knows
    which handlers enclose it, and a small flow-insensitive local
    environment (constructor assignments, annotated parameters,
    dispatch-table lookups) so method calls on locally-typed receivers
    resolve precisely.
    """

    def __init__(
        self,
        program: Program,
        ctx: FileContext,
        caller: str,
        finfo: FunctionInfo | None,
    ) -> None:
        self.program = program
        self.ctx = ctx
        self.caller = caller
        self.finfo = finfo
        self.module_mode = finfo is None
        self.edges: list[Edge] = []
        self.raises: list[RaiseSite] = []
        self.mutations: list[MutationSite] = []
        self.broad_excepts: list[BroadExceptSite] = []
        self.default_rng_line: int | None = None
        self.local_class: dict[str, str] = {}
        self.local_funcs: dict[str, tuple[str, ...]] = {}

    # -- entry points -------------------------------------------------

    def run_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._seed_param_types(node)
        for stmt in node.body:
            self._visit(stmt, (), None)

    def run_module(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._visit(stmt, (), None)

    def _seed_param_types(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.annotation is None:
                continue
            ann: ast.expr = a.annotation
            resolved = self.program.resolve(
                self.ctx.resolve(ann), self.ctx.module
            )
            if resolved and resolved[0] == "class":
                self.local_class[a.arg] = resolved[1]

    # -- the walker ---------------------------------------------------

    def _visit(
        self,
        node: ast.AST,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        if isinstance(node, ast.Try):
            self._visit_try(node, handlers, current)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators and defaults evaluate here and now; the body is
            # either someone else's function (module mode) or runs later,
            # outside the enclosing try context.
            for dec in node.decorator_list:
                self._visit(dec, handlers, current)
            for default in self._defaults(node.args):
                self._visit(default, handlers, current)
            if not self.module_mode:
                for stmt in node.body:
                    self._visit(stmt, (), None)
        elif isinstance(node, ast.Lambda):
            for default in self._defaults(node.args):
                self._visit(default, handlers, current)
            self._visit(node.body, (), None)
        elif isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                self._visit(dec, handlers, current)
            for base in node.bases:
                self._visit(base, handlers, current)
            for kw in node.keywords:
                self._visit(kw.value, handlers, current)
            for stmt in node.body:
                self._visit(stmt, handlers, current)
        elif isinstance(node, ast.Raise):
            self._record_raise(node, handlers, current)
            for child in (node.exc, node.cause):
                if child is not None:
                    self._visit_expr_parts(child, handlers, current)
        elif isinstance(node, ast.Global):
            if not self.module_mode:
                self._record_mutation(
                    f"global {', '.join(node.names)}", node.lineno
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assign(node, handlers, current)
        elif isinstance(node, ast.Call):
            self._visit_call(node, handlers, current)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            self._record_ref(node, handlers)
        else:
            for child in ast.iter_child_nodes(node):
                self._visit(child, handlers, current)

    def _visit_expr_parts(
        self,
        node: ast.AST,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        """Visit an expression subtree for its edges (no statement facts)."""
        self._visit(node, handlers, current)

    @staticmethod
    def _defaults(args: ast.arguments) -> list[ast.expr]:
        return list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]

    def _visit_try(
        self,
        node: ast.Try,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        infos = tuple(self._handler_info(h) for h in node.handlers)
        for stmt in node.body:
            self._visit(stmt, handlers + infos, current)
        for clause, info in zip(node.handlers, infos):
            self._record_broad_except(clause, info)
            if clause.type is not None:
                self._visit_expr_parts(clause.type, handlers, current)
            for stmt in clause.body:
                self._visit(stmt, handlers, info)
        for stmt in node.orelse:
            self._visit(stmt, handlers, current)
        for stmt in node.finalbody:
            self._visit(stmt, handlers, current)

    def _handler_info(self, clause: ast.ExceptHandler) -> Handler:
        if clause.type is None:
            types: tuple[str, ...] = ("BaseException",)
        else:
            exprs = (
                clause.type.elts
                if isinstance(clause.type, ast.Tuple)
                else [clause.type]
            )
            types = tuple(
                self._exception_name(e) for e in exprs
            )
            types = tuple(t for t in types if t)
        reraises = any(
            isinstance(n, ast.Raise)
            and (
                n.exc is None
                or (
                    clause.name is not None
                    and isinstance(n.exc, ast.Name)
                    and n.exc.id == clause.name
                )
            )
            for n in ast.walk(clause)
        )
        return Handler(types=types, reraises=reraises)

    def _exception_name(self, expr: ast.expr) -> str:
        dotted = self.ctx.resolve(expr)
        if dotted is None:
            return ""
        resolved = self.program.resolve(dotted, self.ctx.module)
        if resolved and resolved[0] == "class":
            return resolved[1]
        if dotted == "BaseException" or dotted in _BUILTIN_EXC_BASES:
            return dotted
        if "." in dotted:
            # module-qualified foreign type (``zlib.error`` etc.)
            return dotted
        # A bare name that resolves to neither a program class nor a
        # builtin exception is a local variable (``raise exc``), not a
        # type; its type was recorded where the value was constructed.
        return ""

    def _record_broad_except(
        self, clause: ast.ExceptHandler, info: Handler
    ) -> None:
        if self.module_mode:
            return
        caught = [t for t in info.types if t in ("Exception", "BaseException")]
        if not caught or info.reraises:
            return
        if clause.name is not None and any(
            isinstance(n, ast.Name) and n.id == clause.name
            for n in ast.walk(clause)
        ):
            return  # the exception is bound and used, not swallowed
        self.broad_excepts.append(
            BroadExceptSite(line=clause.lineno, caught=caught[0])
        )

    def _record_raise(
        self,
        node: ast.Raise,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        if self.module_mode or self.finfo is None:
            return
        if self.finfo.is_abstract:
            return
        if node.exc is None:
            # Bare re-raise: record nothing here.  The handler's
            # ``reraises`` flag already stops it from absorbing, so the
            # original raise sites (in the try body or its callees)
            # propagate on their own; re-recording the *caught* types
            # would widen e.g. ``except BaseException: ... raise`` into
            # a phantom direct ``BaseException`` raise.
            excs: list[str] = []
        else:
            target = (
                node.exc.func
                if isinstance(node.exc, ast.Call)
                else node.exc
            )
            name = self._exception_name(target)
            excs = [name] if name else []
        for exc in excs:
            if not self.program.absorbed(exc, handlers):
                self.raises.append(RaiseSite(exc=exc, line=node.lineno))

    def _record_mutation(self, what: str, line: int) -> None:
        suppressed = _pragma_covers(self.ctx, line, _MUTATION_RULE_IDS)
        self.mutations.append(
            MutationSite(what=what, line=line, suppressed=suppressed)
        )

    def _visit_assign(
        self,
        node: ast.Assign | ast.AnnAssign | ast.AugAssign,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        # module-state mutation: assignment into a module-level object
        if not self.module_mode:
            names = self.ctx.module_level_names
            for target in targets:
                if (
                    isinstance(target, (ast.Subscript, ast.Attribute))
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    self._record_mutation(
                        f"assignment into {target.value.id}", node.lineno
                    )
                    break
        # local typing environment
        value = node.value
        if value is not None and len(targets) == 1 and isinstance(
            targets[0], ast.Name
        ):
            self._bind_local(targets[0].id, value)
        # subscript/attribute targets may contain calls
        for target in targets:
            if not isinstance(target, ast.Name):
                self._visit_expr_parts(target, handlers, current)
        if value is not None:
            self._visit(value, handlers, current)
        ann = getattr(node, "annotation", None)
        if ann is not None and isinstance(targets[0], ast.Name):
            resolved = self.program.resolve(
                self.ctx.resolve(ann), self.ctx.module
            )
            if resolved and resolved[0] == "class":
                self.local_class[targets[0].id] = resolved[1]

    def _bind_local(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            resolved = self.program.resolve(
                self.ctx.resolve(value.func), self.ctx.module
            )
            if resolved and resolved[0] == "class":
                self.local_class[name] = resolved[1]
        elif isinstance(value, (ast.Name, ast.Attribute)):
            resolved = self.program.resolve(
                self.ctx.resolve(value), self.ctx.module
            )
            if resolved and resolved[0] == "func":
                self.local_funcs[name] = (resolved[1],)
        elif isinstance(value, ast.Subscript):
            targets = self._dispatch_targets(value)
            if targets:
                self.local_funcs[name] = targets

    def _dispatch_targets(self, sub: ast.Subscript) -> tuple[str, ...]:
        """Functions behind ``TABLE[key]`` for a known dispatch dict."""
        resolved = self.program.resolve(
            self.ctx.resolve(sub.value), self.ctx.module
        )
        if not resolved or resolved[0] != "dispatch":
            return ()
        values = self.program.dispatch[resolved[1]]
        out: set[str] = set()
        owner = resolved[1].rsplit(".", 1)[0]
        for dotted in values:
            r = self.program.resolve(dotted, owner)
            if r and r[0] == "func":
                out.add(r[1])
        return tuple(sorted(out))

    # -- calls and references ----------------------------------------

    def _visit_call(
        self,
        node: ast.Call,
        handlers: tuple[Handler, ...],
        current: Handler | None,
    ) -> None:
        targets, class_ref = self._call_targets(node.func)
        rng_mode = self._rng_mode(node)
        for target in targets:
            self._add_edge(node, target, "call", rng_mode, handlers)
        if class_ref is not None:
            self._add_edge(node, class_ref, "ref", None, handlers)
        self._check_default_rng(node)
        if not targets and class_ref is None and not isinstance(
            node.func, ast.Name
        ):
            # unresolved receiver chains may still contain calls inside
            self._visit_expr_parts(node.func, handlers, current)
        for arg in node.args:
            self._visit(arg, handlers, current)
        for kw in node.keywords:
            self._visit(kw.value, handlers, current)

    def _check_default_rng(self, node: ast.Call) -> None:
        """Constant default-generator construction (the kernel marker).

        ``default_rng()`` / ``default_rng(0)`` with only constant
        arguments is a locally-pinned stream: every caller that lets
        ``rng`` arrive as ``None`` silently shares it.  Seed-derived
        construction (``default_rng(seed)``) is the sanctioned repair
        and does not match.
        """
        if self.module_mode or self.finfo is None:
            return
        if self.ctx.resolve(node.func) not in (
            "numpy.random.default_rng",
            "numpy.random.RandomState",
        ):
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        if all(isinstance(v, ast.Constant) for v in values):
            if self.default_rng_line is None:
                self.default_rng_line = node.lineno

    def _call_targets(
        self, func: ast.expr
    ) -> tuple[list[str], str | None]:
        """Resolve a call's target functions (and a referenced class)."""
        program, ctx = self.program, self.ctx
        if isinstance(func, ast.Name) and func.id in self.local_funcs:
            return list(self.local_funcs[func.id]), None
        if isinstance(func, ast.Subscript):
            return list(self._dispatch_targets(func)), None
        dotted = ctx.resolve(func)
        resolved = program.resolve(dotted, ctx.module)
        if resolved is not None:
            kind, qualname = resolved
            if kind == "func":
                return [qualname], None
            if kind == "class":
                init = program.method_in_hierarchy(qualname, "__init__")
                return ([init] if init else []), qualname
            return [], None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base, attr = func.value.id, func.attr
            if base in ("self", "cls") and self.finfo and self.finfo.cls:
                return program.method_targets(self.finfo.cls, attr), None
            if base in self.local_class:
                return program.method_targets(self.local_class[base], attr), None
        if isinstance(func, ast.Attribute):
            return list(program.methods_named(func.attr)), None
        return [], None

    def _rng_mode(self, node: ast.Call) -> str:
        for kw in node.keywords:
            if kw.arg is None or not _rng_like(kw.arg):
                continue
            value = kw.value
            if isinstance(value, ast.Constant) and value.value is None:
                return "none"
            if (
                isinstance(value, ast.Name)
                and self.finfo is not None
                and self.finfo.rng_param == value.id
            ):
                return "param"
            return "value"
        return "absent"

    def _record_ref(
        self, node: ast.Name | ast.Attribute, handlers: tuple[Handler, ...]
    ) -> None:
        dotted = self.ctx.dotted(node)
        if dotted is None:
            # e.g. attribute of a call result: look inside the value
            if isinstance(node, ast.Attribute):
                self._visit(node.value, handlers, None)
            return
        resolved = self.program.resolve(
            self.ctx.resolve(node), self.ctx.module
        )
        if resolved is None:
            return
        kind, qualname = resolved
        if kind in ("func", "class"):
            self._add_edge(node, qualname, "ref", None, handlers)

    def _add_edge(
        self,
        node: ast.AST,
        callee: str,
        kind: str,
        rng_mode: str | None,
        handlers: tuple[Handler, ...],
    ) -> None:
        if callee == self.caller:
            return  # self-recursion carries no new information
        self.edges.append(
            Edge(
                caller=self.caller,
                callee=callee,
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                kind=kind,
                rng_mode=rng_mode,
                handlers=handlers,
            )
        )