"""The static rule engine: scan sources, assign contexts, run the catalog.

The engine parses every module under the scanned roots (by default
``repro.schemas``, ``repro.algorithms``, ``repro.lower_bounds``) with
:mod:`ast` — the code under analysis is **never imported** — and builds a
:class:`~repro.analysis.rules.FunctionInfo` per function, including
nested ones.  Rules only fire in the *contexts* where the LOCAL contract
binds:

``view``
    the function takes a ``view`` parameter (or one annotated ``View``):
    it runs per node on a radius-T ball and must be a pure function of it;
``decode``
    an ``AdviceSchema.decode`` method — it legitimately receives the whole
    graph (the decoder is the distributed algorithm's *driver*), so LOC001
    does not apply, but determinism (LOC002) still does;
``order-invariant``
    the target of a ``mark_order_invariant(...)`` call — ORD001/ORD002
    apply on top of the view rules;
``view-helper`` / ``decode-helper``
    reached from one of the above through the same-module call graph, so
    contract obligations propagate to the helpers that do the actual work.

Complementing the pure-AST pass, :func:`inspect_callable` examines a live
function object (closure cells and ``__globals__``) for whole-graph
captures — this is what the dynamic cross-checker uses on registered
decoders, where the closures of factory-made functions are invisible to
static scanning.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rules import (
    GRAPH_LIKE_NAMES,
    RULES,
    FunctionInfo,
    Violation,
    check_function,
)

__all__ = [
    "DEFAULT_ROOTS",
    "LintReport",
    "ModuleScan",
    "apply_waiver_fixes",
    "inspect_callable",
    "run_lint",
    "scan_module",
    "source_root",
]

#: subpackages of ``repro`` holding LOCAL-contract code (the §9 one-bit
#: decode lives in ``advice``)
DEFAULT_ROOTS: Tuple[str, ...] = (
    "schemas",
    "algorithms",
    "lower_bounds",
    "advice",
)

_WAIVER_DECORATORS = {"lint_waiver", "uses_global_knowledge"}
_TIME_FUNCTIONS = {"monotonic", "perf_counter", "time", "time_ns"}


def source_root() -> Path:
    """The ``src`` directory this installation of ``repro`` lives in."""
    return Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Scanning one module
# ---------------------------------------------------------------------------


@dataclass
class MarkCall:
    """One ``mark_order_invariant(...)`` call site (an ORD claim)."""

    line: int
    target_name: Optional[str]  # None when the argument is not a plain name
    scope: Tuple[str, ...]  # qualnames of enclosing functions, outer first


@dataclass
class ModuleScan:
    """Everything the rule pass needs to know about one source file."""

    path: str
    module: str
    functions: List[FunctionInfo] = field(default_factory=list)
    parent_of: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    random_aliases: Set[str] = field(default_factory=set)
    time_aliases: Set[str] = field(default_factory=set)
    mark_calls: List[MarkCall] = field(default_factory=list)
    module_defs: Set[str] = field(default_factory=set)

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        for fn in self.functions:
            if fn.qualname == qualname:
                return fn
        return None

    def resolve(self, name: str, scope: Sequence[str]) -> Optional[FunctionInfo]:
        """Resolve a bare function name from an enclosing-scope chain."""
        for depth in range(len(scope), -1, -1):
            prefix = scope[depth - 1] + ".<locals>." if depth else ""
            fn = self.function(prefix + name)
            if fn is not None:
                return fn
        return None


class _Scanner(ast.NodeVisitor):
    def __init__(self, scan: ModuleScan) -> None:
        self.scan = scan
        self.scope: List[str] = []  # qualnames of enclosing functions
        self.class_stack: List[str] = []

    # -- imports: determine random/time aliases -----------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            bound = alias.asname or top
            if top == "random":
                self.scan.random_aliases.add(bound)
            elif top == "time":
                self.scan.time_aliases.add(bound)
            if not self.scope:
                self.scan.module_defs.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self.scan.random_aliases.add(bound)
            elif node.module == "time" and alias.name in _TIME_FUNCTIONS:
                self.scan.time_aliases.add(bound)
            if not self.scope:
                self.scan.module_defs.add(bound)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.scope:
            self.scan.module_defs.add(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    # -- functions -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _qualname(self, name: str) -> str:
        if self.scope:
            return self.scope[-1] + ".<locals>." + name
        if self.class_stack:
            return ".".join(self.class_stack) + "." + name
        return name

    def _handle_function(self, node: ast.AST) -> None:
        qualname = self._qualname(node.name)
        if not self.scope and not self.class_stack:
            self.scan.module_defs.add(node.name)
        info = _build_function_info(node, qualname, self.scan)
        self.scan.functions.append(info)
        # Recurse for nested defs / mark calls with the right scope.
        self.scope.append(qualname)
        saved_classes, self.class_stack = self.class_stack, []
        self.generic_visit(node)
        self.class_stack = saved_classes
        self.scope.pop()

    def visit_Call(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name == "mark_order_invariant" and node.args:
            arg = node.args[0]
            target = arg.id if isinstance(arg, ast.Name) else None
            self.scan.mark_calls.append(
                MarkCall(
                    line=node.lineno, target_name=target, scope=tuple(self.scope)
                )
            )
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.scan.parent_of[child] = node
        super().generic_visit(node)


def _own_nodes(fn_node: ast.AST):
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        if not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    params = [a.arg for a in getattr(args, "posonlyargs", [])]
    params += [a.arg for a in args.args]
    if args.vararg:
        params.append(args.vararg.arg)
    params += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _annotated_view_params(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    args = node.args
    for a in list(getattr(args, "posonlyargs", [])) + list(args.args):
        ann = a.annotation
        if isinstance(ann, ast.Constant):  # string annotation
            ann_name = str(ann.value).split(".")[-1].strip("'\"")
        elif isinstance(ann, ast.Name):
            ann_name = ann.id
        elif isinstance(ann, ast.Attribute):
            ann_name = ann.attr
        else:
            continue
        if ann_name == "View":
            names.add(a.arg)
    return names


def _extract_waivers(
    node: ast.AST,
) -> Tuple[Dict[str, str], List[int]]:
    waivers: Dict[str, str] = {}
    malformed: List[int] = []
    for dec in getattr(node, "decorator_list", []):
        name = None
        call = dec if isinstance(dec, ast.Call) else None
        target = dec.func if call is not None else dec
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name not in _WAIVER_DECORATORS:
            continue
        if call is None:  # bare @uses_global_knowledge with no reason
            malformed.append(dec.lineno)
            continue
        args = list(call.args)
        kwargs = {k.arg: k.value for k in call.keywords}
        if name == "uses_global_knowledge":
            rule = "LOC001"
            reason_node = args[0] if args else kwargs.get("reason")
        else:
            rule_node = args[0] if args else kwargs.get("rule")
            rule = (
                rule_node.value
                if isinstance(rule_node, ast.Constant)
                and isinstance(rule_node.value, str)
                else None
            )
            reason_node = args[1] if len(args) > 1 else kwargs.get("reason")
        reason = (
            reason_node.value
            if isinstance(reason_node, ast.Constant)
            and isinstance(reason_node.value, str)
            else ""
        )
        if rule and reason.strip():
            waivers[rule] = reason
        else:
            malformed.append(dec.lineno)
    return waivers, malformed


def _build_function_info(
    node: ast.AST, qualname: str, scan: ModuleScan
) -> FunctionInfo:
    params = _param_names(node)
    waivers, malformed = _extract_waivers(node)
    info = FunctionInfo(
        node=node,
        qualname=qualname,
        module=scan.module,
        path=scan.path,
        params=params,
        waivers=waivers,
        malformed_waiver_lines=malformed,
    )
    locals_: Set[str] = set(params)
    loads: Set[str] = set()
    for sub in _own_nodes(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load):
                loads.add(sub.id)
            else:
                locals_.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            locals_.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                locals_.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(sub, ast.Global):
            for name, ln in ((n, sub.lineno) for n in sub.names):
                info.global_decls.append((name, ln))
        elif isinstance(sub, ast.Nonlocal):
            for name, ln in ((n, sub.lineno) for n in sub.names):
                info.nonlocal_decls.append((name, ln))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            info.calls.add(sub.func.id)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "self"
        ):
            info.calls.add(sub.func.attr)  # method call: resolved in-class
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            locals_.add(sub.name)
    info.local_names = locals_
    import builtins

    info.free_names = {
        n
        for n in loads - locals_
        if not hasattr(builtins, n) and n not in scan.module_defs
    }
    if _annotated_view_params(node) or info.view_params:
        info.contexts.add("view")
    if node.name == "decode" and params[:1] == ["self"]:
        info.contexts.add("decode")
    return info


def scan_module(path: Path, module: str) -> ModuleScan:
    """Parse one source file into a :class:`ModuleScan` (no imports)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    scan = ModuleScan(path=str(path), module=module)
    # Two passes: module-level defs first so free-name analysis inside
    # functions can exclude them regardless of definition order.
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scan.module_defs.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                scan.module_defs.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    # ALL_CAPS module constants are conventional and safe;
                    # lowercase module state stays visible to LOC001/LOC003.
                    scan.module_defs.add(target.id)
    _Scanner(scan).visit(tree)
    return scan


# ---------------------------------------------------------------------------
# Context propagation and the lint entry point
# ---------------------------------------------------------------------------

_DERIVED = {
    "view": "view-helper",
    "view-helper": "view-helper",
    "decode": "decode-helper",
    "decode-helper": "decode-helper",
    "order-invariant": "order-invariant",
}


def _propagate_contexts(scan: ModuleScan) -> None:
    """Push contract obligations along the same-module call graph."""
    changed = True
    while changed:
        changed = False
        for fn in scan.functions:
            if not fn.contexts:
                continue
            parts = fn.qualname.split(".<locals>.")
            scope = tuple(
                ".<locals>.".join(parts[: i + 1]) for i in range(len(parts))
            )
            for callee_name in fn.calls:
                callee = scan.resolve(callee_name, scope)
                if callee is None and "." in parts[0]:
                    # self.method() from a method: resolve in the class
                    class_prefix = parts[0].rsplit(".", 1)[0]
                    callee = scan.function(class_prefix + "." + callee_name)
                if callee is None or callee is fn:
                    continue
                for ctx in fn.contexts:
                    derived = _DERIVED.get(ctx)
                    if derived and derived not in callee.contexts:
                        callee.contexts.add(derived)
                        changed = True


def _apply_mark_claims(
    scan: ModuleScan, checked_refs: Set[str]
) -> List[Violation]:
    """Resolve mark_order_invariant call sites; emit ORD002 when unchecked."""
    found: List[Violation] = []
    for call in scan.mark_calls:
        target: Optional[FunctionInfo] = None
        if call.target_name is not None:
            target = scan.resolve(call.target_name, call.scope)
        if target is None:
            found.append(
                Violation(
                    rule="ORD002",
                    message=(
                        "mark_order_invariant applied to an unresolvable "
                        "target — the claim cannot be registered for the "
                        "dynamic order-invariance check"
                    ),
                    path=scan.path,
                    line=call.line,
                    function=call.scope[-1] if call.scope else "<module>",
                )
            )
            continue
        target.contexts.add("order-invariant")
        ref = f"{scan.module}:{target.qualname}"
        if ref not in checked_refs:
            waived = "ORD002" in target.waivers
            found.append(
                Violation(
                    rule="ORD002",
                    message=(
                        f"order-invariance claim on {target.qualname!r} is "
                        f"not backed by the dynamic check — register "
                        f"{ref!r} in repro.analysis.fuzz."
                        "ORDER_INVARIANCE_CHECKED"
                    ),
                    path=scan.path,
                    line=call.line,
                    function=target.qualname,
                    context=",".join(sorted(target.contexts)),
                    waived=waived,
                    waiver_reason=target.waivers.get("ORD002", ""),
                    def_line=getattr(target.node, "lineno", call.line),
                    def_indent=getattr(target.node, "col_offset", 0),
                )
            )
    return found


@dataclass
class LintReport:
    """The outcome of one lint run over the scanned roots."""

    violations: List[Violation] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    functions_checked: int = 0

    @property
    def unwaived(self) -> List[Violation]:
        return [v for v in self.violations if not v.waived]

    @property
    def waived(self) -> List[Violation]:
        return [v for v in self.violations if v.waived]

    @property
    def exit_code(self) -> int:
        return 1 if self.unwaived else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "files_scanned": len(self.files),
            "functions_checked": self.functions_checked,
            "violations": [v.as_dict() for v in self.violations],
            "unwaived": len(self.unwaived),
            "waived": len(self.waived),
            "rules": {
                code: {"title": rule.title, "rationale": rule.rationale}
                for code, rule in sorted(RULES.items())
            },
            "ok": not self.unwaived,
        }

    def format_text(self, root: Optional[Path] = None) -> str:
        lines: List[str] = []

        def rel(path: str) -> str:
            if root is None:
                return path
            try:
                return str(Path(path).resolve().relative_to(root.resolve()))
            except ValueError:
                return path

        for v in sorted(
            self.unwaived, key=lambda v: (v.path, v.line, v.rule)
        ):
            lines.append(
                f"{rel(v.path)}:{v.line}: {v.rule} in {v.function}: {v.message}"
            )
        if self.waived:
            lines.append("")
            lines.append(f"waived ({len(self.waived)}):")
            for v in sorted(
                self.waived, key=lambda v: (v.path, v.line, v.rule)
            ):
                lines.append(
                    f"  {rel(v.path)}:{v.line}: {v.rule} in {v.function} "
                    f"— {v.waiver_reason}"
                )
        lines.append("")
        lines.append(
            f"{len(self.files)} files, {self.functions_checked} functions "
            f"checked: {len(self.unwaived)} violation(s), "
            f"{len(self.waived)} waived"
        )
        return "\n".join(lines)


def run_lint(
    src_root: Optional[Path] = None,
    roots: Sequence[str] = DEFAULT_ROOTS,
    checked_refs: Optional[Set[str]] = None,
) -> LintReport:
    """Scan the given ``repro`` subpackages and run the full rule catalog.

    ``checked_refs`` is the set of ``"module:qualname"`` references backed
    by the dynamic order-invariance check; it defaults to the keys of
    :data:`repro.analysis.fuzz.ORDER_INVARIANCE_CHECKED`.
    """
    if src_root is None:
        src_root = source_root()
    if checked_refs is None:
        from .fuzz import ORDER_INVARIANCE_CHECKED

        checked_refs = set(ORDER_INVARIANCE_CHECKED)
    report = LintReport()
    for root in roots:
        base = src_root / "repro" / root
        if base.is_file() or base.suffix == ".py":
            paths = [base if base.suffix == ".py" else base.with_suffix(".py")]
        else:
            paths = sorted(base.rglob("*.py"))
        for path in paths:
            rel = path.relative_to(src_root).with_suffix("")
            module = ".".join(rel.parts)
            scan = scan_module(path, module)
            report.files.append(str(path))
            report.violations.extend(_apply_mark_claims(scan, checked_refs))
            _propagate_contexts(scan)
            for fn in scan.functions:
                report.functions_checked += 1
                report.violations.extend(
                    check_function(
                        fn,
                        scan.parent_of,
                        scan.random_aliases,
                        scan.time_aliases,
                    )
                )
    return report


# ---------------------------------------------------------------------------
# Runtime inspection (closures / __globals__) for the dynamic pass
# ---------------------------------------------------------------------------


def inspect_callable(fn, name: Optional[str] = None) -> List[Violation]:
    """Check a *live* function object for whole-graph captures (LOC001).

    Factory-made decoders close over objects invisible to the static scan;
    here we look at the actual closure cells and the module globals the
    code object references.  A ``LocalGraph`` (or anything exposing the
    graph API) reachable that way widens the decoder's input beyond its
    view, unless declared via ``@uses_global_knowledge``.
    """
    inner = fn
    while hasattr(inner, "__wrapped__"):
        inner = inner.__wrapped__
    code = getattr(inner, "__code__", None)
    if code is None:
        return []
    label = name or getattr(fn, "__qualname__", getattr(fn, "__name__", "<fn>"))
    waivers = dict(getattr(fn, "_lint_waivers", {}))
    waivers.update(getattr(inner, "_lint_waivers", {}))
    module = getattr(inner, "__module__", "") or ""
    path = code.co_filename
    found: List[Violation] = []

    def looks_like_graph(obj: object) -> bool:
        return all(
            hasattr(obj, attr) for attr in ("nodes", "neighbors", "id_of", "n")
        )

    cells = dict(
        zip(code.co_freevars, getattr(inner, "__closure__", None) or ())
    )
    for var, cell in cells.items():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if looks_like_graph(value) or var in GRAPH_LIKE_NAMES:
            if not looks_like_graph(value):
                continue
            found.append(
                Violation(
                    rule="LOC001",
                    message=(
                        f"closure cell {var!r} holds a graph-like object "
                        f"({type(value).__name__}) — the decoder's output "
                        "can depend on state outside its view"
                    ),
                    path=path,
                    line=code.co_firstlineno,
                    function=label,
                    context="runtime",
                    waived="LOC001" in waivers,
                    waiver_reason=waivers.get("LOC001", ""),
                )
            )
    fn_globals = getattr(inner, "__globals__", {})
    for var in code.co_names:
        if var in fn_globals and looks_like_graph(fn_globals[var]):
            found.append(
                Violation(
                    rule="LOC001",
                    message=(
                        f"module global {var!r} referenced by the decoder "
                        f"holds a graph-like object in {module}"
                    ),
                    path=path,
                    line=code.co_firstlineno,
                    function=label,
                    context="runtime",
                    waived="LOC001" in waivers,
                    waiver_reason=waivers.get("LOC001", ""),
                )
            )
    return found


# ---------------------------------------------------------------------------
# --fix-waivers: insert TODO-justified waiver decorators
# ---------------------------------------------------------------------------

_LOC001_IMPORT = "from repro.local import uses_global_knowledge"
_GENERIC_IMPORT = "from repro.analysis import lint_waiver"


def apply_waiver_fixes(report: LintReport, dry_run: bool = False) -> List[str]:
    """Insert ``TODO``-justified waiver decorators above offending defs.

    Every unwaived violation with a known definition site gains a
    decorator — ``@uses_global_knowledge("TODO: ...")`` for LOC001,
    ``@lint_waiver("<rule>", "TODO: ...")`` otherwise — plus the import it
    needs.  The inserted justification deliberately fails code review
    until a human replaces the TODO; WVR001 findings are left alone (they
    need a reason, not another decorator).  Returns the edited paths.
    """
    by_path: Dict[str, Dict[Tuple[int, int], Set[str]]] = {}
    for v in report.unwaived:
        if v.rule == "WVR001" or not v.def_line or not RULES[v.rule].waivable:
            continue
        by_path.setdefault(v.path, {}).setdefault(
            (v.def_line, v.def_indent), set()
        ).add(v.rule)
    edited: List[str] = []
    for path, sites in by_path.items():
        text = Path(path).read_text()
        lines = text.splitlines(keepends=True)
        needs_loc001 = any("LOC001" in rules for rules in sites.values())
        needs_generic = any(rules - {"LOC001"} for rules in sites.values())
        for (def_line, indent), rules in sorted(sites.items(), reverse=True):
            pad = " " * indent
            decos = []
            for rule in sorted(rules):
                if rule == "LOC001":
                    decos.append(
                        f'{pad}@uses_global_knowledge("TODO: justify why '
                        f'this decoder needs global graph knowledge")\n'
                    )
                else:
                    decos.append(
                        f'{pad}@lint_waiver("{rule}", "TODO: justify this '
                        f'{rule} exemption")\n'
                    )
            lines[def_line - 1 : def_line - 1] = decos
        insert_at = _import_insert_line(text)
        imports = []
        if needs_generic and _GENERIC_IMPORT not in text:
            imports.append(_GENERIC_IMPORT + "\n")
        if needs_loc001 and _LOC001_IMPORT not in text and (
            "uses_global_knowledge" not in text.split("\n", 1)[0]
        ):
            if "import uses_global_knowledge" not in text:
                imports.append(_LOC001_IMPORT + "\n")
        lines[insert_at:insert_at] = imports
        if not dry_run:
            Path(path).write_text("".join(lines))
        edited.append(path)
    return edited


def _import_insert_line(text: str) -> int:
    """Line index (0-based) after the last top-level import."""
    tree = ast.parse(text)
    last = 0
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            last = stmt.end_lineno or stmt.lineno
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            last = max(last, stmt.end_lineno or stmt.lineno)  # docstring
        elif last:
            break
    return last
