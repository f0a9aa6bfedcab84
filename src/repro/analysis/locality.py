"""Locality certifier: static T/beta inference with a dynamic witness.

The paper's central quantities — the decode radius ``T`` and the per-node
advice length ``beta`` (Definition 3.2) — are *declared* by each schema
through :meth:`repro.advice.schema.AdviceSchema.locality_contract`.  This
module turns the declaration into a checked property:

* a **static pass** (:func:`infer_static_bounds`) abstractly interprets the
  decoder and encoder ASTs, giving every radius-charging construct
  (``LocalityTracker.charge``, ``tracker.ball/sphere/ball_subgraph``,
  ``run_view_algorithm``, ``gather_view``/``gather_all_views``, live-graph
  ball calls, sub-schema ``decode``) a hop-cost transfer function and every
  bit-producing construct (``int_to_bits``, ``pack_parts``,
  ``encode_paths``, string literals and concatenation) a bit-cost transfer
  function, and emits conservative upper bounds on both quantities;
* a **dynamic pass** (:func:`dynamic_witness`) runs the schema on a
  standard instance under the access-shadowing recorder of
  :mod:`repro.local.views` (:func:`record_locality_witness` +
  :class:`RecordingAdviceMap`), producing a *tight witness*: the deepest
  view layer and the longest per-node advice string actually touched;
* :func:`certify_schema` fuses the two into a frozen
  :class:`LocalityCertificate` and emits ``LOC101`` (radius exceeds
  contract / static-declared disagreement), ``LOC102`` (advice budget) and
  ``LOC103`` (statically unbounded traversal) findings when the chain
  ``witness <= static == declared`` breaks.

The interpreter is deliberately *partial*: anything it cannot bound
evaluates to :data:`UNKNOWN`, which surfaces as ``LOC103``/``LOC102``
unless the schema supplies an auditable bound through
:func:`repro.advice.schema.locality_hints`.  Hints are part of the
declared surface — they appear in the certificate — so a wrong hint is a
contract violation caught by the witness check, not a silent hole.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import sys
import textwrap
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..advice.bitstream import int_to_bits as _int_to_bits
from ..advice.bitstream import pack_parts as _pack_parts
from ..advice.bitstream import unpack_parts as _unpack_parts
from ..advice.onebit import encode_paths as _encode_paths
from ..advice.schema import AdviceSchema, DecodeResult, LocalityContract, OracleSchema
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph
from ..local.model import run_view_algorithm as _run_view_algorithm
from ..local.views import (
    RecordingAdviceMap,
    gather_all_views as _gather_all_views,
    gather_view as _gather_view,
    record_locality_witness,
)
from .rules import Violation

__all__ = [
    "LocalityCertificate",
    "SourceChangedError",
    "StaticBounds",
    "certify_all",
    "certify_main",
    "certify_schema",
    "dynamic_witness",
    "infer_static_bounds",
]

#: Recursion guard for sub-schema decode/encode inference.
_MAX_DEPTH = 12


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class _UnknownType:
    """Bottom of the bound lattice: no statically known bound."""

    _instance: "Optional[_UnknownType]" = None

    def __new__(cls) -> "_UnknownType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _UnknownType()


class SourceChangedError(Exception):
    """The source file no longer holds the function that was imported.

    The static pass parses ``inspect.getsource``, which reads the file on
    disk at the imported function's first line.  After the module is
    edited, those lines belong to other code, and any bound inferred from
    them would describe that code instead.
    """


class _Abstract:
    """Marker base: values the interpreter made up (never live-callable)."""


class _StrBits(_Abstract):
    """A bit-string of statically bounded length (``bits`` may be None)."""

    __slots__ = ("bits",)

    def __init__(self, bits: Optional[int]) -> None:
        self.bits = bits

    def __repr__(self) -> str:
        return f"StrBits({self.bits})"


class _MapAbs(_Abstract):
    """An advice-like mapping whose values are bit-strings of bounded length."""

    __slots__ = ("bits",)

    def __init__(self, bits: Optional[int]) -> None:
        self.bits = bits

    def join(self, other_bits: Optional[int]) -> None:
        if self.bits is None or other_bits is None:
            self.bits = None if (self.bits is None and other_bits is None) else (
                self.bits if other_bits is None else other_bits
            )
            # A join with an unboundable value poisons the map.
            if other_bits is None:
                self.bits = None
        else:
            self.bits = max(self.bits, other_bits)

    def __repr__(self) -> str:
        return f"MapAbs({self.bits})"


class _ListAbs(_Abstract):
    """A list literal / accumulator whose element bounds we track."""

    __slots__ = ("items",)

    def __init__(self, items: Optional[List[object]] = None) -> None:
        self.items: List[object] = list(items or [])

    def __repr__(self) -> str:
        return f"ListAbs({self.items!r})"


class _SchemaAbs(_Abstract):
    """A live schema instance seen through the abstract layer."""

    __slots__ = ("instance",)

    def __init__(self, instance: object) -> None:
        self.instance = instance

    def __repr__(self) -> str:
        return f"SchemaAbs({type(self.instance).__name__})"


class _ResultAbs(_Abstract):
    """A :class:`DecodeResult` with a bounded round count."""

    __slots__ = ("rounds",)

    def __init__(self, rounds: Optional[int]) -> None:
        self.rounds = rounds

    def __repr__(self) -> str:
        return f"ResultAbs({self.rounds})"


class _TrackerAbs(_Abstract):
    """The decoder's :class:`LocalityTracker`; all charges become sites."""

    __slots__ = ("analyzer",)

    def __init__(self, analyzer: "_Analyzer") -> None:
        self.analyzer = analyzer


class _LayoutAbs(_Abstract):
    """An :class:`OneBitLayout` — ``.bits`` maps every node to one bit."""

    __slots__ = ()


class _RangeAbs(_Abstract):
    """A ``range(...)`` value with statically bounded trip count."""

    __slots__ = ("trips", "last")

    def __init__(self, trips: Optional[int], last: Optional[int]) -> None:
        self.trips = trips
        self.last = last


class _MethodAbs(_Abstract):
    """A method reference on an abstract receiver, resolved at call time."""

    __slots__ = ("kind", "owner", "name")

    def __init__(self, kind: str, owner: object, name: str) -> None:
        self.kind = kind  # "tracker" | "map" | "list" | "graph" | "live"
        self.owner = owner
        self.name = name


#: Data types a live call may receive/return without wrapping.
_SCALARS = (int, str, bool, float, bytes, type(None))


def _is_live(value: object) -> bool:
    return value is not UNKNOWN and not isinstance(value, _Abstract)


def _int_bound(value: object) -> Optional[int]:
    """Upper bound of a value used as a non-negative int, or None."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    return None


def _bits_bound(value: object) -> Optional[int]:
    """Upper bound on the bit-length of a value used as a bit-string."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, _StrBits):
        return value.bits
    return None


def _join(a: object, b: object) -> object:
    """Least upper bound of two abstract values (control-flow merge)."""
    if a is b:
        return a
    if isinstance(a, bool) or isinstance(b, bool):
        a = int(a) if isinstance(a, bool) else a
        b = int(b) if isinstance(b, bool) else b
    if isinstance(a, int) and isinstance(b, int):
        return max(a, b)
    ab, bb = _bits_bound(a), _bits_bound(b)
    if ab is not None and bb is not None:
        return _StrBits(max(ab, bb))
    if isinstance(a, _ResultAbs) and isinstance(b, _ResultAbs):
        if a.rounds is None or b.rounds is None:
            return _ResultAbs(None)
        return _ResultAbs(max(a.rounds, b.rounds))
    if isinstance(a, _MapAbs) and isinstance(b, _MapAbs):
        if a.bits is None or b.bits is None:
            return _MapAbs(None)
        return _MapAbs(max(a.bits, b.bits))
    if _is_live(a) and _is_live(b) and type(a) is type(b):
        try:
            if a == b:
                return a
        except Exception:
            pass
    return UNKNOWN


def _same(a: object, b: object) -> bool:
    """Fixpoint equality between two snapshots of the same variable."""
    if a is b:
        return True
    if isinstance(a, _StrBits) and isinstance(b, _StrBits):
        return a.bits == b.bits
    if isinstance(a, _ResultAbs) and isinstance(b, _ResultAbs):
        return a.rounds == b.rounds
    if _is_live(a) and _is_live(b) and type(a) is type(b):
        try:
            return bool(a == b)
        except Exception:
            return False
    return False


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------


#: ``(id(schema), "decode" | "encode") -> (schema, bound)``.  Each entry
#: holds its schema, so no key's id can be reused while the memo lives:
#: decoders build temporary sub-schemas, and a freed one's address would
#: otherwise hand a new schema its stale bound.
_Memo = Dict[Tuple[int, str], Tuple[object, Optional[int]]]


class _Analyzer:
    """Abstract interpreter over one schema's decode/encode functions.

    One instance analyzes one (schema, graph) pair; sub-schema calls
    recurse through :func:`_infer_radius` / :func:`_infer_bits` with a
    shared memo table so composed pipelines stay linear.
    """

    def __init__(
        self,
        schema: object,
        graph: LocalGraph,
        memo: _Memo,
        depth: int = 0,
    ) -> None:
        self.schema = schema
        self.graph = graph
        self.memo = memo
        self.depth = depth
        self.sites: List[Optional[int]] = []
        self.hints: Dict[str, object] = {}
        self._hint_cache: Dict[str, Optional[int]] = {}
        self._aug_frames: List[Dict[str, List[Optional[int]]]] = []

    # -- hints ------------------------------------------------------------

    def _hint(self, name: str) -> Optional[int]:
        if name not in self.hints:
            return None
        if name not in self._hint_cache:
            spec = self.hints[name]
            value: Optional[int]
            try:
                if callable(spec):
                    value = int(spec(self.schema, self.graph))  # type: ignore[call-arg]
                else:
                    value = int(getattr(self.schema, str(spec))(self.graph))
            except Exception:
                value = None
            self._hint_cache[name] = value
        return self._hint_cache[name]

    def _with_hint(self, name: str, value: object) -> object:
        """Apply a name hint when an assignment evaluates to UNKNOWN."""
        if value is UNKNOWN:
            bound = self._hint(name)
            if bound is not None:
                return bound
        return value

    # -- radius sites -----------------------------------------------------

    def site(self, value: object) -> None:
        self.sites.append(_int_bound(value))

    def current_rounds(self) -> object:
        if not self.sites:
            return 0
        if any(s is None for s in self.sites):
            return UNKNOWN
        return max(s for s in self.sites if s is not None)

    # -- function driver --------------------------------------------------

    def run_function(self, fn: Callable[..., object], args: List[object]) -> object:
        """Abstractly execute ``fn`` with ``args`` bound positionally."""
        raw = inspect.unwrap(fn)
        func = getattr(raw, "__func__", raw)
        self.hints = dict(getattr(func, "_locality_hints", {}))
        self._hint_cache = {}
        try:
            source = textwrap.dedent(inspect.getsource(func))
            tree = ast.parse(source)
        except (OSError, TypeError, SyntaxError):
            return UNKNOWN
        fn_node = tree.body[0]
        if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return UNKNOWN
        if fn_node.name != func.__name__:
            path, line, name = _fn_location(func)
            raise SourceChangedError(
                f"source of {name} changed since import: {path}:{line} now "
                f"defines {fn_node.name!r}; certify in a fresh process"
            )
        env: Dict[str, object] = {}
        params = [a.arg for a in fn_node.args.args]
        defaults = fn_node.args.defaults
        # Bind declared defaults first (abstractly), then the actual args.
        for name, default in zip(params[len(params) - len(defaults):], defaults):
            env[name] = self.eval(default, env)
        for name, value in zip(params, args):
            env[name] = value
        for name in params:
            env.setdefault(name, UNKNOWN)
        self._globals = getattr(func, "__globals__", {})
        returns: List[object] = []
        self.exec_block(fn_node.body, env, returns)
        if not returns:
            return None
        result = returns[0]
        for other in returns[1:]:
            result = _join(result, other)
        return result

    # -- statements -------------------------------------------------------

    def exec_block(
        self, body: Sequence[ast.stmt], env: Dict[str, object], returns: List[object]
    ) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env, returns)

    def exec_stmt(
        self, stmt: ast.stmt, env: Dict[str, object], returns: List[object]
    ) -> None:
        if isinstance(stmt, ast.Return):
            returns.append(
                self.eval(stmt.value, env) if stmt.value is not None else None
            )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value_node = stmt.value
            if value_node is None:
                return
            value = self.eval(value_node, env)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                self.assign(target, value, env)
        elif isinstance(stmt, ast.AugAssign):
            self.aug_assign(stmt, env)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt, env, returns)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt, env, returns)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt, env, returns)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, UNKNOWN, env)
            self.exec_block(stmt.body, env, returns)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, env, returns)
            for handler in stmt.handlers:
                branch = dict(env)
                self.exec_block(handler.body, branch, returns)
                self.merge_env(env, branch)
            self.exec_block(stmt.orelse, env, returns)
            self.exec_block(stmt.finalbody, env, returns)
        # Raise/Assert/Pass/Break/Continue/FunctionDef/Import/...: no-op.
        # Ignoring Break/Continue only widens loop bounds (sound: max/sum
        # over-approximation); nested defs are per-node deciders analyzed
        # through their enclosing call sites (run_view_algorithm).

    def assign(self, target: ast.expr, value: object, env: Dict[str, object]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = self._with_hint(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts: Optional[Sequence[object]] = None
            if isinstance(value, tuple) and len(value) == len(target.elts):
                parts = value
            for i, elt in enumerate(target.elts):
                self.assign(elt, parts[i] if parts is not None else UNKNOWN, env)
        elif isinstance(target, ast.Subscript):
            obj = self.eval(target.value, env)
            if isinstance(obj, _MapAbs):
                obj.join(_bits_bound(value))
            # Never mutate live containers from the abstract layer.
        # Attribute targets (self.x = ...) are ignored: decode/encode are
        # certified as functions of (graph, advice), not stateful setters.

    def aug_assign(self, stmt: ast.AugAssign, env: Dict[str, object]) -> None:
        delta = self.eval(stmt.value, env)
        if not isinstance(stmt.target, ast.Name):
            if isinstance(stmt.target, ast.Subscript):
                obj = self.eval(stmt.target.value, env)
                if isinstance(obj, _MapAbs):
                    obj.join(None)
            return
        name = stmt.target.id
        if self._aug_frames and isinstance(stmt.op, ast.Add):
            self._aug_frames[-1].setdefault(name, []).append(_int_bound(delta))
        current = env.get(name, UNKNOWN)
        if isinstance(stmt.op, ast.Add):
            env[name] = self.binop_add(current, delta)
        else:
            env[name] = UNKNOWN

    def exec_if(
        self, stmt: ast.If, env: Dict[str, object], returns: List[object]
    ) -> None:
        test = self.eval(stmt.test, env)
        if isinstance(test, bool) or (
            _is_live(test) and isinstance(test, _SCALARS)
        ):
            branch = stmt.body if test else stmt.orelse
            self.exec_block(branch, env, returns)
            return
        then_env = dict(env)
        self.exec_block(stmt.body, then_env, returns)
        else_env = dict(env)
        self.exec_block(stmt.orelse, else_env, returns)
        env.clear()
        env.update(then_env)
        self.merge_env(env, else_env)

    def merge_env(self, env: Dict[str, object], other: Dict[str, object]) -> None:
        for key in sorted(set(env) | set(other)):
            if key in env and key in other:
                joined = (
                    env[key] if _same(env[key], other[key]) else _join(env[key], other[key])
                )
                env[key] = self._with_hint(key, joined)
            else:
                env[key] = self._with_hint(key, UNKNOWN)

    # -- loops ------------------------------------------------------------

    def exec_for(
        self, stmt: ast.For, env: Dict[str, object], returns: List[object]
    ) -> None:
        iterable = self.eval(stmt.iter, env)
        trips: Optional[int] = None
        target_value: object = UNKNOWN
        if isinstance(iterable, _RangeAbs):
            trips = iterable.trips
            if iterable.last is not None:
                target_value = iterable.last
        elif _is_live(iterable) and isinstance(iterable, (list, tuple, set, frozenset, dict)):
            trips = len(iterable)
        if trips == 0:
            self.exec_block(stmt.orelse, env, returns)
            return
        self.assign(stmt.target, target_value, env)
        self.run_loop_body(stmt.body, env, returns, trips)
        self.exec_block(stmt.orelse, env, returns)

    def exec_while(
        self, stmt: ast.While, env: Dict[str, object], returns: List[object]
    ) -> None:
        pinned: Optional[str] = None
        # Widen the canonical counter loop: `while NAME < BOUND:` binds
        # NAME to the bound, which is its max value on loop exit.
        test = stmt.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Lt, ast.LtE))
            and isinstance(test.left, ast.Name)
        ):
            bound = self.eval(test.comparators[0], env)
            if _int_bound(bound) is not None:
                pinned = test.left.id
                env[pinned] = _int_bound(bound)
        self.run_loop_body(stmt.body, env, returns, trips=None, pinned=pinned)
        self.exec_block(stmt.orelse, env, returns)

    def run_loop_body(
        self,
        body: Sequence[ast.stmt],
        env: Dict[str, object],
        returns: List[object],
        trips: Optional[int],
        pinned: Optional[str] = None,
    ) -> None:
        """Two-pass loop abstraction.

        Pass 1 records ``name += delta`` accumulators; pass 2 checks the
        remaining writes for a fixpoint.  Accumulators with a known trip
        count get ``base + trips * sum(deltas)``; everything that neither
        accumulates nor stabilizes widens to UNKNOWN (then name hints).
        """
        before = dict(env)
        self._aug_frames.append({})
        self.exec_block(body, env, returns)
        augs = self._aug_frames.pop()
        after1 = dict(env)
        self._aug_frames.append({})
        self.exec_block(body, env, returns)
        self._aug_frames.pop()
        after2 = dict(env)
        for name in sorted(set(after2) | set(before)):
            if name == pinned:
                env[name] = before.get(name, UNKNOWN)
                continue
            base = before.get(name, UNKNOWN)
            final = after2.get(name, UNKNOWN)
            if _same(base, final):
                env[name] = base
            elif name in augs:
                deltas = augs[name]
                base_bound = _int_bound(base)
                if (
                    trips is not None
                    and base_bound is not None
                    and all(d is not None for d in deltas)
                ):
                    env[name] = base_bound + trips * sum(
                        d for d in deltas if d is not None
                    )
                else:
                    env[name] = self._with_hint(name, UNKNOWN)
            elif _same(after1.get(name, UNKNOWN), final):
                env[name] = final
            else:
                env[name] = self._with_hint(name, UNKNOWN)

    # -- expressions ------------------------------------------------------

    def eval(self, node: ast.expr, env: Dict[str, object]) -> object:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self._globals:
                return self._globals[node.id]
            builtin = getattr(__import__("builtins"), node.id, UNKNOWN)
            return builtin if builtin is not UNKNOWN else UNKNOWN
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return self.eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.eval_unaryop(node, env)
        if isinstance(node, ast.BoolOp):
            return self.eval_boolop(node, env)
        if isinstance(node, ast.Compare):
            return self.eval_compare(node, env)
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test, env)
            if isinstance(test, _SCALARS) and _is_live(test):
                return self.eval(node.body if test else node.orelse, env)
            return _join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(node, env)
        if isinstance(node, (ast.List, ast.Tuple)):
            items = [self.eval(elt, env) for elt in node.elts]
            if isinstance(node, ast.Tuple):
                return tuple(items) if all(_is_live(i) for i in items) else UNKNOWN
            return _ListAbs(items)
        if isinstance(node, ast.Dict):
            bits: Optional[int] = 0
            for value_node in node.values:
                if value_node is None:
                    bits = None
                    continue
                vb = _bits_bound(self.eval(value_node, env))
                bits = None if (bits is None or vb is None) else max(bits, vb)
            return _MapAbs(bits if node.values else 0)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for gen in node.generators:
                self.eval(gen.iter, comp_env)
                self.assign(gen.target, UNKNOWN, comp_env)
            value = self.eval(node.value, comp_env)
            return _MapAbs(_bits_bound(value))
        if isinstance(node, ast.JoinedStr):
            return _StrBits(None)
        # ListComp/SetComp/GeneratorExp/Lambda/Starred/...: unbounded.
        return UNKNOWN

    def eval_attribute(self, node: ast.Attribute, env: Dict[str, object]) -> object:
        obj = self.eval(node.value, env)
        name = node.attr
        if obj is UNKNOWN:
            return UNKNOWN
        if isinstance(obj, _TrackerAbs):
            if name == "graph":
                return self.graph
            if name == "rounds":
                return self.current_rounds()
            if name == "max_degree":
                return self.graph.max_degree
            if name == "n":
                return self.graph.n
            return _MethodAbs("tracker", obj, name)
        if isinstance(obj, _ResultAbs):
            if name == "rounds":
                return obj.rounds if obj.rounds is not None else UNKNOWN
            return UNKNOWN
        if isinstance(obj, _MapAbs):
            return _MethodAbs("map", obj, name)
        if isinstance(obj, _ListAbs):
            return _MethodAbs("list", obj, name)
        if isinstance(obj, _LayoutAbs):
            if name == "bits":
                return _MapAbs(1)
            return UNKNOWN
        if isinstance(obj, _SchemaAbs):
            return self.wrap_live_attr(obj.instance, name)
        if isinstance(obj, _StrBits):
            return UNKNOWN
        if _is_live(obj):
            if isinstance(obj, LocalGraph) and name in (
                "ball",
                "sphere",
                "ball_subgraph",
            ):
                return _MethodAbs("graph", obj, name)
            return self.wrap_live_attr(obj, name)
        return UNKNOWN

    def wrap_live_attr(self, obj: object, name: str) -> object:
        try:
            value = getattr(obj, name)
        except Exception:
            return UNKNOWN
        if isinstance(value, (AdviceSchema, OracleSchema)):
            return _SchemaAbs(value)
        if callable(value) and not isinstance(value, type):
            return _MethodAbs("live", obj, name)
        if isinstance(value, _SCALARS) or isinstance(value, type):
            return value
        return value  # live data object (problem, tracer=None, dict, ...)

    def eval_subscript(self, node: ast.Subscript, env: Dict[str, object]) -> object:
        obj = self.eval(node.value, env)
        key = self.eval(node.slice, env)
        if isinstance(obj, _MapAbs):
            return _StrBits(obj.bits) if obj.bits is not None else UNKNOWN
        if isinstance(obj, _ListAbs) and isinstance(key, int):
            if 0 <= key < len(obj.items):
                return obj.items[key]
            return UNKNOWN
        if _is_live(obj) and _is_live(key) and isinstance(obj, (dict, list, tuple, str)):
            try:
                return obj[key]  # type: ignore[index]
            except Exception:
                return UNKNOWN
        return UNKNOWN

    def eval_binop(self, node: ast.BinOp, env: Dict[str, object]) -> object:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return self.binop_add(left, right)
        lb, rb = _int_bound(left), _int_bound(right)
        if lb is not None and rb is not None:
            try:
                if isinstance(node.op, ast.Sub):
                    return lb - rb
                if isinstance(node.op, ast.Mult):
                    return lb * rb
                if isinstance(node.op, ast.FloorDiv):
                    return lb // rb
                if isinstance(node.op, ast.Mod):
                    return lb % rb
                if isinstance(node.op, ast.Pow):
                    return lb ** rb
            except Exception:
                return UNKNOWN
        if isinstance(node.op, ast.Mult):
            # "0" * width — a repeated bit-string with a concrete count.
            sb = _bits_bound(left)
            if sb is not None and rb is not None:
                return _StrBits(sb * rb)
            sb = _bits_bound(right)
            if sb is not None and lb is not None:
                return _StrBits(sb * lb)
        return UNKNOWN

    def binop_add(self, left: object, right: object) -> object:
        lb, rb = _int_bound(left), _int_bound(right)
        if lb is not None and rb is not None:
            return lb + rb
        lbits, rbits = _bits_bound(left), _bits_bound(right)
        if lbits is not None and rbits is not None:
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return _StrBits(lbits + rbits)
        return UNKNOWN

    def eval_unaryop(self, node: ast.UnaryOp, env: Dict[str, object]) -> object:
        value = self.eval(node.operand, env)
        if isinstance(node.op, ast.USub) and isinstance(value, int):
            return -value
        if isinstance(node.op, ast.Not) and _is_live(value) and isinstance(value, _SCALARS):
            return not value
        return UNKNOWN

    def eval_boolop(self, node: ast.BoolOp, env: Dict[str, object]) -> object:
        values = [self.eval(v, env) for v in node.values]
        if all(_is_live(v) and isinstance(v, _SCALARS) for v in values):
            if isinstance(node.op, ast.And):
                result: object = True
                for v in values:
                    result = v
                    if not v:
                        break
                return result
            result = False
            for v in values:
                result = v
                if v:
                    break
            return result
        # `a or ""`-style bit-string joins stay bounded.
        bits = [_bits_bound(v) for v in values]
        if all(b is not None for b in bits):
            return _StrBits(max(b for b in bits if b is not None))
        return UNKNOWN

    def eval_compare(self, node: ast.Compare, env: Dict[str, object]) -> object:
        left = self.eval(node.left, env)
        comparators = [self.eval(c, env) for c in node.comparators]
        if not (_is_live(left) and all(_is_live(c) for c in comparators)):
            return UNKNOWN
        try:
            current = left
            for op, right in zip(node.ops, comparators):
                if isinstance(op, ast.Lt):
                    ok = current < right  # type: ignore[operator]
                elif isinstance(op, ast.LtE):
                    ok = current <= right  # type: ignore[operator]
                elif isinstance(op, ast.Gt):
                    ok = current > right  # type: ignore[operator]
                elif isinstance(op, ast.GtE):
                    ok = current >= right  # type: ignore[operator]
                elif isinstance(op, ast.Eq):
                    ok = current == right
                elif isinstance(op, ast.NotEq):
                    ok = current != right
                elif isinstance(op, ast.In):
                    ok = current in right  # type: ignore[operator]
                elif isinstance(op, ast.NotIn):
                    ok = current not in right  # type: ignore[operator]
                else:
                    return UNKNOWN
                if not ok:
                    return False
                current = right
            return True
        except Exception:
            return UNKNOWN

    # -- calls ------------------------------------------------------------

    def eval_call(self, node: ast.Call, env: Dict[str, object]) -> object:
        func = self.eval(node.func, env)
        args = [self.eval(a, env) for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {
            kw.arg: self.eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }
        if isinstance(func, _MethodAbs):
            return self.call_method(func, args, kwargs)
        if func is UNKNOWN:
            return UNKNOWN
        return self.call_live(func, args, kwargs)

    def call_method(
        self,
        method: _MethodAbs,
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        name = method.name
        if method.kind == "tracker":
            if name == "charge" and args:
                self.site(args[0])
                return None
            if name in ("ball", "sphere", "ball_subgraph"):
                self.site(args[1] if len(args) > 1 else kwargs.get("radius", UNKNOWN))
                return UNKNOWN
            if name == "neighbors":
                self.site(1)
                return UNKNOWN
            return UNKNOWN
        if method.kind == "graph":
            # Live-graph ball calls inside a decoder are hops too.
            self.site(args[1] if len(args) > 1 else kwargs.get("radius", UNKNOWN))
            return UNKNOWN
        if method.kind == "map":
            owner = method.owner
            assert isinstance(owner, _MapAbs)
            if name == "get":
                base: object = (
                    _StrBits(owner.bits) if owner.bits is not None else UNKNOWN
                )
                if len(args) > 1:
                    return _join(base, args[1])
                return base
            return UNKNOWN
        if method.kind == "list":
            owner_list = method.owner
            assert isinstance(owner_list, _ListAbs)
            if name == "append" and args:
                owner_list.items.append(args[0])
                return None
            return UNKNOWN
        return self.call_live_method(method.owner, name, args, kwargs)

    def call_live_method(
        self,
        owner: object,
        name: str,
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        try:
            fn = getattr(owner, name)
        except Exception:
            return UNKNOWN
        # A helper that receives the tracker is part of the decoder: recurse
        # into its AST with the abstract arguments bound.
        if any(isinstance(a, _TrackerAbs) for a in args):
            return self.recurse_helper(fn, args, bound_self=owner)
        if isinstance(owner, (AdviceSchema, OracleSchema)):
            if name == "decode":
                sub_graph = args[0] if args and isinstance(args[0], LocalGraph) else self.graph
                rounds = _infer_radius(owner, sub_graph, self.memo, self.depth + 1)
                self.sites.append(rounds)
                return _ResultAbs(rounds)
            if name in ("encode", "encode_labeled"):
                sub_graph = args[0] if args and isinstance(args[0], LocalGraph) else self.graph
                advice = _MapAbs(_infer_bits(owner, sub_graph, self.memo, self.depth + 1))
                # encode_labeled returns encode's advice plus a labeling.
                return advice if name == "encode" else (advice, UNKNOWN)
            if all(_is_live(a) for a in args) and all(
                _is_live(v) for v in kwargs.values()
            ):
                return self.safe_live_call(fn, args, kwargs)
            return UNKNOWN
        if isinstance(owner, LocalGraph) and name in ("nodes", "edges", "degree", "id_of", "input_of", "neighbors"):
            if all(_is_live(a) for a in args):
                return self.safe_live_call(fn, args, kwargs)
            return UNKNOWN
        if isinstance(owner, (str, int, bytes, tuple, frozenset)):
            if all(_is_live(a) for a in args) and all(
                _is_live(v) for v in kwargs.values()
            ):
                return self.safe_live_call(fn, args, kwargs)
        return UNKNOWN

    def safe_live_call(
        self,
        fn: Callable[..., object],
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        try:
            result = fn(*args, **kwargs)
        except Exception:
            return UNKNOWN
        if isinstance(result, (AdviceSchema, OracleSchema)):
            return _SchemaAbs(result)
        return result

    def recurse_helper(
        self,
        fn: Callable[..., object],
        args: List[object],
        bound_self: Optional[object] = None,
    ) -> object:
        if self.depth >= _MAX_DEPTH:
            return UNKNOWN
        sub = _Analyzer(self.schema, self.graph, self.memo, self.depth + 1)
        sub.sites = self.sites  # shared: helper charges are decoder charges
        raw = inspect.unwrap(fn)
        func = getattr(raw, "__func__", raw)
        call_args = list(args)
        if getattr(raw, "__self__", None) is not None:
            call_args = [
                _SchemaAbs(bound_self)
                if isinstance(bound_self, (AdviceSchema, OracleSchema))
                else bound_self
            ] + call_args
        saved_hints = (self.hints, self._hint_cache)
        result = sub.run_function(func, call_args)
        self.hints, self._hint_cache = saved_hints
        return result

    def call_live(
        self,
        func: object,
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        # Transfer functions for the known locality-bearing callables.
        if func is _run_view_algorithm:
            self.site(args[1] if len(args) > 1 else kwargs.get("radius", UNKNOWN))
            return UNKNOWN
        if func is _gather_view:
            self.site(args[2] if len(args) > 2 else kwargs.get("radius", UNKNOWN))
            return UNKNOWN
        if func is _gather_all_views:
            self.site(args[1] if len(args) > 1 else kwargs.get("radius", UNKNOWN))
            return UNKNOWN
        if func is _int_to_bits:
            width = args[1] if len(args) > 1 else kwargs.get("width")
            if all(_is_live(a) for a in args) and _is_live(width or 0):
                try:
                    return _int_to_bits(*args, **kwargs)  # type: ignore[arg-type]
                except Exception:
                    return UNKNOWN
            wb = _int_bound(width) if width is not None else None
            return _StrBits(wb) if wb is not None else UNKNOWN
        if func is _pack_parts:
            parts = args[0] if args else UNKNOWN
            items: Optional[List[object]] = None
            if isinstance(parts, _ListAbs):
                items = parts.items
            elif _is_live(parts) and isinstance(parts, (list, tuple)):
                items = list(parts)
            if items is not None:
                bounds = [_bits_bound(item) for item in items]
                if all(b is not None for b in bounds):
                    return _StrBits(sum(2 * b + 1 for b in bounds if b is not None))
            return UNKNOWN
        if func is _unpack_parts:
            return UNKNOWN
        if func is _encode_paths:
            return _LayoutAbs()
        builtin = self.call_builtin(func, args, kwargs)
        if builtin is not NotImplemented:
            return builtin
        if isinstance(func, type):
            return self.call_class(func, args, kwargs)
        if callable(func) and any(isinstance(a, _TrackerAbs) for a in args):
            return self.recurse_helper(func, args)
        # Pure arithmetic helpers (e.g. ``_color_width(delta)``): a plain
        # function whose every argument is a concrete int is safe to fold.
        if (
            inspect.isfunction(func)
            and args
            and all(isinstance(a, (int, bool)) for a in args)
            and all(isinstance(v, (int, bool)) for v in kwargs.values())
        ):
            return self.safe_live_call(func, args, kwargs)
        return UNKNOWN

    def call_class(
        self,
        cls: type,
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        if cls is DecodeResult:
            rounds = kwargs.get("rounds", args[1] if len(args) > 1 else 0)
            return _ResultAbs(_int_bound(rounds))
        if cls is LocalityTracker:
            return _TrackerAbs(self)
        if issubclass(cls, (AdviceSchema, OracleSchema)):
            live_args = [a.instance if isinstance(a, _SchemaAbs) else a for a in args]
            live_kwargs = {
                k: (v.instance if isinstance(v, _SchemaAbs) else v)
                for k, v in kwargs.items()
            }
            if all(_is_live(a) for a in live_args) and all(
                _is_live(v) for v in live_kwargs.values()
            ):
                try:
                    return _SchemaAbs(cls(*live_args, **live_kwargs))
                except Exception:
                    return UNKNOWN
        return UNKNOWN

    def call_builtin(
        self,
        func: object,
        args: List[object],
        kwargs: Dict[str, object],
    ) -> object:
        if func is max or func is min:
            values = args
            if len(args) == 1:
                single = args[0]
                if _is_live(single) and isinstance(single, (list, tuple, set)):
                    values = list(single)
                elif isinstance(single, _ListAbs):
                    values = list(single.items)
                else:
                    default = kwargs.get("default")
                    return default if default is not None and not args else UNKNOWN
            if "default" in kwargs:
                values = list(values) + [kwargs["default"]]
            bounds = [_int_bound(v) for v in values]
            if values and all(b is not None for b in bounds):
                ints = [b for b in bounds if b is not None]
                return max(ints) if func is max else min(ints)
            if func is max:
                # max() as a monotone join is still an upper bound when one
                # operand is a tracked accumulator.
                result: object = values[0] if values else UNKNOWN
                for v in list(values)[1:]:
                    result = _join(result, v)
                return result
            return UNKNOWN
        if func is len:
            arg = args[0] if args else UNKNOWN
            bb = _bits_bound(arg)
            if bb is not None:
                return bb
            if isinstance(arg, _ListAbs):
                return len(arg.items)
            if _is_live(arg):
                try:
                    return len(arg)  # type: ignore[arg-type]
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if func is range:
            bounds = [_int_bound(a) for a in args]
            if all(b is not None for b in bounds):
                ints = [b for b in bounds if b is not None]
                try:
                    r = range(*ints)
                    return _RangeAbs(len(r), r[-1] if len(r) else None)
                except Exception:
                    return UNKNOWN
            if len(args) == 1:
                return _RangeAbs(None, None)
            return UNKNOWN
        if func is dict:
            arg = args[0] if args else None
            if arg is None:
                return _MapAbs(0)
            if isinstance(arg, _MapAbs):
                return _MapAbs(arg.bits)
            if _is_live(arg) and isinstance(arg, dict):
                return dict(arg)
            return _MapAbs(None)
        if func in (sorted, list, tuple, set, frozenset, sum, abs, int, str, bool, any, all, enumerate, zip, repr, isinstance, hasattr, getattr, print):
            if func in (print,):
                return None
            live = all(_is_live(a) for a in args) and all(
                _is_live(v) for v in kwargs.values()
            )
            if live:
                try:
                    return func(*args, **kwargs)  # type: ignore[operator]
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        return NotImplemented

    # Populated by run_function before walking the body.
    _globals: Mapping[str, object] = {}


# ---------------------------------------------------------------------------
# Top-level inference
# ---------------------------------------------------------------------------


class StaticBounds:
    """Static upper bounds inferred for one schema on one instance."""

    __slots__ = ("radius", "advice_bits")

    def __init__(self, radius: Optional[int], advice_bits: Optional[int]) -> None:
        self.radius = radius
        self.advice_bits = advice_bits

    def __repr__(self) -> str:
        return f"StaticBounds(radius={self.radius}, advice_bits={self.advice_bits})"


def _infer_radius(
    schema: object,
    graph: LocalGraph,
    memo: _Memo,
    depth: int = 0,
) -> Optional[int]:
    key = (id(schema), "decode")
    if key in memo:
        return memo[key][1]
    if depth >= _MAX_DEPTH:
        return None
    memo[key] = (schema, None)  # cycle guard
    analyzer = _Analyzer(schema, graph, memo, depth)
    decode = getattr(schema, "decode", None)
    if decode is None:
        return None
    advice_abs = _MapAbs(None)
    args: List[object] = [_SchemaAbs(schema), graph, advice_abs, UNKNOWN]
    result = analyzer.run_function(decode, args)
    candidates: List[Optional[int]] = list(analyzer.sites)
    if isinstance(result, _ResultAbs):
        candidates.append(result.rounds)
    elif isinstance(result, int):
        candidates.append(result)
    else:
        candidates.append(None)
    bound: Optional[int]
    if any(c is None for c in candidates):
        bound = analyzer._hint("rounds")
    else:
        bound = max([c for c in candidates if c is not None] or [0])
    memo[key] = (schema, bound)
    return bound


def _infer_bits(
    schema: object,
    graph: LocalGraph,
    memo: _Memo,
    depth: int = 0,
) -> Optional[int]:
    key = (id(schema), "encode")
    if key in memo:
        return memo[key][1]
    if depth >= _MAX_DEPTH:
        return None
    memo[key] = (schema, None)  # cycle guard
    analyzer = _Analyzer(schema, graph, memo, depth)
    encode = getattr(schema, "encode", None)
    if encode is None:
        return None
    args: List[object] = [_SchemaAbs(schema), graph, UNKNOWN]
    result = analyzer.run_function(encode, args)
    bound: Optional[int]
    if isinstance(result, _MapAbs):
        bound = result.bits
    else:
        bound = None
    if bound is None:
        bound = analyzer._hint("advice_bits")
    memo[key] = (schema, bound)
    return bound


def infer_static_bounds(schema: object, graph: LocalGraph) -> StaticBounds:
    """Conservative static upper bounds on (T, beta) for ``schema``.

    ``None`` means the interpreter could not bound the quantity — an
    unbounded traversal (``LOC103``) or an unbounded encoder (``LOC102``)
    unless a :func:`locality_hints` bound closes the gap.  Raises
    :class:`SourceChangedError` when a function's source was edited after
    import.
    """
    memo: _Memo = {}
    radius = _infer_radius(schema, graph, memo)
    bits = _infer_bits(schema, graph, memo)
    return StaticBounds(radius, bits)


# ---------------------------------------------------------------------------
# Dynamic witness
# ---------------------------------------------------------------------------


def dynamic_witness(
    schema: AdviceSchema, graph: LocalGraph
) -> Tuple[int, int]:
    """Run the schema once under the access recorder; return (T, beta) hit.

    The advice map is wrapped in :class:`RecordingAdviceMap` so every
    per-node advice fetch is measured, and every :class:`View` accessor
    reports the layer depth it touched.  The returned pair is a *tight
    witness*: values the decoder provably reached on this instance, hence
    a lower bound any sound static analysis must dominate.
    """
    advice = schema.encode(graph)
    with record_locality_witness() as recorder:
        recording = RecordingAdviceMap(advice, recorder=recorder)
        result = schema.decode(graph, recording)
        witness = recorder.witness(rounds=result.rounds)
    return witness.radius, witness.advice_bits


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _fn_location(fn: object) -> Tuple[str, int, str]:
    raw = inspect.unwrap(fn) if fn is not None else None
    func = getattr(raw, "__func__", raw)
    try:
        path = inspect.getsourcefile(func) or "<unknown>"
        line = func.__code__.co_firstlineno  # type: ignore[union-attr]
        name = func.__qualname__  # type: ignore[union-attr]
    except Exception:
        return "<unknown>", 0, "<unknown>"
    return path, line, name


def _finding(
    rule: str, message: str, schema: object, fn_name: str
) -> Violation:
    fn = getattr(schema, fn_name, None)
    path, line, name = _fn_location(fn)
    return Violation(
        rule=rule,
        message=message,
        path=path,
        line=line,
        function=name,
        context="certify",
    )


@dataclass(frozen=True)
class LocalityCertificate:
    """Frozen result of certifying one schema on one instance.

    The certificate holds the full chain the CI gate checks:
    ``witness <= static`` (soundness of the static pass), and
    ``static == declared`` (the contract says what the code does).
    """

    schema: str
    declared_radius: Optional[int]
    declared_advice_bits: Optional[int]
    static_radius: Optional[int]
    static_advice_bits: Optional[int]
    witness_radius: Optional[int]
    witness_advice_bits: Optional[int]
    instance: str
    findings: Tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "declared_radius": self.declared_radius,
            "declared_advice_bits": self.declared_advice_bits,
            "static_radius": self.static_radius,
            "static_advice_bits": self.static_advice_bits,
            "witness_radius": self.witness_radius,
            "witness_advice_bits": self.witness_advice_bits,
            "instance": self.instance,
            "passed": self.passed,
            "findings": [f.as_dict() for f in self.findings],
        }

    def format_row(self) -> str:
        def cell(v: Optional[int]) -> str:
            return "?" if v is None else str(v)

        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.schema:<22} T: declared={cell(self.declared_radius)} "
            f"static={cell(self.static_radius)} witness={cell(self.witness_radius)}  "
            f"beta: declared={cell(self.declared_advice_bits)} "
            f"static={cell(self.static_advice_bits)} "
            f"witness={cell(self.witness_advice_bits)}  [{status}]"
        )


def certify_schema(
    name: str,
    schema: AdviceSchema,
    graph: LocalGraph,
    run_dynamic: bool = True,
) -> LocalityCertificate:
    """Certify one schema instance: static bounds vs contract vs witness."""
    findings: List[Violation] = []
    contract: Optional[LocalityContract] = None
    try:
        contract = schema.locality_contract(graph)
    except Exception as exc:  # pragma: no cover - defensive
        findings.append(
            _finding("LOC101", f"locality_contract raised: {exc}", schema, "decode")
        )
    if contract is None:
        findings.append(
            _finding(
                "LOC101",
                "schema declares no LocalityContract; T is unaudited",
                schema,
                "decode",
            )
        )

    stale: Optional[str] = None
    try:
        static = infer_static_bounds(schema, graph)
    except SourceChangedError as exc:
        static, stale = StaticBounds(None, None), str(exc)
        findings.append(_finding("LOC103", stale, schema, "decode"))
    if static.radius is None and stale is None:
        findings.append(
            _finding(
                "LOC103",
                "decoder traversal not statically bounded "
                "(no charge/view bound reached a closed form and no "
                "locality hint supplied)",
                schema,
                "decode",
            )
        )
    if static.advice_bits is None and stale is None:
        findings.append(
            _finding(
                "LOC102",
                "encoder advice length not statically bounded "
                "(no bit-width transfer applied and no locality hint "
                "supplied)",
                schema,
                "encode",
            )
        )

    if contract is not None and static.radius is not None:
        if static.radius > contract.radius:
            findings.append(
                _finding(
                    "LOC101",
                    f"static radius bound {static.radius} exceeds declared "
                    f"contract radius {contract.radius}",
                    schema,
                    "decode",
                )
            )
        elif static.radius < contract.radius:
            findings.append(
                _finding(
                    "LOC101",
                    f"declared radius {contract.radius} is looser than the "
                    f"certified bound {static.radius}; tighten the contract "
                    "so declared == certified",
                    schema,
                    "decode",
                )
            )
    if contract is not None and static.advice_bits is not None:
        if static.advice_bits > contract.advice_bits:
            findings.append(
                _finding(
                    "LOC102",
                    f"static advice bound {static.advice_bits} bits exceeds "
                    f"declared budget {contract.advice_bits}",
                    schema,
                    "encode",
                )
            )
        elif static.advice_bits < contract.advice_bits:
            findings.append(
                _finding(
                    "LOC102",
                    f"declared advice budget {contract.advice_bits} bits is "
                    f"looser than the certified bound {static.advice_bits}; "
                    "tighten the contract so declared == certified",
                    schema,
                    "encode",
                )
            )

    witness_radius: Optional[int] = None
    witness_bits: Optional[int] = None
    if run_dynamic:
        try:
            witness_radius, witness_bits = dynamic_witness(schema, graph)
        except Exception as exc:
            findings.append(
                _finding(
                    "LOC101",
                    f"dynamic witness run failed: {type(exc).__name__}: {exc}",
                    schema,
                    "decode",
                )
            )
        if witness_radius is not None and static.radius is not None:
            if witness_radius > static.radius:
                findings.append(
                    _finding(
                        "LOC101",
                        f"dynamic witness reached radius {witness_radius} "
                        f"beyond the static bound {static.radius}: the "
                        "static pass (or a hint) is unsound",
                        schema,
                        "decode",
                    )
                )
        if (
            witness_radius is not None
            and contract is not None
            and witness_radius > contract.radius
        ):
            findings.append(
                _finding(
                    "LOC101",
                    f"dynamic witness reached radius {witness_radius} beyond "
                    f"the declared contract radius {contract.radius}",
                    schema,
                    "decode",
                )
            )
        if witness_bits is not None and static.advice_bits is not None:
            if witness_bits > static.advice_bits:
                findings.append(
                    _finding(
                        "LOC102",
                        f"dynamic witness read {witness_bits} advice bits "
                        f"beyond the static bound {static.advice_bits}: the "
                        "static pass (or a hint) is unsound",
                        schema,
                        "encode",
                    )
                )
        if (
            witness_bits is not None
            and contract is not None
            and witness_bits > contract.advice_bits
        ):
            findings.append(
                _finding(
                    "LOC102",
                    f"dynamic witness read {witness_bits} advice bits beyond "
                    f"the declared budget {contract.advice_bits}",
                    schema,
                    "encode",
                )
            )

    return LocalityCertificate(
        schema=name,
        declared_radius=contract.radius if contract is not None else None,
        declared_advice_bits=contract.advice_bits if contract is not None else None,
        static_radius=static.radius,
        static_advice_bits=static.advice_bits,
        witness_radius=witness_radius,
        witness_advice_bits=witness_bits,
        instance=f"n={graph.n} max_degree={graph.max_degree}",
        findings=tuple(findings),
    )


def certify_all(
    names: Optional[Iterable[str]] = None,
    n: int = 64,
    seed: int = 3,
) -> List[LocalityCertificate]:
    """Certify every registered schema on its standard instance."""
    from ..core.api import available_schemas, default_instance, make_schema

    certificates: List[LocalityCertificate] = []
    for name in names if names is not None else available_schemas():
        graph, kwargs = default_instance(name, n, seed)
        schema = make_schema(name, **kwargs)
        certificates.append(certify_schema(name, schema, graph))
    return certificates


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _selftest() -> int:
    """The fixture gate: an over-reaching schema must be rejected."""
    from .fixtures import overreaching_instance

    schema, graph = overreaching_instance()
    cert = certify_schema("overreaching-fixture", schema, graph)
    rules = {f.rule for f in cert.findings}
    ok = "LOC101" in rules and "LOC102" in rules
    print(cert.format_row())
    for finding in cert.findings:
        print(f"  {finding.format()}")
    if ok:
        print("selftest: over-reaching fixture rejected with LOC101+LOC102 [ok]")
        return 0
    print("selftest: fixture NOT rejected — certifier gate is broken", file=sys.stderr)
    return 1


def certify_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro certify`` — the locality-certification gate."""
    parser = argparse.ArgumentParser(
        prog="repro certify",
        description=(
            "Certify every schema's LocalityContract: static upper bounds "
            "on (T, beta) must equal the declared values and dominate a "
            "dynamic tight-witness run."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON certificates")
    parser.add_argument("--schema", action="append", help="certify only this schema (repeatable)")
    parser.add_argument("--n", type=int, default=64, help="instance size")
    parser.add_argument("--seed", type=int, default=3, help="instance seed")
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="check that the over-reaching fixture schema is rejected",
    )
    args = parser.parse_args(argv)

    if args.selftest:
        return _selftest()

    certificates = certify_all(names=args.schema, n=args.n, seed=args.seed)
    failed = [c for c in certificates if not c.passed]
    if args.json:
        print(json.dumps([c.as_dict() for c in certificates], indent=2))
    else:
        for cert in certificates:
            print(cert.format_row())
            for finding in cert.findings:
                print(f"  {finding.format()}")
        print(
            f"{len(certificates) - len(failed)}/{len(certificates)} schemas "
            "certified (declared == static >= witness)"
        )
    return 1 if failed else 0
