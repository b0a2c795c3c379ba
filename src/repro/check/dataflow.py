"""FGPar: static parallel-safety effect analysis over stage bytecode.

This module is the *one* bytecode walker behind every static analysis in
the repo: the linter's EOS scan and FG109 provenance scan
(:mod:`repro.check.linter`) delegate here, so a newly learned opcode is
learned once.  On top of the shared walk this module adds what the
true-parallel backend (ROADMAP item 2) needs: per-stage *effect sets*
and a ``parallel_safety`` classification.

Three layers, bottom to top:

* :func:`iter_code_objects` — the walk itself.  ``follow_callables=True``
  reproduces the historical closure-/global-following frontier (used by
  the EOS scan and FG109 evidence, which must see helper functions a
  stage calls); ``follow_callables=False`` restricts
  the walk to the function's own code plus nested code constants, which
  is the right scope for *effects*: a sibling closure shared between two
  stage functions acts on behalf of whichever stage calls it, and
  attributing its writes to both would fabricate cross-stage races.
* :func:`fn_effects` — an abstract interpretation of the restricted walk
  that infers which *cells* (closure variables, module globals, and
  attribute/const-key-subscript slots of objects reached through them) a
  stage function reads and writes.  Names defined inside the stage
  function (cellvars of its own nested functions) are invocation-local
  and never shared.  The scan is memoised per code object and the
  *class* of what each name holds; which *object* a name holds is
  resolved per call (see :func:`fn_effects`).
* :func:`classify_fn` / :func:`program_effects` — the verdicts: every
  stage is ``pure`` (touches no shared mutable state), ``read_shared``,
  or ``write_shared``; :class:`ProgramEffects` intersects the per-stage
  cell sets into the cross-stage conflict pairs that FG110 and the
  FGRace cross-check consume.

Cells are identified by the ``id()`` of the base object resolved at
analysis time, refined by a constant subscript key or attribute name
when the bytecode shows one.  A mutation with no visible key (e.g.
``state.pop(k)``) is a whole-object write and conflicts with any keyed
access of the same object; a keyed write conflicts with same-key
accesses and whole-object *writes* (a whole-object *read* is usually a
method call the scan could not classify — weak evidence, deliberately
not a conflict).  Variable-key subscripts are a known false negative,
exactly as documented for FG109.
"""

from __future__ import annotations

import builtins
import dataclasses
import dis
import functools
import inspect
import io
import sys
import threading
import types
from typing import Any, Callable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "PURE",
    "READ_SHARED",
    "WRITE_SHARED",
    "Cell",
    "Effects",
    "ProgramEffects",
    "StageEffects",
    "cells_conflict",
    "classify_fn",
    "fn_effects",
    "iter_code_objects",
    "program_effects",
    "shared_state_evidence",
    "stage_effects",
    "unserializable_captures",
]

#: the three parallel-safety verdicts, as stable strings (``repro lint
#: --effects`` prints them)
PURE = "pure"
READ_SHARED = "read_shared"
WRITE_SHARED = "write_shared"

#: method names whose call on a shared container is treated as mutation.
#: Deliberately omits ambiguous names (``sort``, ``write``, ``reverse``)
#: that are common as *pure* methods on schema/file objects.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "setdefault", "remove", "discard", "clear",
})

#: opcodes that pass the provenance of the value under construction
#: through unchanged (subscripts, arithmetic, stack shuffling).
TRANSPARENT_OPS = frozenset({
    "LOAD_CONST", "BINARY_SUBSCR", "BINARY_SLICE", "BINARY_OP",
    "UNARY_NEGATIVE", "UNARY_NOT", "UNARY_INVERT",
    "COPY", "SWAP", "DUP_TOP", "DUP_TOP_TWO",
    "ROT_TWO", "ROT_THREE", "ROT_FOUR", "CACHE", "EXTENDED_ARG",
})

#: values of these types cannot hold cross-stage mutable state (for the
#: method-call branch; *rebinding* them is still a write to their cell).
IMMUTABLE_TYPES = (type(None), bool, int, float, complex, str, bytes,
                   tuple, frozenset, types.FunctionType,
                   types.BuiltinFunctionType, types.ModuleType, type)

#: names of the code objects the compiler makes for a comprehension
#: (3.11) or generator expression and calls at once
COMPREHENSIONS = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>",
                            "<genexpr>"})

_UNKNOWN = object()
_BUILTINS: dict[str, Any] = vars(builtins)


#: one decoded instruction: ``(opname, argval, arg)`` — the only three
#: fields any scan here reads
Instr = tuple[str, Any, Optional[int]]


@functools.lru_cache(maxsize=1024)
def instructions(code: types.CodeType) -> tuple[Instr, ...]:
    """``code``'s instructions, decoded once per code object.

    Decoding is a function of the code object alone, so every closure
    of one ``def`` and every ``start()`` share it (bounded, so
    dynamically compiled code is not pinned for good).  *Resolution* —
    which object a name holds — is never memoised.
    """
    return tuple((i.opname, i.argval, i.arg)
                 for i in dis.get_instructions(code))


@functools.lru_cache(maxsize=1024)
def _sorted_names(code: types.CodeType) -> tuple[str, ...]:
    """``sorted(set(code.co_names))``, once per code object."""
    return tuple(sorted(set(code.co_names)))


def _is_method_load(op: str, arg: Optional[int]) -> bool:
    """True when this instruction loads an attribute *as a callee* (the
    compiler's method-call form), as opposed to a plain attribute read.
    3.11 has a dedicated LOAD_METHOD; 3.12+ folds it into LOAD_ATTR with
    the low oparg bit set."""
    if op == "LOAD_METHOD":
        return True
    if op == "LOAD_ATTR" and sys.version_info >= (3, 12):
        return bool(arg) and bool(arg & 1)
    return False


# -- the shared walk --------------------------------------------------------


def _unbind(fn: Any) -> tuple[Any, int, list[str]]:
    """Peel a stage callable that gets state *outside* closure cells
    and globals — ``functools.partial`` arguments, a bound ``__self__``,
    a callable instance — down to the function whose bytecode is read.

    Returns ``(function, positional parameters already bound,
    carriers)``.  A carrier names such a holder that is not an
    ``IMMUTABLE_TYPES`` instance: the function sees it as a parameter,
    which the scans treat as private, so it counts as an unresolved
    write.
    """
    bound = 0
    carriers: list[str] = []

    def carry(value: Any, how: str) -> None:
        if not isinstance(value, IMMUTABLE_TYPES):
            carriers.append(f"{how} ({type(value).__name__})")

    for _ in range(16):  # bounded: user code must not loop the scan
        owner = getattr(fn, "__self__", None)
        if isinstance(fn, functools.partial):
            for i, value in enumerate(fn.args):
                carry(value, f"partial argument {i}")
            for key, value in fn.keywords.items():
                carry(value, f"partial keyword {key!r}")
            bound += len(fn.args)
            fn = fn.func
        elif owner is not None:
            carry(owner, "__self__")
            if not hasattr(fn, "__func__"):
                break  # a builtin's method: no bytecode to read
            bound += 1
            fn = fn.__func__
        elif hasattr(fn, "__wrapped__"):
            fn = inspect.unwrap(fn)
        elif (hasattr(fn, "__code__") or isinstance(fn, type)
                or not callable(fn)):
            break
        else:
            carry(fn, "callable instance")
            call = type(fn).__call__
            if not hasattr(call, "__code__"):
                break  # implemented in C: no bytecode to read
            bound += 1
            fn = call
    return fn, bound, carriers


def iter_code_objects(fn: Callable[..., Any] | types.CodeType, *,
                      follow_callables: bool = True,
                      max_depth: int = 4) -> Iterator[types.CodeType]:
    """Yield ``fn``'s code object and those reachable from it.

    Always recurses through nested code constants (inner functions and
    comprehensions).  With ``follow_callables`` it additionally follows
    closure cells holding functions and module-global functions the code
    references by name — the historical FG104/FG109 frontier.  Bounded
    by ``max_depth`` and a seen-set, so arbitrary user code cannot loop
    the scan.  Only ``fn`` itself is unbound (:func:`_unbind`); callables
    met on the way are followed as before.  ``fn`` may be a code object,
    whose walk is then a function of the code alone.
    """
    seen: set[int] = set()
    frontier: list[tuple[Any, int]] = [(_unbind(fn)[0], 0)]
    while frontier:
        obj, depth = frontier.pop()
        func = inspect.unwrap(obj) if callable(obj) else obj
        code = getattr(func, "__code__", None)
        if isinstance(obj, types.CodeType):
            code = obj
        if code is None or id(code) in seen or depth > max_depth:
            continue
        seen.add(id(code))
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                frontier.append((const, depth + 1))
        if not follow_callables:
            continue
        closure = getattr(func, "__closure__", None) or ()
        globals_ns = getattr(func, "__globals__", {})
        for cell in closure:
            try:
                value = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                continue
            if callable(value):
                frontier.append((value, depth + 1))
        for name in code.co_names:
            value = globals_ns.get(name)
            if isinstance(value, types.FunctionType):
                frontier.append((value, depth + 1))


def _cell_contents(cell: Any) -> Any:
    """What a closure cell holds, or ``_UNKNOWN`` for an empty one."""
    try:
        return cell.cell_contents
    except ValueError:
        return _UNKNOWN


def _closure_value(fn: Callable[..., Any], name: str) -> Any:
    """The object a free variable of ``fn`` is bound to, or ``_UNKNOWN``."""
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is None or closure is None:
        return _UNKNOWN
    try:
        return _cell_contents(closure[code.co_freevars.index(name)])
    except (ValueError, IndexError):
        return _UNKNOWN


# -- FG109 parity layer -----------------------------------------------------


def shared_state_evidence(fn: Callable[..., Any]) -> list[str]:
    """Evidence strings that ``fn`` mutates state its replicas share.

    A linear bytecode walk tracking coarse provenance of the object under
    construction: a load from a free variable or a module global marks it
    *shared*, a load from a local marks it *private*, and subscript /
    attribute / stack ops preserve the mark.  Mutation evidence is then

    * a mutating method (``append``, ``update``, ...) looked up on a
      shared object,
    * ``STORE_SUBSCR`` / ``STORE_ATTR`` whose target is shared,
    * rebinding a free variable (``STORE_DEREF``) or a global.

    Heuristic by design: it follows only straight-line provenance, so
    aliasing through locals escapes it — but that is exactly the
    contract FG109 documents (it catches the idiomatic per-round
    accumulator, not adversarial code).
    """
    fn, _bound, carriers = _unbind(fn)
    globals_ns = getattr(fn, "__globals__", {})
    evidence = [f"carries state in through {c}" for c in carriers]

    def shared_global(name: str) -> bool:
        value = globals_ns.get(name, getattr(builtins, name, _UNKNOWN))
        if value is _UNKNOWN:
            return False
        return not isinstance(value, IMMUTABLE_TYPES)

    def shared_free(name: str) -> bool:
        value = _closure_value(fn, name)
        if value is _UNKNOWN:
            return True  # unresolvable cell: assume shared
        return not isinstance(value, IMMUTABLE_TYPES)

    for code in iter_code_objects(fn):
        base_shared = False
        base_name = ""
        for op, argval, arg in instructions(code):
            if op in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
                base_name = str(argval)
                base_shared = (base_name in code.co_freevars
                               and shared_free(base_name))
            elif op == "LOAD_GLOBAL":
                base_name = str(argval)
                base_shared = shared_global(base_name)
            elif op in ("LOAD_METHOD", "LOAD_ATTR"):
                if base_shared and argval in MUTATING_METHODS:
                    evidence.append(
                        f"calls .{argval}() on shared {base_name!r}")
                    base_shared = False
            elif op == "STORE_SUBSCR":
                if base_shared:
                    evidence.append(
                        f"assigns into shared {base_name!r}")
                base_shared = False
            elif op == "STORE_ATTR":
                if base_shared:
                    evidence.append(
                        f"sets .{argval} on shared {base_name!r}")
                base_shared = False
            elif op == "STORE_DEREF":
                if argval in code.co_freevars:
                    evidence.append(
                        f"rebinds closure variable {argval!r}")
                base_shared = False
            elif op == "STORE_GLOBAL":
                evidence.append(f"rebinds global {argval!r}")
                base_shared = False
            elif op.startswith("LOAD_FAST"):
                base_shared = False
                base_name = str(argval)
            elif op not in TRANSPARENT_OPS:
                base_shared = False
    return evidence


# -- effect extraction ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Cell:
    """One shared mutable location a stage function can touch.

    Identity (``obj_id`` + ``key``) is what conflict detection compares;
    ``label`` is the deterministic human-readable name (never an id), so
    findings and race reports read like the source.
    """

    #: ``id()`` of the resolved base object; 0 for unresolvable cells
    obj_id: int
    #: ``"['k']"`` for a subscript slot whose key is a const or an
    #: immutable closure value, ``".attr"`` for an attribute slot, None
    #: for the whole object
    key: Optional[str]
    label: str = dataclasses.field(compare=False, hash=False, default="")

    @property
    def resolved(self) -> bool:
        return self.obj_id != 0

    def __str__(self) -> str:
        return self.label or f"<cell {self.obj_id}{self.key or ''}>"


def cells_conflict(a: Cell, b: Cell, *, a_writes: bool,
                   b_writes: bool) -> bool:
    """True when accesses to ``a`` and ``b`` can touch the same memory.

    Requires the same resolved base object and at least one write.  A
    whole-object write conflicts with everything on the object; a keyed
    write conflicts with same-key accesses and whole-object writes (a
    whole-object read — usually an unclassified method call — is
    deliberately not enough evidence against a keyed write).
    """
    if not (a_writes or b_writes):
        return False
    if not a.resolved or not b.resolved or a.obj_id != b.obj_id:
        return False
    if a.key == b.key:
        return True
    if a.key is None:
        return a_writes
    if b.key is None:
        return b_writes
    return False


@dataclasses.dataclass(frozen=True)
class Effects:
    """The inferred effect sets of one stage function."""

    reads: frozenset[Cell]
    writes: frozenset[Cell]
    #: shared names the scan could not resolve to an object but saw
    #: written (rebind of an unresolvable closure cell, ...)
    unresolved_writes: tuple[str, ...] = ()
    #: FG111 evidence: ways an alias of the stage's buffer can outlive
    #: its convey
    buffer_escapes: tuple[str, ...] = ()

    @property
    def classification(self) -> str:
        if self.writes or self.unresolved_writes:
            return WRITE_SHARED
        if self.reads:
            return READ_SHARED
        return PURE


#: a name through which the scan reaches shared state, resolved per
#: closure by :func:`fn_effects`: ``("free", n)`` is the object free
#: variable ``n`` holds, ``("cell", n)`` the closure cell binding it,
#: ``("global", n)`` the object global ``n`` holds and ``("globals", "")``
#: the globals dict itself
Symbol = tuple[str, str]

#: what the scan is a function of: the code object, the buffer
#: parameter, and the class (:func:`_value_class`) of what each of
#: ``co_freevars`` and each global the scope loads holds
ScanKey = tuple[types.CodeType, Optional[str], tuple[str, ...],
                tuple[str, ...]]


class _Ref(NamedTuple):
    """A cell as the scan sees it: reached through a symbol, before the
    symbol is resolved to an object."""

    sym: Symbol
    #: a :attr:`Cell.key`, or for a subscript whose key is an immutable
    #: closure value the ``("free", name)`` symbol holding it, resolved
    #: per closure like ``sym``
    key: Union[str, Symbol, None]
    label: str


class _Events(NamedTuple):
    """What one scan records; a function of its :data:`ScanKey` alone."""

    #: ``(is_write, cell)`` for every distinct cell event, in the order
    #: the scan met them
    cells: tuple[tuple[bool, _Ref], ...]
    buffer_escapes: tuple[str, ...]


def _value_class(value: Any) -> str:
    """The one thing the scan reads of the value a name holds."""
    if value is _UNKNOWN:
        return "unknown"
    return "immutable" if isinstance(value, IMMUTABLE_TYPES) else "object"


@functools.lru_cache(maxsize=1024)
def _scope(code: types.CodeType) -> tuple[tuple[types.CodeType, ...],
                                          tuple[str, ...]]:
    """The effect scan's scope — ``code`` and its nested code constants
    — and the ``LOAD_GLOBAL`` names read there, in order of first use."""
    codes = tuple(iter_code_objects(code, follow_callables=False))
    loads = dict.fromkeys(str(argval) for c in codes
                          for op, argval, _arg in instructions(c)
                          if op == "LOAD_GLOBAL")
    return codes, tuple(loads)


class _EffectScan:
    """One abstract-interpretation pass over a stage function's code,
    knowing of each name only whether it can hold shared state."""

    def __init__(self, code: types.CodeType, buffer_param: Optional[str],
                 shared: frozenset[Symbol]) -> None:
        #: free variables of the stage function itself — the only names
        #: that can reach state shared with other stages
        self.own_free = frozenset(code.co_freevars)
        self.buffer_param = buffer_param
        #: the ``free`` / ``global`` symbols whose value is not immutable
        self.shared = shared
        #: ``(is_write, cell)`` in first-seen order (a dict as an
        #: ordered set: replaying a repeat would change nothing)
        self.cells: dict[tuple[bool, _Ref], None] = {}
        self.escapes: list[str] = []

    def _base(self, sym: Symbol) -> Optional[_Ref]:
        """The object ``sym`` holds, or None when it is immutable
        (nothing to race on)."""
        return _Ref(sym, None, sym[1]) if sym in self.shared else None

    # -- the walk -------------------------------------------------------

    def run(self, codes: tuple[types.CodeType, ...]) -> _Events:
        for code in codes:
            self._scan_code(code)
        return _Events(tuple(self.cells), tuple(self.escapes))

    def _read(self, ref: _Ref) -> None:
        self.cells.setdefault((False, ref), None)

    def _record_write(self, ref: _Ref) -> None:
        self.cells.setdefault((True, ref), None)

    def _scan_code(self, code: types.CodeType) -> None:
        # provenance register: the shared cell (if any) of the value
        # most recently constructed, plus the alias flags FG111 needs
        base: Optional[_Ref] = None
        # key loaded after base: a const, or an immutable closure value
        base_key: Union[str, Symbol, None] = None
        reg_alias = False               # register holds a buffer alias
        alias_pending = False           # an alias was loaded and not yet
        #                                 consumed (value side of a store)
        outer_pending = False           # alias_pending before the register
        #                                 was last loaded from an alias
        alias_locals: set[str] = set()
        if self.buffer_param is not None \
                and self.buffer_param in code.co_varnames:
            alias_locals.add(self.buffer_param)
        # pending-callee stack: one entry per callee load not yet
        # consumed by a CALL, so nested argument calls (``len(records)``
        # inside ``shared.append(...)``) pair with *their own* CALL and
        # never launder — or trip — the outer mutator.  Entries are
        # ("mut", label) for a mutating method on a shared base,
        # ("alias_fn", None) for ``ctx.accept`` / ``buf.view`` /
        # ``buf.fill``, whose result aliases the buffer, and ("fn",
        # "alias" or None) for anything else, a comprehension included,
        # with whether an alias was pending when its callee was loaded:
        # it is still pending after the CALL (``(buf.data, len(x))``).
        pending: list[tuple[str, Optional[str]]] = []
        call_made_alias = False

        for op, argval, arg in instructions(code):
            if op in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
                name = str(argval)
                sym = ("free", name)
                if base is not None and base.key is None \
                        and name in self.own_free and sym not in self.shared:
                    base_key = sym  # a subscript key, as a const is
                    continue
                base_key = None
                reg_alias = False
                if name in self.own_free:
                    base = self._base(sym)
                else:
                    base = None  # interior (stage-private) variable
            elif op == "LOAD_GLOBAL":
                base = self._base(("global", str(argval)))
                base_key = None
                reg_alias = False
                # callee position (3.11+): the low oparg bit asks for
                # the NULL push that precedes a call
                if arg and arg & 1:
                    pending.append(("fn", "alias" if alias_pending else None))
            elif op.startswith("LOAD_FAST"):
                name = str(argval)
                base = None
                base_key = None
                reg_alias = name in alias_locals
                if reg_alias:
                    outer_pending, alias_pending = alias_pending, True
            elif op == "LOAD_CONST":
                if base is not None and base.key is None \
                        and isinstance(argval, (str, int)):
                    base_key = f"[{argval!r}]"
                elif getattr(argval, "co_name", None) in COMPREHENSIONS:
                    # made and called at once on its iterable: its CALL
                    # pairs with this entry, not with an enclosing
                    # mutator; what it builds is fresh, and an alias
                    # loaded before it is still pending after it
                    pending.append(("fn", "alias" if alias_pending else None))
                # const loads never clobber the register (transparent)
            elif op in ("LOAD_METHOD", "LOAD_ATTR"):
                attr = str(argval)
                is_method = _is_method_load(op, arg)
                if base is not None:
                    if attr in MUTATING_METHODS and is_method:
                        cell = base._replace(
                            key=base.key or base_key,
                            label=self._slot_label(base, base_key))
                        self._record_write(cell)
                        pending.append(("mut", cell.label))
                        base = None
                    else:
                        slot = _Ref(base.sym, f".{attr}",
                                    f"{base.label}.{attr}")
                        self._read(slot if base.key is None else base)
                        base = slot
                        if is_method:
                            pending.append(
                                ("fn", "alias" if alias_pending else None))
                    base_key = None
                elif reg_alias and attr == "data":
                    pass  # buf.data: register stays an alias
                elif reg_alias:
                    if is_method and attr in ("view", "fill"):
                        pending.append(("alias_fn", None))
                    else:
                        # ``buf.tags``, ``buf.round``: not the buffer's
                        # data, so the alias this load began is consumed
                        reg_alias = False
                        alias_pending = outer_pending
                        if is_method:
                            pending.append(
                                ("fn", "alias" if alias_pending else None))
                elif attr == "accept" and is_method:
                    pending.append(("alias_fn", None))
                elif is_method:
                    pending.append(("fn", "alias" if alias_pending else None))
            elif op == "BINARY_SUBSCR":
                if base is not None:
                    cell = base._replace(
                        key=base.key or base_key,
                        label=self._slot_label(base, base_key))
                    self._read(cell)
                    base = cell
                    base_key = None
                # subscripting an alias keeps the alias (a slice of the
                # buffer's data still views its memory)
            elif op == "BINARY_SLICE":
                base_key = None
            elif op == "STORE_SUBSCR":
                if base is not None:
                    cell = base._replace(
                        key=base.key or base_key,
                        label=self._slot_label(base, base_key))
                    self._record_write(cell)
                    if alias_pending:
                        self.escapes.append(
                            f"stores a buffer alias into shared "
                            f"{cell.label!r}")
                base = None
                base_key = None
                alias_pending = False
                reg_alias = False
            elif op == "STORE_ATTR":
                if base is not None:
                    attr = str(argval)
                    cell = _Ref(base.sym, f".{attr}",
                                f"{base.label}.{attr}")
                    self._record_write(cell)
                    if alias_pending:
                        self.escapes.append(
                            f"stores a buffer alias into shared "
                            f"{cell.label!r}")
                base = None
                base_key = None
                alias_pending = False
                reg_alias = False
            elif op == "STORE_DEREF":
                name = str(argval)
                if name in self.own_free:
                    # a ``nonlocal`` rebind writes the closure cell
                    # itself, shared by every function capturing it
                    self._record_write(_Ref(("cell", name), None, name))
                    if alias_pending or reg_alias:
                        self.escapes.append(
                            f"stows a buffer alias in closure variable "
                            f"{name!r}")
                base = None
                base_key = None
                alias_pending = False
                reg_alias = False
            elif op == "STORE_GLOBAL":
                name = str(argval)
                self._record_write(
                    _Ref(("globals", ""), f"[{name!r}]", f"global {name}"))
                if alias_pending or reg_alias:
                    self.escapes.append(
                        f"stows a buffer alias in global {name!r}")
                base = None
                base_key = None
                alias_pending = False
                reg_alias = False
            elif op.startswith("STORE_FAST"):
                name = str(argval)
                if reg_alias or call_made_alias:
                    alias_locals.add(name)
                else:
                    alias_locals.discard(name)
                base = None
                base_key = None
                alias_pending = False
                reg_alias = False
                call_made_alias = False
            elif (op.startswith("CALL")
                    and not op.startswith("CALL_INTRINSIC")) \
                    or op == "PRECALL":
                if op == "PRECALL":
                    continue  # 3.11 companion opcode; CALL follows
                kind, label = pending.pop() if pending else ("fn", None)
                if kind == "mut" and (alias_pending or reg_alias):
                    self.escapes.append(
                        f"passes a buffer alias into shared "
                        f"{label!r}")
                call_made_alias = kind == "alias_fn"
                base = None
                base_key = None
                # an alias-producing call leaves an alias on the stack,
                # still pending as e.g. an argument of an enclosing call
                alias_pending = call_made_alias or (
                    kind == "fn" and label is not None)
                reg_alias = call_made_alias
            elif op in TRANSPARENT_OPS:
                continue
            else:
                if op == "PUSH_NULL":
                    # a callee that is neither a global nor a method (one
                    # held in a local or closure variable) gets its own
                    # entry, so its CALL never takes an enclosing mutator's
                    pending.append(("fn", "alias" if alias_pending else None))
                base = None
                base_key = None
                reg_alias = False

    @staticmethod
    def _slot_label(base: _Ref, base_key: Union[str, Symbol, None]) -> str:
        if base.key is not None or base_key is None:
            return base.label
        if isinstance(base_key, tuple):
            return f"{base.label}[{base_key[1]}]"
        return f"{base.label}{base_key}"


@functools.lru_cache(maxsize=1024)
def _effect_events(code: types.CodeType, buffer_param: Optional[str],
                   free_classes: tuple[str, ...],
                   global_classes: tuple[str, ...]) -> _Events:
    """The scan, run once per :data:`ScanKey` (bounded, like
    :func:`instructions`; it holds code objects and strings only)."""
    codes, loads = _scope(code)
    shared = frozenset(
        [("free", name) for name, cls in zip(code.co_freevars, free_classes)
         if cls != "immutable"]
        + [("global", name) for name, cls in zip(loads, global_classes)
           if cls == "object"])
    return _EffectScan(code, buffer_param, shared).run(codes)


def _bind(fn: Any, buffer_param: Optional[str]) -> Optional[
        tuple[ScanKey, dict[str, dict[str, Any]]]]:
    """The scan key of an unbound stage function, and what it holds now
    — ``held[kind][name]`` for each :data:`Symbol` ``(kind, name)``;
    None when it has no bytecode."""
    code = getattr(fn, "__code__", None)
    if not isinstance(code, types.CodeType):
        return None
    globals_ns = getattr(fn, "__globals__", {})
    cells = dict(zip(code.co_freevars,
                     getattr(fn, "__closure__", None) or ()))
    free = {name: _cell_contents(cells[name]) if name in cells
            else _UNKNOWN for name in code.co_freevars}
    loaded = {name: globals_ns.get(name, _BUILTINS.get(name, _UNKNOWN))
              for name in _scope(code)[1]}
    key = (code, buffer_param, tuple(map(_value_class, free.values())),
           tuple(map(_value_class, loaded.values())))
    return key, {"free": free, "cell": cells, "global": loaded,
                 "globals": {"": globals_ns}}


def fn_effects(fn: Callable[..., Any], *,
               buffer_param: Optional[str] = None) -> Effects:
    """Infer the shared-state effect sets of one stage function.

    Walks the function's own code and nested code constants only (see
    the module docstring for why sibling closures are excluded), in two
    steps.  The scan runs once per :data:`ScanKey`: no branch of it
    reads more of a name than its class (unknown, immutable, an
    object), so it records cells by *symbol*.  The bind runs per call:
    it resolves each symbol to the ``id()`` of what this closure holds
    now and replays the scan's events into fresh sets in their recorded
    order, so two names aliasing one object collapse — same first
    label, same iteration order — as they would in a scan of this
    closure alone.
    """
    fn, _bound, carriers = _unbind(fn)
    reads: set[Cell] = set()
    writes: set[Cell] = set()
    unresolved = set(carriers)
    escapes: tuple[str, ...] = ()
    bound = _bind(fn, buffer_param)
    if bound is not None:
        key, held = bound
        events = _effect_events(*key)
        for write, ((kind, name), slot, label) in events.cells:
            obj = held[kind].get(name, _UNKNOWN)
            if isinstance(slot, tuple):  # the key a closure value holds
                slot = f"[{held[slot[0]][slot[1]]!r}]"
            cell = Cell(0 if obj is _UNKNOWN else id(obj), slot, label)
            if not write:
                reads.add(cell)
            elif cell.resolved:
                writes.add(cell)
            else:
                unresolved.add(label)
        escapes = events.buffer_escapes
    return Effects(reads=frozenset(reads), writes=frozenset(writes),
                   unresolved_writes=tuple(sorted(unresolved)),
                   buffer_escapes=escapes)


def _buffer_param_of(fn: Callable[..., Any]) -> Optional[str]:
    """Name of the buffer parameter of a map-style ``fn(ctx, buf)``."""
    func, bound, _carriers = _unbind(fn)
    code = getattr(func, "__code__", None)
    if code is None or code.co_argcount < bound + 2:
        return None
    return code.co_varnames[bound + 1]


def stage_effects(fn: Optional[Callable[..., Any]],
                  style: str = "map") -> Optional[Effects]:
    """The effects of ``fn`` run as a ``style`` stage (only a map stage
    has a buffer parameter); None when there is no function."""
    if fn is None:
        return None
    buffer_param = _buffer_param_of(fn) if style == "map" else None
    return fn_effects(fn, buffer_param=buffer_param)


def classify_fn(fn: Optional[Callable[..., Any]], *,
                style: str = "map") -> Optional[str]:
    """``pure`` / ``read_shared`` / ``write_shared`` for a stage
    function; None when there is no function to classify."""
    effects = stage_effects(fn, style)
    return None if effects is None else effects.classification


# -- FG114: unserializable captures ----------------------------------------


#: types a stage closure cannot carry across a process boundary.
#: Deliberately *excludes* FG-native objects (Kernel, Process, Channel):
#: those have kernel-level identity a multiprocessing backend proxies
#: itself, and control channels are idiomatic FG (fork/join gating) —
#: flagging them would warn on every coordinating stage.
_UNSERIALIZABLE_TYPES: tuple[type, ...] = (
    io.IOBase, types.GeneratorType, type(threading.Lock()),
    type(threading.RLock()), threading.Thread, threading.Event,
    threading.Condition)


def unserializable_captures(fn: Callable[..., Any]) -> list[str]:
    """Names of closure cells / globals of ``fn`` directly holding a
    value that cannot cross a process boundary (raw lock, open file
    handle, generator, thread).

    Direct captures only: an object that merely *contains* a lock (every
    cluster node does) serializes via its own reduction, so transitive
    reachability would flag the entire runtime.
    """
    fn = _unbind(fn)[0]
    bad = _UNSERIALIZABLE_TYPES
    found: list[str] = []
    code = getattr(fn, "__code__", None)
    if code is None:
        return found
    for name in code.co_freevars:
        value = _closure_value(fn, name)
        if value is not _UNKNOWN and isinstance(value, bad):
            found.append(
                f"closure variable {name!r} holds a "
                f"{type(value).__name__}")
    globals_ns = getattr(fn, "__globals__", {})
    for name in _sorted_names(code):
        value = globals_ns.get(name, _UNKNOWN)
        if value is not _UNKNOWN and isinstance(value, bad):
            found.append(f"global {name!r} holds a "
                         f"{type(value).__name__}")
    return found


# -- whole-program view -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageEffects:
    """One stage's verdict within a program."""

    name: str
    pipeline: str
    #: empty for a stage without a function
    effects: Effects
    #: ``id()`` of the stage function — the runtime key FGRace uses, so
    #: same-named stages of different programs on one kernel (every node
    #: of a cluster run) never alias each other's effect sets
    fn_id: int = 0


@dataclasses.dataclass(frozen=True)
class Conflict:
    """Two stages that can touch the same cell, at least one writing."""

    stage_a: str
    stage_b: str
    pipeline_a: str
    pipeline_b: str
    cell: Cell
    kind: str  # "write-write" | "write-read"


@dataclasses.dataclass
class ProgramEffects:
    """Per-stage effects + cross-stage conflict pairs for one program."""

    stages: list[StageEffects]
    #: conflicts across the whole program regardless of pipeline
    #: structure — FG110's scope and the FGRace cross-check's
    #: prediction set
    all_conflicts: list[Conflict]

    def stage(self, name: str) -> Optional[StageEffects]:
        for entry in self.stages:
            if entry.name == name:
                return entry
        return None

    def predicted_pairs(self) -> set[tuple[frozenset[str], int,
                                           Optional[str]]]:
        """``(stage-name pair, cell obj_id, cell key)`` for every
        statically predicted conflict — what the FGRace strict mode
        checks dynamic races against."""
        return {(frozenset((c.stage_a, c.stage_b)), c.cell.obj_id,
                 c.cell.key) for c in self.all_conflicts}


def program_effects(graph: Any) -> ProgramEffects:
    """The whole-program view of a :class:`repro.plan.ir.ProgramGraph`.

    Scans each distinct stage object once (:func:`stage_effects`) and
    intersects the effect sets.  Duck-typed on the graph (pipelines /
    stages) so this module imports nothing from :mod:`repro.plan`.
    """
    entries: list[StageEffects] = []
    seen: set[int] = set()
    for p in graph.pipelines:
        for node in p.stages:
            s = node.stage
            if id(s) in seen:
                continue
            seen.add(id(s))
            entries.append(StageEffects(
                name=node.name, pipeline=p.name,
                effects=stage_effects(s.fn, node.style)
                or Effects(frozenset(), frozenset()),
                fn_id=0 if s.fn is None else id(s.fn)))
    conflicts: list[Conflict] = []
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            conflicts.extend(_pair_conflicts(a, b))
    return ProgramEffects(stages=entries, all_conflicts=conflicts)


def _pair_conflicts(a: StageEffects, b: StageEffects) -> list[Conflict]:
    out: list[Conflict] = []
    for wa in a.effects.writes:
        for wb in b.effects.writes:
            if cells_conflict(wa, wb, a_writes=True, b_writes=True):
                out.append(Conflict(a.name, b.name, a.pipeline,
                                    b.pipeline, wa, "write-write"))
        for rb in b.effects.reads:
            if cells_conflict(wa, rb, a_writes=True, b_writes=False):
                out.append(Conflict(a.name, b.name, a.pipeline,
                                    b.pipeline, wa, "write-read"))
    for wb in b.effects.writes:
        for ra in a.effects.reads:
            if cells_conflict(wb, ra, a_writes=True, b_writes=False):
                out.append(Conflict(b.name, a.name, b.pipeline,
                                    a.pipeline, wb, "write-read"))
    return out
