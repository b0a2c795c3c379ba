"""One reader and one writer for the documents that enter from outside.

A *document class* is a dataclass whose instances travel as JSON (an
arrival trace, a provenance record and what its ``args`` nest); its field
list is its schema.  The rule (docs/REFERENCE.md, "Documents"): a
document that is not an object, carries an undeclared field or lacks one
that has no default is refused before anything runs, with the caller's
``error`` class and the dotted path in the message
(``ArrivalTrace.arrivals[0].spec: unknown field(s) ['n_node']; known
fields: [...]``); the class's own ``__post_init__`` runs after it.

A leaf module: stdlib and :mod:`repro.errors` only.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import IO, Any, ClassVar, Iterable, TypeVar, Union

from repro.errors import ReproError

__all__ = ["Document", "check_object", "from_doc", "read_json", "to_doc",
           "write_json"]

_D = TypeVar("_D", bound="Document")


def check_object(doc: Any, path: str, known: Iterable[str],
                 required: Iterable[str] = (), *,
                 error: type[ReproError] = ReproError) -> dict:
    """Refuse ``doc`` unless it is an object with only ``known`` keys
    and every ``required`` one; returns it."""
    known = list(known)
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got "
                    f"{type(doc).__name__}")
    for what, fields in (
            ("unknown", [k for k in doc if k not in known]),
            ("missing", [k for k in required if k not in doc])):
        if fields:
            raise error(f"{path}: {what} field(s) {fields}; "
                        f"known fields: {known}")
    return doc


@functools.cache
def _schema(cls: type) -> tuple[dict[str, Any], tuple[str, ...]]:
    """(field name -> resolved type hint, names without a default)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            tuple(f.name for f in fields
                  if f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING))


def from_doc(hint: Any, doc: Any, *, error: type[ReproError] = ReproError,
             path: str = "", derived: Iterable[str] = ()) -> Any:
    """Read ``doc`` as ``hint``: a document class, ``Optional[X]``,
    ``tuple[X, ...]`` / ``list[X]``, ``dict[str, X]``, or a scalar type.
    ``derived`` names keys the class's ``to_json`` adds beyond its fields
    (the caller checks those itself)."""
    path = path or getattr(hint, "__name__", str(hint))

    def part(hint: Any, doc: Any, suffix: str = "") -> Any:
        return from_doc(hint, doc, error=error, path=path + suffix)

    if hint is Any:
        return doc
    origin = typing.get_origin(hint)
    if origin in (Union, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        return None if doc is None else part(hint, doc)
    if origin in (tuple, list):  # tuple[X, ...] / list[X]
        item = typing.get_args(hint)[0]
        return origin(part(item, entry, f"[{i}]")
                      for i, entry in enumerate(part(list, doc)))
    if origin is dict:
        (_, item) = typing.get_args(hint)
        return {key: part(item, entry, f"[{key!r}]")
                for key, entry in part(dict, doc).items()}
    if dataclasses.is_dataclass(hint):
        hints, required = _schema(hint)
        check_object(doc, path, [*hints, *derived], required, error=error)
        return hint(**{name: part(hints[name], value, f".{name}")
                       for name, value in doc.items() if name in hints})
    want = origin or hint
    # an int is a legal float; a bool is never a legal number
    if (not isinstance(doc, (int, float) if want is float else want)
            or isinstance(doc, bool) and want is not bool):
        raise error(f"{path}: expected {want.__name__}, got "
                    f"{type(doc).__name__}")
    return want(doc) if want in (dict, list) else doc


def to_doc(obj: Any) -> Any:
    """``obj`` as pure JSON-able data: dataclasses become objects in
    field order, tuples arrays; containers are copied."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_doc(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: to_doc(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_doc(value) for value in obj]
    return obj


class Document:
    """Base of a document class: ``to_json`` / ``from_json`` by its
    dataclass fields, refusing with the subsystem's ``_doc_error``."""

    _doc_error: ClassVar[type[ReproError]] = ReproError

    def to_json(self) -> dict[str, Any]:
        return to_doc(self)

    @classmethod
    def from_json(cls: type[_D], doc: Any) -> _D:
        return from_doc(cls, doc, error=cls._doc_error)


def read_json(path_or_file: Union[str, IO[str]]) -> Any:
    """Parse one JSON document from a path or an open text file."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as fh:
            return json.load(fh)
    return json.load(path_or_file)


def write_json(doc: Any, path_or_file: Union[str, IO[str]]) -> None:
    """Write ``doc`` pretty-printed with stable key order and a
    trailing newline (the form every committed ``.json`` result has)."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)
