"""Wire-model extractor: lift the protocol from code, gate it against docs.

``core/protocol.py`` and ``docs/PROTOCOL.md`` describe the same nine
v1/v2 frame layouts — one in ``struct`` formats, one in tables.  Nothing
before this PR checked them against each other, and reproducibility
reports (Pellegrini, PAPERS.md) show artifact/write-up drift is the
default failure mode, not the exception.  This module closes that gap
statically:

- :func:`extract_protocol_model` walks the protocol module's AST (no import,
  no execution) and lifts the **wire model**: frame-type constants
  (``_TYPE_*``), every ``struct.Struct`` format with its computed size,
  and the numeric protocol constants (``MAGIC``, ``MAX_*``, ``FLAG_*``,
  ``TOPOLOGY_*`` …), folding simple constant arithmetic like
  ``2**32 - 1`` and ``_XFER_HEAD.size``.
- :func:`check_doc` compares that model against the frame tables in
  ``docs/PROTOCOL.md`` — the ``type N NAME`` rows, magic, count/key/
  datagram/TTL/lease bounds, trace flag and topology phase bytes — and
  returns one drift message per disagreement.  The
  :class:`WireDocDriftChecker` lint rule turns any drift into a CI
  failure.
- :func:`build_seed_corpus` emits boundary-value datagrams straight from
  the extracted model (maximum counts, maximum key, off-by-one
  truncations, reserved values) as seeds for the protocol fuzz tests in
  ``tests/core/test_protocol.py`` — so the fuzzers start at the edges
  the *code* declares, not edges a test author remembered.

The extracted spec serializes to JSON (:meth:`WireModel.as_dict`,
``janus lint --wire-spec``) and is uploaded as a CI artifact, giving
external implementers a machine-readable contract.
"""

from __future__ import annotations

import ast
import json
import re
import struct as struct_mod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.framework import Checker, Finding, ModuleSource

__all__ = [
    "WireModel",
    "WireDocDriftChecker",
    "build_seed_corpus",
    "check_doc",
    "extract_protocol_model",
    "find_protocol_doc",
    "write_corpus",
]

#: Schema version of the wire-spec JSON document.
WIRE_SPEC_VERSION = 1


@dataclass(slots=True)
class WireModel:
    """Everything the extractor lifted from one protocol module."""

    module_path: str
    #: frame-type name (``_TYPE_`` stripped) → type byte value
    frame_types: "dict[str, int]" = field(default_factory=dict)
    #: struct constant name → ``{"format": str, "size": int}``
    structs: "dict[str, dict]" = field(default_factory=dict)
    #: every other module-level integer constant
    constants: "dict[str, int]" = field(default_factory=dict)
    #: source line of each lifted name, for findings
    lines: "dict[str, int]" = field(default_factory=dict)

    def constant(self, name: str) -> Optional[int]:
        return self.constants.get(name)

    def as_dict(self) -> dict:
        return {
            "version": WIRE_SPEC_VERSION,
            "module": self.module_path,
            "frame_types": dict(sorted(self.frame_types.items(),
                                       key=lambda kv: kv[1])),
            "structs": {name: dict(info) for name, info
                        in sorted(self.structs.items())},
            "constants": dict(sorted(self.constants.items())),
        }


class _ConstFolder:
    """Fold the constant arithmetic protocol modules actually use."""

    def __init__(self, model: WireModel):
        self.model = model

    def fold(self, node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, int) and \
                not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            return self.model.constants.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr == "size" and \
                isinstance(node.value, ast.Name):
            info = self.model.structs.get(node.value.id)
            return info["size"] if info else None
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, ast.USub):
            value = self.fold(node.operand)
            return -value if value is not None else None
        if isinstance(node, ast.BinOp):
            left, right = self.fold(node.left), self.fold(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv) and right != 0:
                return left // right
            if isinstance(node.op, ast.Pow) and 0 <= right <= 64:
                return left ** right
            if isinstance(node.op, ast.LShift) and 0 <= right <= 64:
                return left << right
        return None


def _struct_format(value: ast.expr) -> Optional[str]:
    """The format string of a ``struct.Struct("...")`` call, if that is
    what ``value`` is."""
    if not (isinstance(value, ast.Call) and value.args
            and isinstance(value.args[0], ast.Constant)
            and isinstance(value.args[0].value, str)):
        return None
    func = value.func
    named_struct = (
        (isinstance(func, ast.Attribute) and func.attr == "Struct")
        or (isinstance(func, ast.Name) and func.id == "Struct"))
    return value.args[0].value if named_struct else None


def extract_protocol_model(module: ModuleSource) -> WireModel:
    """Statically lift the wire model from a parsed protocol module."""
    model = WireModel(module.path)
    folder = _ConstFolder(model)
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1 \
                or not isinstance(node.targets[0], ast.Name):
            continue
        name = node.targets[0].id
        fmt = _struct_format(node.value)
        if fmt is not None:
            try:
                size = struct_mod.calcsize(fmt)
            except struct_mod.error:
                continue          # protocol-invariants rule reports this
            model.structs[name] = {"format": fmt, "size": size}
            model.lines[name] = node.lineno
            continue
        value = folder.fold(node.value)
        if value is None:
            continue
        model.lines[name] = node.lineno
        if name.startswith("_TYPE_") and name != "_TYPE_MASK":
            model.frame_types[name[len("_TYPE_"):]] = value
        else:
            model.constants[name] = value
    return model


# ----------------------------------------------------------------- #
# doc cross-check
# ----------------------------------------------------------------- #

#: ``type 6  SNAPSHOT_XFER`` rows in the doc's frame tables.
_DOC_TYPE_ROW = re.compile(r"^type\s+(\d+)\s+([A-Z][A-Z_]+)\b",
                           re.MULTILINE)

#: Scalar doc claims checked against model constants: each pattern's
#: first group captures the documented number (underscores allowed).
_DOC_SCALARS: "tuple[tuple[str, re.Pattern, str], ...]" = (
    ("MAX_FRAME_MESSAGES",
     re.compile(r"1 <= C <= ([\d_]+)"),
     "v2 frame count bound"),
    ("MAX_KEY_BYTES",
     re.compile(r"key length L \(u16, <= ([\d_]+)\)"),
     "key length bound"),
    ("MAX_DATAGRAM_BYTES",
     re.compile(r"([\d_]+)-byte datagram ceiling"),
     "datagram ceiling"),
    ("MAX_LEASE_TTL_MS",
     re.compile(r"ttl_ms \(u32, 0\.\.([\d_]+)\)"),
     "lease TTL bound"),
    ("MAX_BUCKET_LEASES",
     re.compile(r"lease count N \(u16, <= ([\d_]+)\)"),
     "per-bucket lease bound"),
)

#: v1/v2 basic-frame types documented inline rather than as table rows.
_DOC_INLINE_TYPES = re.compile(
    r"type \((\d+)=request,?\s*(\d+)=response\)")

_DOC_PHASES = re.compile(
    r"phase \((\d+) = PREPARE, (\d+) = COMMIT, (\d+) = ABORT\)")


def check_doc(model: WireModel, doc_text: str) -> "list[str]":
    """Compare the extracted model against a PROTOCOL.md; return drifts."""
    drifts: "list[str]" = []
    doc_types = {name: int(num)
                 for num, name in _DOC_TYPE_ROW.findall(doc_text)}
    basic = {"REQUEST", "RESPONSE"}
    for name, value in sorted(model.frame_types.items(),
                              key=lambda kv: kv[1]):
        if name in basic:
            continue
        if name not in doc_types:
            drifts.append(f"frame type {name} (= {value}) has no "
                          f"'type N {name}' row in the doc's tables")
        elif doc_types[name] != value:
            drifts.append(f"doc table says type {doc_types[name]} "
                          f"{name} but the code defines type {value}")
    for name, value in sorted(doc_types.items()):
        if name not in model.frame_types:
            drifts.append(f"doc table lists type {value} {name} but the "
                          f"code defines no _TYPE_{name}")
    inline = _DOC_INLINE_TYPES.search(doc_text)
    if inline is None:
        drifts.append("doc is missing the v1 'type (1=request, "
                      "2=response)' line")
    else:
        for doc_val, name in zip(map(int, inline.groups()),
                                 ("REQUEST", "RESPONSE")):
            code_val = model.frame_types.get(name)
            if code_val is not None and code_val != doc_val:
                drifts.append(f"doc says {name.lower()} is type "
                              f"{doc_val} but the code defines "
                              f"type {code_val}")
    magic = model.constant("MAGIC")
    if magic is not None and f"0x{magic:04X}" not in doc_text:
        drifts.append(f"doc never states the magic 0x{magic:04X}")
    flag = model.constant("FLAG_FRAME_TRACED")
    if flag is not None and f"0x{flag:02X}" not in doc_text:
        drifts.append(f"doc never states the trace flag bit 0x{flag:02X}")
    for const, pattern, label in _DOC_SCALARS:
        value = model.constant(const)
        if value is None:
            continue
        claims = [int(m.replace("_", ""))
                  for m in pattern.findall(doc_text)]
        if not claims:
            drifts.append(f"doc never states the {label} "
                          f"({const} = {value})")
            continue
        for claim in claims:
            if claim != value:
                drifts.append(f"doc claims {label} {claim} but "
                              f"{const} = {value}")
    phases = _DOC_PHASES.search(doc_text)
    if phases is not None:
        for doc_val, const in zip(
                map(int, phases.groups()),
                ("TOPOLOGY_PREPARE", "TOPOLOGY_COMMIT", "TOPOLOGY_ABORT")):
            code_val = model.constant(const)
            if code_val is not None and code_val != doc_val:
                drifts.append(f"doc phase table says {const.split('_')[1]}"
                              f" = {doc_val} but {const} = {code_val}")
    elif model.constant("TOPOLOGY_PREPARE") is not None:
        drifts.append("doc is missing the topology phase byte table")
    return drifts


def find_protocol_doc(module_path: str) -> "Optional[Path]":
    """Locate ``docs/PROTOCOL.md`` above a protocol module, if present."""
    path = Path(module_path).resolve()
    for parent in list(path.parents)[:8]:
        candidate = parent / "docs" / "PROTOCOL.md"
        if candidate.is_file():
            return candidate
    return None


class WireDocDriftChecker(Checker):
    """``core/protocol.py`` must agree with ``docs/PROTOCOL.md``."""

    rule = "wire-doc-drift"
    description = ("extract the wire model (frame types, struct formats, "
                   "bounds) from core/protocol.py and fail on any "
                   "disagreement with docs/PROTOCOL.md's frame tables")
    #: Depends on a file outside the linted tree, so the incremental
    #: cache must always re-run it (see repro.analysis.cache).
    cacheable = False

    def applies_to(self, module: ModuleSource) -> bool:
        path = Path(module.path)
        return path.name == "protocol.py" and "core" in path.parts

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        doc = find_protocol_doc(module.path)
        if doc is None:
            return                 # fixture tree without docs/: nothing to gate
        model = extract_protocol_model(module)
        if not model.frame_types:
            return                 # not actually a wire-protocol module
        doc_text = doc.read_text(encoding="utf-8")
        anchor = min(model.lines.values(), default=1)
        for drift in check_doc(model, doc_text):
            yield Finding(rule=self.rule, path=module.path, line=anchor,
                          col=1, message=f"{doc.name} drift: {drift}")


# ----------------------------------------------------------------- #
# boundary-value seed corpus
# ----------------------------------------------------------------- #

def build_seed_corpus(model: WireModel) -> "dict[str, bytes]":
    """Boundary-value datagrams derived from the extracted model.

    Built from the *model*, not from importing the protocol module —
    if extraction drifts from the code, round-tripping these seeds
    through the real decoders fails loudly in the corpus test.
    """
    magic = model.constant("MAGIC") or 0
    v2 = model.constant("VERSION2") or 2
    v1 = model.constant("VERSION") or 1
    max_msgs = model.constant("MAX_FRAME_MESSAGES") or 256
    max_key = model.constant("MAX_KEY_BYTES") or 4096
    traced = model.constant("FLAG_FRAME_TRACED") or 0x80
    req = model.frame_types.get("REQUEST", 1)
    resp = model.frame_types.get("RESPONSE", 2)

    def v2_header(mtype: int, count: int) -> bytes:
        return struct_mod.pack("!HBBH", magic, v2, mtype, count)

    def v2_request(count: int, key: bytes) -> bytes:
        entry = struct_mod.pack("!QH", 1, len(key)) + key + \
            struct_mod.pack("!d", 1.0)
        return v2_header(req, count) + entry * count

    corpus: "dict[str, bytes]" = {
        # valid boundary forms — decoders must accept these exactly
        "v1_request_min": struct_mod.pack("!HBBQ", magic, v1, req, 1)
        + struct_mod.pack("!H", 1) + b"k" + struct_mod.pack("!d", 1.0),
        "v1_response_min": struct_mod.pack("!HBBQ", magic, v1, resp, 1)
        + struct_mod.pack("!BB", 1, 0),
        "v2_request_one": v2_request(1, b"k"),
        "v2_request_max_key": v2_request(1, b"k" * max_key),
        "v2_response_one": v2_header(resp, 1)
        + struct_mod.pack("!QBB", 1, 1, 0),
        "v2_traced_request": v2_header(req | traced, 1)
        + struct_mod.pack("!Q", 7)
        + struct_mod.pack("!QH", 1, 1) + b"k"
        + struct_mod.pack("!d", 1.0),
        # malformed boundary forms — decoders must raise, never crash
        "empty": b"",
        "short_header": struct_mod.pack("!HB", magic, v2),
        "bad_magic": struct_mod.pack("!HBBH", (magic + 1) & 0xFFFF, v2,
                                     req, 1),
        "bad_version": struct_mod.pack("!HBBH", magic, v2 + 1, req, 1),
        "v2_count_zero": v2_header(req, 0),
        "v2_count_over": v2_header(req, max_msgs + 1),
        "v2_count_lies": v2_request(2, b"k")[:-1],
        "v2_key_over": v2_request(1, b"k" * (max_key + 1)),
        "v2_traced_zero_id": v2_header(req | traced, 1)
        + struct_mod.pack("!Q", 0) + struct_mod.pack("!QH", 1, 1)
        + b"k" + struct_mod.pack("!d", 1.0),
        "v2_truncated_trace": v2_header(req | traced, 1) + b"\x00\x07",
    }
    # one empty-body frame per declared type: exercises every decoder's
    # truncation path, including types this build doesn't know yet
    for name, value in sorted(model.frame_types.items()):
        corpus[f"v2_{name.lower()}_empty_body"] = v2_header(value, 1)
    if "TOPOLOGY" in model.frame_types:
        corpus["v2_topology_epoch_zero"] = (
            v2_header(model.frame_types["TOPOLOGY"], 1)
            + struct_mod.pack("!IB", 0, 0)
            + struct_mod.pack("!B", 1) + b"h" + struct_mod.pack("!H", 1))
    if "XFER_ACK" in model.frame_types:
        corpus["v2_ack_epoch_zero"] = (
            v2_header(model.frame_types["XFER_ACK"], 1)
            + struct_mod.pack("!QIH", 1, 0, 0))
    return corpus


#: Corpus seeds every decoder must *accept*; the rest must raise
#: ProtocolError.
VALID_SEEDS = frozenset({
    "v1_request_min", "v1_response_min", "v2_request_one",
    "v2_request_max_key", "v2_response_one", "v2_traced_request",
})


def write_corpus(model: WireModel, directory: "str | Path") -> Path:
    """Write the seed corpus as ``.bin`` files plus a JSON manifest."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    corpus = build_seed_corpus(model)
    manifest = {}
    for name, blob in sorted(corpus.items()):
        (target / f"{name}.bin").write_bytes(blob)
        manifest[name] = {"bytes": len(blob),
                          "valid": name in VALID_SEEDS}
    (target / "manifest.json").write_text(
        json.dumps({"version": WIRE_SPEC_VERSION, "seeds": manifest},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def _main(argv: "Optional[list[str]]" = None) -> int:
    """``python -m repro.analysis.wiremodel PROTO.py [--out F] [...]``"""
    import argparse
    import sys
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.wiremodel",
        description="extract the wire model from a protocol module")
    parser.add_argument("module", help="path to the protocol module")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the wire-spec JSON here (default: "
                             "stdout)")
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="also write the boundary-value seed corpus")
    parser.add_argument("--check-doc", metavar="FILE", default=None,
                        help="check against this PROTOCOL.md (default: "
                             "auto-discover; '-' to skip)")
    args = parser.parse_args(argv)
    text = Path(args.module).read_text(encoding="utf-8")
    model = extract_protocol_model(ModuleSource(args.module, text))
    spec = json.dumps(model.as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(spec, encoding="utf-8")
    else:
        sys.stdout.write(spec)
    if args.corpus:
        write_corpus(model, args.corpus)
    doc_path: "Optional[Path]" = None
    if args.check_doc and args.check_doc != "-":
        doc_path = Path(args.check_doc)
    elif args.check_doc != "-":
        doc_path = find_protocol_doc(args.module)
    if doc_path is not None:
        drifts = check_doc(model, doc_path.read_text(encoding="utf-8"))
        for drift in drifts:
            print(f"drift: {drift}", file=sys.stderr)
        return 1 if drifts else 0
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(_main())
