"""Wire-model extraction, doc gating and seed-corpus tests.

Three layers:

1. extraction is pinned on a *frozen* mini-protocol module, so any
   change to the extractor's lifting rules fails here first, with a
   readable diff, rather than surfacing as mysterious doc drift;
2. the real ``core/protocol.py`` / ``docs/PROTOCOL.md`` pair must agree
   (the self-host gate), and a deliberately mutated doc must NOT —
   proving the gate can actually fire;
3. the boundary-value corpus round-trips through the real decoders:
   every ``VALID_SEEDS`` datagram decodes, every other seed raises
   ``ProtocolError`` — so extractor drift from the code fails loudly.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_checkers
from repro.analysis.framework import ModuleSource, lint_paths
from repro.analysis.wiremodel import (
    VALID_SEEDS,
    build_seed_corpus,
    check_doc,
    extract_protocol_model,
    find_protocol_doc,
    write_corpus,
)
from repro.core import protocol

REPO_ROOT = Path(__file__).resolve().parents[2]
PROTOCOL_PY = REPO_ROOT / "src" / "repro" / "core" / "protocol.py"
PROTOCOL_MD = REPO_ROOT / "docs" / "PROTOCOL.md"

# Frozen mini-protocol: the extraction-pinning fixture.  Exercises every
# lifting rule — struct.Struct formats, _TYPE_ constants, plain ints,
# folded arithmetic (2**16 - 1, shifts, Struct.size references) — while
# staying small enough to eyeball.
MINI_PROTOCOL = textwrap.dedent("""
    import struct

    MAGIC = 0x4A51
    VERSION = 1
    _TYPE_REQUEST = 1
    _TYPE_RESPONSE = 2
    _TYPE_MASK = 0x7F

    _HEADER = struct.Struct("!HBBH")
    _ENTRY = struct.Struct("!QH")

    MAX_KEY_BYTES = 2**12
    MAX_COUNT = 2**16 - 1
    FLAG_TRACED = 1 << 7
    HEADER_AND_ENTRY = _HEADER.size + _ENTRY.size
    NOT_A_CONSTANT = "strings are not lifted"
""")


def _mini_model():
    return extract_protocol_model(ModuleSource("core/protocol.py",
                                           MINI_PROTOCOL))


def test_extraction_pinned_on_frozen_module():
    model = _mini_model()
    assert model.frame_types == {"REQUEST": 1, "RESPONSE": 2}
    assert model.structs == {
        "_HEADER": {"format": "!HBBH", "size": 6},
        "_ENTRY": {"format": "!QH", "size": 10},
    }
    assert model.constants == {
        "MAGIC": 0x4A51,
        "VERSION": 1,
        "_TYPE_MASK": 0x7F,          # masked out of frame_types by name
        "MAX_KEY_BYTES": 4096,
        "MAX_COUNT": 65535,
        "FLAG_TRACED": 0x80,
        "HEADER_AND_ENTRY": 16,      # folded from Struct.size arithmetic
    }


def test_spec_document_shape():
    spec = _mini_model().as_dict()
    assert spec["version"] == 1
    assert spec["module"] == "core/protocol.py"
    # frame_types are ordered by type byte for a stable artifact diff
    assert list(spec["frame_types"]) == ["REQUEST", "RESPONSE"]


def test_real_protocol_extraction_matches_runtime_constants():
    model = extract_protocol_model(ModuleSource(
        str(PROTOCOL_PY), PROTOCOL_PY.read_text(encoding="utf-8")))
    # Spot-check against the imported module: if the extractor ever
    # mis-folds, the static model and the runtime disagree here.
    assert model.constant("MAGIC") == protocol.MAGIC
    assert model.constant("MAX_FRAME_MESSAGES") == \
        protocol.MAX_FRAME_MESSAGES
    assert model.constant("MAX_KEY_BYTES") == protocol.MAX_KEY_BYTES
    assert model.constant("FLAG_FRAME_TRACED") == \
        protocol.FLAG_FRAME_TRACED
    assert model.frame_types["SNAPSHOT_XFER"] == \
        protocol._TYPE_SNAPSHOT_XFER
    assert model.frame_types["TOPOLOGY"] == protocol._TYPE_TOPOLOGY
    assert len(model.frame_types) == 8
    assert len(model.structs) >= 15


def test_real_doc_agrees_with_code():
    # The acceptance gate: code and PROTOCOL.md describe one protocol.
    model = extract_protocol_model(ModuleSource(
        str(PROTOCOL_PY), PROTOCOL_PY.read_text(encoding="utf-8")))
    drifts = check_doc(model, PROTOCOL_MD.read_text(encoding="utf-8"))
    assert drifts == []


def test_deliberate_doc_edit_fails_the_gate():
    model = extract_protocol_model(ModuleSource(
        str(PROTOCOL_PY), PROTOCOL_PY.read_text(encoding="utf-8")))
    doc = PROTOCOL_MD.read_text(encoding="utf-8")
    mutated = doc.replace("type 6  SNAPSHOT_XFER",
                          "type 9  SNAPSHOT_XFER")
    assert mutated != doc
    drifts = check_doc(model, mutated)
    assert any("type 9" in d and "SNAPSHOT_XFER" in d for d in drifts)

    mutated = doc.replace("1 <= C <= 256", "1 <= C <= 512")
    assert mutated != doc
    drifts = check_doc(model, mutated)
    assert any("512" in d and "MAX_FRAME_MESSAGES" in d for d in drifts)


def test_drift_checker_fires_through_lint(tmp_path):
    # Full pipeline: a tree whose docs/PROTOCOL.md disagrees with its
    # core/protocol.py must produce wire-doc-drift findings.
    (tmp_path / "src" / "core").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "core" / "protocol.py").write_text(MINI_PROTOCOL)
    (tmp_path / "docs" / "PROTOCOL.md").write_text(
        "type (1=request, 9=response)\nmagic 0x4A51\n")
    result = lint_paths([str(tmp_path / "src")], all_checkers(),
                        rules=["wire-doc-drift"])
    assert result.findings, "mutated doc produced no drift findings"
    assert all(f.rule == "wire-doc-drift" for f in result.findings)
    assert any("type 9" in f.message for f in result.findings)


def test_drift_checker_silent_without_doc(tmp_path):
    (tmp_path / "core").mkdir(parents=True)
    (tmp_path / "core" / "protocol.py").write_text(MINI_PROTOCOL)
    result = lint_paths([str(tmp_path)], all_checkers(),
                        rules=["wire-doc-drift"])
    assert result.ok


def test_find_protocol_doc_walks_up():
    assert find_protocol_doc(str(PROTOCOL_PY)) == PROTOCOL_MD


@pytest.fixture(scope="module")
def corpus():
    model = extract_protocol_model(ModuleSource(
        str(PROTOCOL_PY), PROTOCOL_PY.read_text(encoding="utf-8")))
    return build_seed_corpus(model)


def test_valid_seeds_decode_with_real_decoders(corpus):
    for name in sorted(VALID_SEEDS):
        version, messages = protocol.decode_any(corpus[name])
        assert messages, f"{name} decoded to nothing"
        assert version in (protocol.VERSION, protocol.VERSION2)


def test_invalid_seeds_all_raise_protocol_error(corpus):
    for name, blob in sorted(corpus.items()):
        if name in VALID_SEEDS:
            continue
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_any(blob)
            pytest.fail(f"malformed seed {name} decoded silently")


def test_seed_boundaries_come_from_the_model(corpus):
    # max-key seed is exactly at the bound; over-key exactly one past it
    assert len(corpus["v2_request_max_key"]) - len(
        corpus["v2_key_over"]) == -1
    header = corpus["v2_count_over"]
    count = int.from_bytes(header[4:6], "big")
    assert count == protocol.MAX_FRAME_MESSAGES + 1


def test_write_corpus_manifest(tmp_path, corpus):
    model = extract_protocol_model(ModuleSource(
        str(PROTOCOL_PY), PROTOCOL_PY.read_text(encoding="utf-8")))
    target = write_corpus(model, tmp_path / "corpus")
    names = {p.stem for p in target.glob("*.bin")}
    assert names == set(corpus)
    import json
    manifest = json.loads((target / "manifest.json").read_text())
    assert set(manifest["seeds"]) == set(corpus)
    assert manifest["seeds"]["v2_request_one"]["valid"] is True
    assert manifest["seeds"]["bad_magic"]["valid"] is False
