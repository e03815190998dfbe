"""Twin-parity checker (``repro lint --deep``).

The fast kernels keep numpy and pure-Python implementations of the same
semantics side by side — ``PackedTrace.chunk_groups_streamed`` next
to ``chunk_groups``, ``ChannelController.enqueue_batch`` next to
``enqueue``, and so on.  Runtime differential suites prove the
twins bit-identical, but only when someone runs them: editing one leg
and shipping is the failure mode.  This registry makes the pairing a
static contract:

* every twin pair (and every *fused* twin — one function holding both
  an ``if _np is not None`` leg and its pure fallback) is fingerprinted
  in ``twin_manifest.json`` exactly like the kernel-drift manifest;
  editing either side fails ``repro lint --deep`` until the
  differential suites have been re-run and the manifest re-acknowledged
  with ``repro lint --update-manifest``;
* pairs flagged ``same_signature`` must keep their argument shapes in
  agreement (positional-arg count, defaults, vararg/kwarg presence —
  names may differ), so a parameter added to one leg cannot silently
  desynchronise the other.

Fingerprinting reuses the kernel manifest's normalisation (comments,
docstrings, and layout stripped), so a reformat never trips it.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TwinPair:
    """A numpy leg and its pure twin (``pure`` None for fused twins)."""

    name: str
    numpy: str  # "repro/<path>.py::<qualname>"
    pure: Optional[str] = None
    same_signature: bool = True

    def sides(self) -> Tuple[str, ...]:
        return (self.numpy,) if self.pure is None else (self.numpy, self.pure)


#: Every numpy<->pure twin the differential suites keep honest.  Fused
#: entries are single functions whose numpy and pure legs share a body;
#: drift detection still applies, signature agreement is trivial.
TWIN_PAIRS: Tuple[TwinPair, ...] = (
    TwinPair(
        "controller-batch",
        "repro/dram/controller.py::ChannelController.enqueue_batch",
        "repro/dram/controller.py::ChannelController.enqueue",
        same_signature=False,
    ),
    TwinPair(
        "controller-run",
        "repro/dram/controller.py::ChannelController.enqueue_run",
        "repro/dram/controller.py::ChannelController.enqueue",
        same_signature=False,
    ),
    TwinPair(
        # The streamed generator must yield, window for window, exactly
        # what the eager grouping computes over the same records; the
        # windowed-vs-in-memory differential suite proves it, this pair
        # keeps the two implementations pinned together.
        "chunk-groups-streamed",
        "repro/trace/packed.py::PackedTrace.chunk_groups_streamed",
        "repro/trace/packed.py::PackedTrace.chunk_groups",
        same_signature=False,
    ),
    # fused twins: one body, both legs
    TwinPair("chunk-groups", "repro/trace/packed.py::PackedTrace.chunk_groups"),
    TwinPair("trace-v1-encode", "repro/trace/io.py::_encode_records_v1"),
    TwinPair("trace-v1-decode", "repro/trace/io.py::_decode_records_v1"),
    TwinPair("trace-v2-encode-plane", "repro/trace/io.py::_encode_plane"),
    TwinPair("trace-v2-load-planes", "repro/trace/io.py::load_columnar_planes"),
    TwinPair("single-plane", "repro/kernel/replay.py::_single_plane"),
    TwinPair("hybrid-decode", "repro/kernel/replay.py::_hybrid_decode"),
)

_TWIN_MANIFEST_FILE = Path(__file__).resolve().parent / "twin_manifest.json"


def _signature_shape(func: ast.AST) -> Tuple[int, int, bool, int, int, bool]:
    """Name-insensitive argument shape of a function definition."""
    args = func.args
    return (
        len(args.posonlyargs) + len(args.args),
        len(args.defaults),
        args.vararg is not None,
        len(args.kwonlyargs),
        sum(1 for d in args.kw_defaults if d is not None),
        args.kwarg is not None,
    )


def twin_fingerprints(root: Optional[Path] = None) -> Dict[str, str]:
    """``side key -> normalized fingerprint`` for every registered side."""
    from .lint import _function_node, _normalized_fingerprint, package_root

    base = (Path(root) if root is not None else package_root()).parent
    out: Dict[str, str] = {}
    sources: Dict[str, Tuple[str, ast.Module]] = {}
    for pair in TWIN_PAIRS:
        for side in pair.sides():
            path, _, qualname = side.partition("::")
            if path not in sources:
                text = (base / path).read_text(encoding="utf-8")
                sources[path] = (text, ast.parse(text))
            text, tree = sources[path]
            node = _function_node(tree, qualname)
            if node is None:
                out[side] = "<missing>"
            else:
                out[side] = _normalized_fingerprint(text, node)
    return out


def load_twin_manifest(path: Optional[Path] = None) -> Dict[str, str]:
    file = Path(path) if path is not None else _TWIN_MANIFEST_FILE
    if not file.exists():
        return {}
    payload = json.loads(file.read_text(encoding="utf-8"))
    return dict(payload.get("twins", {}))


def write_twin_manifest(
    fingerprints: Dict[str, str], path: Optional[Path] = None
) -> None:
    file = Path(path) if path is not None else _TWIN_MANIFEST_FILE
    payload = {
        "comment": (
            "Normalized fingerprints of the numpy<->pure twin functions. "
            "Regenerate with `repro lint --update-manifest` only after "
            "the differential suites (tests/test_kernel_differential.py, "
            "tests/test_tracker_batch.py, tests/test_dram_controller_batch.py, "
            "tests/test_contended_differential.py) pass on the new code."
        ),
        "twins": dict(sorted(fingerprints.items())),
    }
    file.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_twin_parity(
    root: Optional[Path] = None, manifest_path: Optional[Path] = None
) -> List[Tuple[str, int, str, str]]:
    """Signature-agreement and manifest-drift findings for every twin.

    Returns ``(path, line, qualname, message)`` tuples; rule assignment
    and allowlisting happen in :mod:`repro.analysis.lint`.
    """
    from .lint import _function_node, package_root

    base = (Path(root) if root is not None else package_root()).parent
    manifest = load_twin_manifest(manifest_path)
    fingerprints = twin_fingerprints(root)
    found: List[Tuple[str, int, str, str]] = []
    trees: Dict[str, ast.Module] = {}
    for pair in TWIN_PAIRS:
        nodes = {}
        for side in pair.sides():
            path, _, qualname = side.partition("::")
            if path not in trees:
                trees[path] = ast.parse(
                    (base / path).read_text(encoding="utf-8")
                )
            node = _function_node(trees[path], qualname)
            if node is None:
                found.append(
                    (
                        path,
                        1,
                        qualname,
                        f"twin '{pair.name}' side {qualname} is missing; "
                        "update TWIN_PAIRS in repro/analysis/twins.py",
                    )
                )
            nodes[side] = node
        numpy_node = nodes.get(pair.numpy)
        pure_node = nodes.get(pair.pure) if pair.pure else None
        if (
            pair.pure is not None
            and pair.same_signature
            and numpy_node is not None
            and pure_node is not None
            and _signature_shape(numpy_node) != _signature_shape(pure_node)
        ):
            path, _, _ = pair.pure.partition("::")
            found.append(
                (
                    path,
                    pure_node.lineno,
                    pair.pure.partition("::")[2],
                    f"twin '{pair.name}' signature mismatch: "
                    f"{pair.numpy.partition('::')[2]} and "
                    f"{pair.pure.partition('::')[2]} no longer take the "
                    "same argument shape; change both legs together",
                )
            )
        for side in pair.sides():
            path, _, qualname = side.partition("::")
            node = nodes.get(side)
            if node is None:
                continue
            recorded = manifest.get(side)
            if recorded is None:
                found.append(
                    (
                        path,
                        node.lineno,
                        qualname,
                        f"twin '{pair.name}' side {qualname} is not in the "
                        "twin manifest; run the differential suites, then "
                        "`repro lint --update-manifest`",
                    )
                )
            elif recorded != fingerprints[side]:
                found.append(
                    (
                        path,
                        node.lineno,
                        qualname,
                        f"twin '{pair.name}' side {qualname} changed since "
                        "the manifest was acknowledged; re-run the "
                        "differential suites on BOTH legs, then "
                        "`repro lint --update-manifest`",
                    )
                )
    return found
