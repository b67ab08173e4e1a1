"""Every output pinned: the ``bench/same_outputs.py`` corpus against its committed manifest.

The corpus is the traces, reports, per-step margins, checker reports, quick
``verify`` outputs, sweep summaries and selections that ``write_outputs``
writes. A change that moves any of them on purpose regenerates the manifest
with ``python bench/same_outputs.py --write-manifest`` and names every moved
path in CHANGES.md.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import lpgreedy

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_output_matches_the_manifest(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    same_outputs = importlib.import_module("same_outputs")
    header, expected = same_outputs.read_manifest()
    assert header == same_outputs.versions(), (
        f"the manifest was made with {header[2:]!r} but this is {same_outputs.versions()[2:]!r}: "
        "make it again with these versions before comparing outputs")
    same_outputs.write_outputs(lpgreedy, tmp_path, profiles=("quick",))
    written = same_outputs.digests(tmp_path)
    moved = sorted(name for name in expected.keys() | written.keys()
                   if expected.get(name) != written.get(name))
    assert not moved, f"{len(moved)} of {len(expected)} outputs moved:\n" + "\n".join(
        f"{name} ({'differs' if name in expected and name in written else 'on one side only'})"
        for name in moved)
