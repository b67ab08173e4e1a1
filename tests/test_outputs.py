"""Every output pinned: the ``bench/same_outputs.py`` corpus against its committed manifest.

The corpus is the traces, reports, per-step margins, checker reports, quick
``verify`` outputs, sweep summaries and selections that ``write_outputs``
writes. A change that moves any of them on purpose regenerates the manifest
with ``python bench/same_outputs.py --write-manifest`` and names every moved
path in CHANGES.md. The same corpus, written once, also holds every trace CSV
to its round trip through ``read_trace_csv``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import lpgreedy
from lpgreedy import GreedyTrace, read_trace_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def same_outputs():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("same_outputs")


@pytest.fixture(scope="module")
def corpus(same_outputs, tmp_path_factory):
    """The quick corpus, written once for the tests of this file."""
    out = tmp_path_factory.mktemp("corpus")
    same_outputs.write_outputs(lpgreedy, out, profiles=("quick",))
    return out


def test_every_output_matches_the_manifest(same_outputs, corpus):
    header, expected = same_outputs.read_manifest()
    differences = same_outputs.header_differences(header)
    assert not differences, (
        f"the manifest was made on another host or with other versions ({'; '.join(differences)}): "
        "make it again here before comparing outputs")
    written = same_outputs.digests(corpus)
    moved = sorted(name for name in expected.keys() | written.keys()
                   if expected.get(name) != written.get(name))
    assert not moved, f"{len(moved)} of {len(expected)} outputs moved:\n" + "\n".join(
        f"{name} ({'differs' if name in expected and name in written else 'on one side only'})"
        for name in moved)


def test_every_corpus_trace_parses_and_writes_back_to_its_bytes(corpus):
    paths = sorted(corpus.glob("runs/*/trace.csv"))
    assert len(paths) == 98
    for path in paths:
        meta, records = read_trace_csv(path)
        trace = GreedyTrace(meta["algorithm"], float(meta["initial_residual_norm"]), records,
                            stop_reason=meta["stop_reason"], config_hash=meta["config_hash"])
        assert trace.to_csv_string() == path.read_text(), path.parent.name


def test_a_host_without_simd_targets_keeps_the_header_in_name_value_pairs(same_outputs,
                                                                           monkeypatch):
    from numpy._core._multiarray_umath import __cpu_features__

    here = same_outputs.versions()
    simd = here.split(" simd ")[1].split()[0]
    for feature in __cpu_features__:
        monkeypatch.setitem(__cpu_features__, feature, False)
    words = same_outputs.versions()[2:].split()
    assert len(words) % 2 == 0 and dict(zip(words[::2], words[1::2]))["simd"] == "none"
    assert same_outputs.header_differences(here) == (
        [] if simd == "none" else [f"simd {simd} in the pins, none here"])
