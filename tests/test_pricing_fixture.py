"""Pin every solver's charged costs to a committed fixture, bit for bit.

``tests/fixtures/pricing_digests.json`` was generated by
``tests/pricing_digests.py`` from the cost accounting that priced every
sweep afresh, before fixed-shape sweep costs were memoized and BC's
backward pass started reusing its forward costs.  The current code must
reproduce each case's values digest, iteration count, sweep count,
``SimMetrics.summary()`` and ``solve.*`` counter deltas exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import tigr
from repro.verify.cli import VERIFY_DEVICE
from repro.verify.corpus import default_corpus

from pricing_digests import (
    BC_SEED,
    BC_SOURCES,
    FIELDS,
    FIXTURE,
    SEED,
    totals_only,
    cases,
    digest,
    plans,
)

EXPECTED = json.loads(FIXTURE.read_text())
PINNED_FIELDS = EXPECTED.pop("fields")
CASES = dict(cases())


def test_fixture_covers_every_case():
    assert PINNED_FIELDS == list(FIELDS)
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("cid", sorted(CASES))
def test_pricing_matches_fixture(cid):
    assert digest(CASES[cid]) == EXPECTED[cid]


@pytest.mark.parametrize("gname", sorted(default_corpus(SEED)))
@pytest.mark.parametrize("technique", ["exact", "coalescing"])
def test_tigr_bc_gather_prices_like_reference(gname, technique):
    """``tigr.run("bc")`` prices every lane's level sweeps through the
    virtual split, exactly like the per-level reference charges the
    ``tigr/bc`` cases were pinned from (and ledgers no ``solve.*``
    counters)."""
    _graph, plan = plans()[f"{gname}/{technique}"]
    expected = EXPECTED[f"{gname}/{technique}/tigr/bc"]
    got = digest(
        lambda: totals_only(
            tigr.run(
                "bc",
                plan,
                num_bc_sources=BC_SOURCES,
                seed=BC_SEED,
                device=VERIFY_DEVICE,
            )
        )
    )
    assert got == expected
    assert got["counter_sweeps"] == got["counter_cycles"] == "0x0p+0"
