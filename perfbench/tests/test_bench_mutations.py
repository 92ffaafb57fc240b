"""Every certify case comes back with the outcome its construction fixes."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import pytest  # noqa: E402

from kbench import certify, inputs  # noqa: E402
from kbench.trace import Api  # noqa: E402

ALL_CASES = sorted(set(certify.CASES))


@pytest.fixture(scope="module")
def claims():
    recipe = ("cube", 5)
    return certify.Claims(recipe, inputs.build(recipe), inputs.seeded_rng("test", 0), "cube5")


def test_every_verdict_case_is_in_the_mix():
    assert set(certify.VERDICT_CASES) <= set(certify.CASES)
    refuted = {check for verdict, check in certify.VERDICT_CASES.values() if verdict == "REFUTED"}
    assert refuted == {"k-system", "acyclic", "count"}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind,variant", ALL_CASES)
def test_case_outcome(claims, kind, variant, k):
    op = claims.op(kind, variant, k)
    result = certify.run(Api(), op)
    assert result == op.expected
    if (kind, variant) in certify.VERDICT_CASES:
        assert result == certify.VERDICT_CASES[kind, variant]
