"""The correctness check can fail: a corrupted answer is counted."""

import random

import pytest

import harness
import loadgen
import opstream
from corpora import build_corpus


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    corpus = build_corpus("gk", "gk", str(root / "gk.db"), 12, random.Random(1))
    ops = opstream.point_stream(4, {"gk": ("gk", corpus.run_ids)}, length=256)
    service = corpus.open()
    try:
        outcome = loadgen.closed_loop(
            loadgen.ServiceTarget(service), ops, "indexproj", 1, count=128, seed=4
        )
    finally:
        service.close()
    assert outcome.failed == 0 and len(outcome.sampled) == 128 // loadgen.SAMPLE_EVERY
    return corpus, outcome


def test_sampled_answers_match_the_oracle(sampled):
    corpus, outcome = sampled
    checked, wrong = harness.verify([outcome], {"gk": corpus}, seed=4)
    assert checked == len(outcome.sampled) and wrong == []


def test_a_corrupted_answer_is_counted_and_listed_by_key(sampled):
    corpus, outcome = sampled
    op, strategy, (runs, result) = outcome.sampled[0]
    # Hand the first sampled key the answer to a different question.
    other = next(
        raw for o, _s, raw in outcome.sampled[1:]
        if harness.decode(raw)[1] != harness.decode((runs, result))[1]
    )
    corrupted = loadgen.Outcome()
    corrupted.sampled = [(op, strategy, (runs, other[1]))] + outcome.sampled[1:]
    checked, wrong = harness.verify([corrupted], {"gk": corpus}, seed=4)
    assert checked == len(outcome.sampled)
    assert len(wrong) == 1 and op.query in wrong[0]
