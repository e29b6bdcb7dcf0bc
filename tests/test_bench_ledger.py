"""The perf-ledger tool (``tools/bench_ledger.py``): its summary statistics
and the ``--compare`` report on the committed ledgers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger", ROOT / "tools" / "bench_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles(ledger):
    assert ledger.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert ledger.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def _runs(metric, values):
    return [{"metrics": {metric: {"value": v}}} for v in values]


def test_pair_wins_lower_is_better(ledger):
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower"}]
    mine = _runs("setup_s", [1.0, 3.0, 2.0])
    theirs = _runs("setup_s", [2.0, 2.0, 2.0])
    entry = ledger.summarise(mine, theirs, metrics)["setup_s"]
    # Lower wins: pair 1 won, pair 2 lost, pair 3 tied (wins for neither).
    assert entry["pair_wins"] == 1
    assert ledger.summarise(theirs, mine, metrics)["setup_s"]["pair_wins"] == 1
    assert entry["median"] == 2.0 and entry["values"] == [1.0, 3.0, 2.0]


def test_pair_wins_higher_is_better(ledger):
    metrics = [{"name": "requests_per_s", "unit": "req/s", "better": "higher"}]
    mine = _runs("requests_per_s", [1.0, 3.0, 2.0])
    theirs = _runs("requests_per_s", [2.0, 2.0, 2.0])
    assert ledger.summarise(mine, theirs, metrics)["requests_per_s"][
        "pair_wins"
    ] == 1


def test_compare_tells_a_tree_from_its_dirty_child(ledger, capsys):
    # BENCH_pr16.json was measured on its parent's commit plus the
    # uncommitted change; only the full describe string shows that.
    assert ledger.compare(
        str(ROOT / "BENCH_pr15.json"), str(ROOT / "BENCH_pr16.json")
    ) == 0
    header = capsys.readouterr().out.splitlines()[0]
    old, new = header.split(" -> ")
    assert "-dirty" in new and "-dirty" not in old
    assert old.split("(")[1].rstrip(")") != new.split("(")[1].rstrip(")")
