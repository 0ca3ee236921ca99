"""Golden artifacts: every service and figure spec's ``rows.json``, the
fuzz fingerprints and a replay metrics snapshot must hash to the values
committed in ``tests/golden/service_sha256.json`` (written by
``tools/golden.py --write``), and every one of those specs must schedule
exactly the committed number of simulator callbacks (``events/*``).
Seed 1 runs in tier-1 (but for the two heavy figures), the other seeds
under ``-m slow``."""

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "golden.py")
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = golden.load_golden()


#: ~15-20 s each even at the golden scale: their seed 1 rides with the
#: slow lane, and with CI's ``tools/golden.py --check`` step.
HEAVY_SPECS = ("fig7b", "fig8")


def _is_heavy(key):
    return any(f"/{name}/" in key for name in HEAVY_SPECS)


def _params(seeds, heavy=None):
    """Every entry over ``seeds``, or only the ``HEAVY_SPECS`` ones
    (``heavy=True``), or only the rest (``heavy=False``)."""
    return [
        pytest.param(compute, GOLDEN[key], id=key)
        for key, compute in golden.entries(seeds)
        if heavy is None or _is_heavy(key) == heavy
    ]


@pytest.fixture(autouse=True)
def _same_libm():
    if golden.canary_hash() != GOLDEN["canary"]:
        pytest.skip(
            "GOLDEN HASHES NOT CHECKED: this platform's math.pow/math.log/"
            "random.Random differ from the one the hashes were written on "
            "(rewrite with tools/golden.py --write on a trusted commit)"
        )


def test_every_golden_key_is_checked_by_some_lane():
    keys = {key for key, _ in golden.entries(golden.SEEDS)}
    assert keys | {"canary"} == set(GOLDEN)


@pytest.mark.parametrize(
    "compute,expected", _params(golden.SEEDS[:1], heavy=False)
)
def test_seed_1_matches_golden(compute, expected):
    assert compute() == expected


@pytest.mark.slow
@pytest.mark.parametrize(
    "compute,expected", _params(golden.SEEDS[:1], heavy=True)
)
def test_seed_1_heavy_figures_match_golden(compute, expected):
    assert compute() == expected


@pytest.mark.slow
@pytest.mark.parametrize("compute,expected", _params(golden.SEEDS[1:]))
def test_other_seeds_match_golden(compute, expected):
    assert compute() == expected


#: Specs whose rows and event count do not depend on the seed, each
#: with the reason; every other spec in ``golden.SPECS`` must.
SEED_INSENSITIVE = {
    # One synchronous reader, no writers, 512 identical memory-resident
    # 8 KB objects at 8 KB-aligned addresses: whichever object the seed
    # picks, the SABRe takes the same path and the same time.
    "ablation_stream_buffer_depth",
}


@pytest.mark.parametrize("name", golden.SPECS)
def test_the_file_tells_seed_1_from_seed_7(name):
    """Anti-vacuity for the other-seeds lane: a spec whose config never
    receives ``seed`` reruns seed 1 under every seed, and its three
    golden entries re-prove one run."""
    same = all(
        GOLDEN[f"{kind}/{name}/1"] == GOLDEN[f"{kind}/{name}/7"]
        for kind in ("spec", "events")
    )
    assert same == (name in SEED_INSENSITIVE)


def test_the_block_mode_variable_is_inert(monkeypatch):
    """There is one block chain and this file is its reference: the
    variable that used to select the stepwise twin changes nothing and
    is not an error.  (Spelled in two halves: CI greps for the whole
    name to keep it from coming back.)"""
    from repro.sim import engine

    monkeypatch.setenv("REPRO_SIM" "_BLOCKS", "stepwise")
    assert engine.block_mode() == "batched"
    rows_hash, events = golden.spec_run("ablation_source_locking", 1)
    assert rows_hash == GOLDEN["spec/ablation_source_locking/1"]
    assert events == GOLDEN["events/ablation_source_locking/1"]


def test_perturbed_rng_label_changes_the_hash(monkeypatch):
    """Anti-vacuity: the hash is sensitive to the picker's RNG label,
    so a refactor that relabels a stream cannot pass unnoticed."""
    from repro.workloads import generators

    real = generators.make_rng
    monkeypatch.setattr(
        generators, "make_rng", lambda seed, *label: real(seed, *label, "x")
    )
    rows_hash, _events = golden.spec_run("ycsb_shard_scaling", 1)
    assert rows_hash != GOLDEN["spec/ycsb_shard_scaling/1"]


def test_one_extra_callback_moves_the_event_count_only(monkeypatch):
    """Anti-vacuity: work that leaves every row unchanged still shows
    in ``events/*``."""
    from repro.sim.engine import Simulator

    real = Simulator.run

    def run_with_a_noop(sim, *args, **kwargs):
        sim.call_soon(lambda: None)
        return real(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", run_with_a_noop)
    rows_hash, events = golden.spec_run("txn_shard_scaling", 1)
    assert rows_hash == GOLDEN["spec/txn_shard_scaling/1"]
    assert events > GOLDEN["events/txn_shard_scaling/1"]


def test_only_events_rewrite_refuses_any_other_drift(monkeypatch, tmp_path):
    """``--write --only-events`` is a perf PR's regeneration: it may
    lower ``events/*`` and nothing else.  A forged rows hash makes it
    exit 1 with the file untouched."""
    import json

    path = tmp_path / "golden.json"
    on_file = {
        "canary": golden.canary_hash(),
        "spec/a/1": "rows-hash",
        "events/a/1": 10,
    }
    path.write_text(json.dumps(on_file))
    computed = {"spec/a/1": "rows-hash", "events/a/1": 7}
    monkeypatch.setattr(golden, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(
        golden,
        "entries",
        lambda seeds: [(key, lambda k=key: computed[k]) for key in computed],
    )

    assert golden.main(["--write", "--only-events"]) == 0
    assert json.loads(path.read_text()) == {**on_file, "events/a/1": 7}

    computed["events/a/1"] = 5
    computed["spec/a/1"] = "forged"
    before = path.read_text()
    assert golden.main(["--write", "--only-events"]) == 1
    assert path.read_text() == before
