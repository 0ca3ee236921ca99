"""The paper's central correctness claim, tested as a property.

Under *any* reader/writer schedule, a SABRe that reports success must
have returned an atomic snapshot (no torn payloads), for every sound
CC variant.  Hypothesis drives randomized contention mixes; the
ground-truth stamp audit in the microbenchmark does the checking.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SabreMode, sabre_cluster
from repro.workloads.microbench import MicrobenchConfig, run_microbench

SOUND_MODES = (
    SabreMode.SPECULATIVE,
    SabreMode.NO_SPECULATION,
    SabreMode.LOCKING,
)

schedules = st.fixed_dictionaries(
    {
        "object_size": st.sampled_from([64, 128, 200, 1024, 4096]),
        "n_objects": st.integers(min_value=1, max_value=12),
        "readers": st.integers(min_value=1, max_value=4),
        "writers": st.integers(min_value=1, max_value=6),
        "seed": st.integers(min_value=0, max_value=2**31),
        "writer_think_ns": st.sampled_from([0.0, 100.0, 800.0]),
    }
)


def run_schedule(mode: SabreMode, params: dict):
    cfg = MicrobenchConfig(
        mechanism="sabre",
        duration_ns=30_000.0,
        warmup_ns=4_000.0,
        cluster=sabre_cluster(mode=mode),
        **params,
    )
    return run_microbench(cfg)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=schedules)
def test_speculative_sabres_never_return_torn_data(params):
    result = run_schedule(SabreMode.SPECULATIVE, params)
    assert result.undetected_violations == 0


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=schedules)
def test_no_speculation_never_returns_torn_data(params):
    result = run_schedule(SabreMode.NO_SPECULATION, params)
    assert result.undetected_violations == 0


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=schedules)
def test_locking_never_returns_torn_data_and_never_aborts(params):
    result = run_schedule(SabreMode.LOCKING, params)
    assert result.undetected_violations == 0
    assert result.sabre_aborts == 0


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=schedules)
def test_percl_versions_detect_all_torn_reads_with_wide_stamps(params):
    """With 16-bit stamps and short runs (no version wraparound), the
    software check also catches every violation — at a CPU cost."""
    cfg = MicrobenchConfig(
        mechanism="percl_versions",
        duration_ns=30_000.0,
        warmup_ns=4_000.0,
        **params,
    )
    result = run_microbench(cfg)
    assert result.undetected_violations == 0


fair_schedules = st.fixed_dictionaries(
    {
        "object_size": st.sampled_from([64, 128, 1024, 4096]),
        # Liveness needs a *fair* schedule: a zero-think writer that
        # saturates a single object legitimately livelocks optimistic
        # readers (the case for locking/RPC fallback, §5.1).
        "n_objects": st.integers(min_value=4, max_value=12),
        "readers": st.integers(min_value=1, max_value=4),
        "writers": st.integers(min_value=1, max_value=6),
        "seed": st.integers(min_value=0, max_value=2**31),
        "writer_think_ns": st.sampled_from([200.0, 800.0]),
    }
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=fair_schedules)
def test_progress_under_contention(params):
    """Liveness: despite aborts and retries, readers keep completing
    whenever writers leave any slack at all."""
    result = run_schedule(SabreMode.SPECULATIVE, params)
    assert len(result.op_latency) > 0
