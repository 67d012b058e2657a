"""RequestTrace: validation, seeded scenario generators, JSONL replay."""

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    SCENARIOS,
    RequestTrace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    scenario_trace,
    trace_from_arrivals,
)


# -- construction and validation ----------------------------------------


def test_trace_validates_sorted_arrivals():
    with pytest.raises(ConfigError):
        trace_from_arrivals((1.0, 0.5))


def test_trace_rejects_empty():
    with pytest.raises(ConfigError):
        trace_from_arrivals(())


def test_trace_rejects_negative_times():
    with pytest.raises(ConfigError):
        trace_from_arrivals((-1.0, 0.5))


@pytest.mark.parametrize("arrivals", [[True, 2.0], [0.0, False],
                                      (0.5, 1, True)])
def test_trace_columns_reject_bool_arrivals(arrivals):
    """Regression: the column check took ``True`` as 1.0, while JSONL
    files and envelopes refuse ``"arrival": true``; the column check
    now says what the row check says."""
    culprit = next(value for value in arrivals if type(value) is bool)
    with pytest.raises(ConfigError, match=f"^arrival must be a number, "
                                          f"got {culprit!r}$"):
        RequestTrace.from_columns(arrivals)


def test_trace_rejects_mismatched_decode_lens():
    with pytest.raises(ConfigError):
        trace_from_arrivals((0.0, 1.0), decode_lens=(32,))


def test_trace_rejects_nonpositive_decode_lens():
    with pytest.raises(ConfigError):
        trace_from_arrivals((0.0, 1.0), decode_lens=(32, 0))


def test_trace_properties():
    trace = trace_from_arrivals((0.0, 1.0, 4.0), scenario="poisson",
                                duration=5.0)
    assert trace.num_requests == 3
    assert trace.duration == 4.0
    assert trace.mean_rate == pytest.approx(3 / 5.0)
    assert trace.scenario == "poisson"
    assert "poisson" in trace.describe()


def test_with_metadata_merges():
    trace = trace_from_arrivals([0.0, 1.0], scenario="custom")
    tagged = trace.with_metadata(run="a")
    assert tagged.metadata["run"] == "a"
    assert tagged.metadata["scenario"] == "custom"
    assert "run" not in trace.metadata  # original untouched


# -- generators ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_seed_deterministic(name):
    first = scenario_trace(name, rate_qps=50, duration=4.0, seed=3)
    second = scenario_trace(name, rate_qps=50, duration=4.0, seed=3)
    assert first == second
    other = scenario_trace(name, rate_qps=50, duration=4.0, seed=4)
    assert first.arrivals != other.arrivals


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_hit_requested_rate(name):
    trace = scenario_trace(name, rate_qps=200, duration=20.0, seed=1)
    assert trace.mean_rate == pytest.approx(200, rel=0.25)
    assert all(0 <= t < 20.0 for t in trace.arrivals)
    assert trace.metadata["scenario"] == name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_sample_decode_lengths(name):
    trace = scenario_trace(name, rate_qps=100, duration=5.0, seed=2,
                           mean_decode_len=256)
    assert trace.decode_lens is not None
    assert len(trace.decode_lens) == trace.num_requests
    mean = sum(trace.decode_lens) / len(trace.decode_lens)
    assert mean == pytest.approx(256, rel=0.25)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("knob", ["rate_qps", "duration"])
def test_scenarios_reject_non_finite_rate_and_duration(name, value, knob):
    """Regression: NaN/inf got past a ``<= 0`` check and the sampling
    loop never terminated (``now >= nan`` is never true; an infinite
    rate draws zero-length gaps)."""
    knobs = {"rate_qps": 50.0, "duration": 2.0, knob: value}
    with pytest.raises(ConfigError, match=f"{knob} must be finite"):
        SCENARIOS[name](knobs["rate_qps"], knobs["duration"], seed=0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_reject_a_negative_seed(name):
    """Regression: numpy's RNG refused a negative seed with a bare
    ``ValueError``, which the CLI printed as a traceback."""
    with pytest.raises(ConfigError, match="seed must be non-negative, "
                                          "got -1"):
        scenario_trace(name, rate_qps=50.0, duration=2.0, seed=-1)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [1.5, "3", True, None])
def test_scenarios_reject_a_non_integer_seed(name, seed):
    """Regression: a float or string seed reached the RNG's seeding and
    failed with a bare ``TypeError``."""
    with pytest.raises(ConfigError, match="seed must be an integer, got "):
        SCENARIOS[name](50.0, 2.0, seed=seed)


@pytest.mark.parametrize("generator, knob", [
    (bursty_trace, "mean_cycle"), (diurnal_trace, "period")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_cycle_knobs_must_be_finite_and_positive(generator, knob, value):
    with pytest.raises(ConfigError, match=f"{knob} must be finite"):
        generator(50.0, 2.0, seed=0, **{knob: value})


def test_bursty_is_burstier_than_poisson():
    """The MMPP's interarrival variance exceeds Poisson's at equal rate."""
    def squared_cov(trace):
        gaps = [b - a for a, b in zip(trace.arrivals, trace.arrivals[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        return var / mean ** 2

    poisson = poisson_trace(100, 30.0, seed=5)
    bursty = bursty_trace(100, 30.0, seed=5)
    assert squared_cov(bursty) > 1.5 * squared_cov(poisson)


def test_diurnal_rate_follows_curve():
    """First-half arrivals (rising sine) outnumber second-half ones."""
    trace = diurnal_trace(100, 20.0, seed=6, amplitude=0.9)
    half = sum(1 for t in trace.arrivals if t < 10.0)
    assert half > 0.6 * trace.num_requests


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        scenario_trace("lunar", rate_qps=10, duration=1.0)


def test_bad_scenario_knobs_rejected():
    with pytest.raises(ConfigError):
        scenario_trace("bursty", rate_qps=10, duration=5.0, warp=9)
    with pytest.raises(ConfigError):
        bursty_trace(10, 5.0, burst_factor=0.5)
    with pytest.raises(ConfigError):
        bursty_trace(10, 5.0, on_fraction=1.5)
    with pytest.raises(ConfigError):
        diurnal_trace(10, 5.0, amplitude=1.5)
    with pytest.raises(ConfigError):
        poisson_trace(0.0, 5.0)


def test_generator_with_no_arrivals_is_a_config_error():
    with pytest.raises(ConfigError):
        poisson_trace(1e-9, 1e-6, seed=0)


# -- JSONL replay -------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    trace = poisson_trace(50, 3.0, seed=9, mean_decode_len=256)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(str(path))
    back = RequestTrace.from_jsonl(str(path))
    assert back.arrivals == pytest.approx(trace.arrivals)
    assert back.decode_lens == trace.decode_lens
    assert back.metadata["scenario"] == "poisson"
    assert back.metadata["source"] == str(path)


def test_jsonl_without_metadata_line(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"arrival": 0.0}\n{"arrival": 1.5}\n')
    trace = RequestTrace.from_jsonl(str(path))
    assert trace.arrivals == (0.0, 1.5)
    assert trace.scenario == "replay"


def test_jsonl_mixed_decode_lens_rejected(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text('{"arrival": 0.0, "decode_len": 16}\n{"arrival": 1.0}\n')
    with pytest.raises(ConfigError):
        RequestTrace.from_jsonl(str(path))


def test_jsonl_bad_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"arrival": 0.0}\nnot json\n')
    with pytest.raises(ConfigError):
        RequestTrace.from_jsonl(str(path))


@pytest.mark.parametrize("row, message", [
    ('{"arrival": 0.0, "decode_len": null}', "decode_len must be an integer"),
    ('{"arrival": 0.0, "decode_len": 2.5}', "decode_len must be an integer"),
    ('{"arrival": 0.0, "decode_len": true}', "decode_len must be an integer"),
    ('{"arrival": 0.0, "decode_len": "64"}', "decode_len must be an integer"),
    ('{"arrival": "soon"}', "arrival must be a number"),
    ('{"arrival": null}', "arrival must be a number"),
    ('{"arrival": false}', "arrival must be a number"),
    ('{"arrival": [1.0]}', "arrival must be a number"),
    pytest.param('{"arrival": ' + "9" * 400 + "}",
                 "arrival is too large for a float", id="int-past-float"),
    # Past the int-conversion digit limit and the recursion limit.
    pytest.param('{"arrival": ' + "1" * 5000 + "}", "invalid JSON",
                 id="huge-int"),
    pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON",
                 id="deep-nesting"),
])
def test_jsonl_malformed_field_types_rejected(tmp_path, row, message):
    """Wrong-typed fields fail with the offending line, never with a
    TypeError/ValueError traceback or a silent truncation."""
    path = tmp_path / "typed.jsonl"
    path.write_text('{"arrival": 0.0, "decode_len": 8}\n' + row + "\n")
    with pytest.raises(ConfigError, match=f":2: {message}"):
        RequestTrace.from_jsonl(str(path))


@pytest.mark.parametrize("duration", [
    '"abc"', "null", "true", "NaN", "Infinity", "-1", "1e400",
    pytest.param("9" * 400, id="int-past-float")])
def test_jsonl_metadata_duration_checked(tmp_path, duration):
    """The observation window rates are taken over must be a finite
    non-negative number, refused at load, not by describe()."""
    path = tmp_path / "window.jsonl"
    path.write_text('{"metadata": {"duration": ' + duration + '}}\n'
                    '{"arrival": 0.0}\n')
    with pytest.raises(ConfigError, match="metadata duration must be"):
        RequestTrace.from_jsonl(str(path))


def test_jsonl_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"arrival": 0.0, "tier": "\xe9"}\n')
    with pytest.raises(ConfigError, match="cannot read trace file"):
        RequestTrace.from_jsonl(str(path))


def test_jsonl_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ConfigError):
        RequestTrace.from_jsonl(str(path))


def test_jsonl_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RequestTrace.from_jsonl(str(tmp_path / "nope.jsonl"))


def test_small_decode_mean_falls_back_to_fixed_lengths():
    trace = poisson_trace(50, 2.0, seed=1, mean_decode_len=8)
    assert set(trace.decode_lens) == {8}
    with pytest.raises(ConfigError):
        poisson_trace(50, 2.0, seed=1, mean_decode_len=0)


# -- analytics (the `repro trace` subcommand's math) --------------------


def test_rate_curve_conserves_request_count():
    from repro.workloads import rate_curve

    trace = poisson_trace(60, 5.0, seed=4)
    curve = rate_curve(trace, bins=10)
    assert len(curve) == 10
    width = 5.0 / 10
    assert sum(rate * width for _, rate in curve) \
        == pytest.approx(trace.num_requests)
    # Bin centers span the observation window in order.
    centers = [center for center, _ in curve]
    assert centers == sorted(centers)
    assert 0.0 < centers[0] < centers[-1] < 5.0


def test_rate_curve_single_instant_trace():
    from repro.workloads import rate_curve

    trace = trace_from_arrivals([2.0, 2.0, 2.0])
    # All arrivals coincident and no recorded duration: one spike bin.
    assert rate_curve(trace_from_arrivals((0.0, 0.0))) \
        == [(0.0, 2.0)]
    curve = rate_curve(trace, bins=4)
    assert sum(rate for _, rate in curve) > 0


def test_rate_curve_validates_bins():
    from repro.workloads import rate_curve

    with pytest.raises(ConfigError):
        rate_curve(poisson_trace(50, 2.0, seed=1), bins=0)


def test_burstiness_cv_separates_scenarios():
    from repro.workloads import burstiness_cv

    smooth = burstiness_cv(poisson_trace(100, 10.0, seed=5))
    spiky = burstiness_cv(bursty_trace(100, 10.0, seed=5))
    # Poisson inter-arrivals have CV ~ 1; an on/off MMPP is burstier.
    assert smooth == pytest.approx(1.0, abs=0.25)
    assert spiky > smooth


def test_burstiness_cv_degenerate_inputs():
    from repro.workloads import burstiness_cv

    with pytest.raises(ConfigError):
        burstiness_cv(trace_from_arrivals([1.0]))
    with pytest.raises(ConfigError):
        burstiness_cv(trace_from_arrivals([1.0, 1.0, 1.0]))


def test_trace_stats_flat_record():
    from repro.workloads import trace_stats

    trace = bursty_trace(80, 6.0, seed=3, mean_decode_len=128)
    stats = trace_stats(trace, bins=12)
    assert stats["scenario"] == "bursty"
    assert stats["requests"] == trace.num_requests
    assert stats["duration"] == pytest.approx(6.0)
    assert stats["peak_qps"] >= stats["mean_qps"]
    assert stats["burstiness_cv"] > 1.0
    assert stats["decode_mean"] > 0
    assert stats["decode_p50"] <= stats["decode_p95"] \
        <= stats["decode_max"]


def test_trace_stats_without_decode_lens():
    from repro.workloads import trace_stats

    stats = trace_stats(poisson_trace(50, 2.0, seed=1))
    assert stats["decode_mean"] is None
    assert stats["decode_p95"] is None


def test_trace_stats_survives_undefined_cv():
    from repro.workloads import trace_stats

    stats = trace_stats(trace_from_arrivals([1.0]))
    assert stats["burstiness_cv"] is None
    assert stats["requests"] == 1


# -- identity-carrying requests and parallel-array construction ---------


def test_compat_tuple_construction_is_bit_identical():
    from repro.workloads import Request

    legacy = trace_from_arrivals((0.0, 1.0, 2.5), decode_lens=(8, 16, 32),
                                 scenario="custom")
    modern = RequestTrace(
        requests=(Request(0.0, 8), Request(1.0, 16), Request(2.5, 32)),
        metadata={"scenario": "custom"})
    assert legacy == modern
    assert legacy.arrivals == (0.0, 1.0, 2.5)
    assert legacy.decode_lens == (8, 16, 32)
    assert not legacy.has_identity
    assert all(isinstance(r, Request) for r in legacy.requests)


def test_requests_must_be_request_records():
    with pytest.raises(ConfigError, match="Request records"):
        RequestTrace(requests=(0.0,))  # loose arrays: trace_from_arrivals


def test_mixed_decode_len_records_rejected():
    from repro.workloads import Request

    with pytest.raises(ConfigError):
        RequestTrace(requests=(Request(arrival=0.0, decode_len=8),
                               Request(arrival=1.0)))


def test_identity_jsonl_round_trip(tmp_path):
    from repro.workloads import Request

    trace = RequestTrace(
        requests=(
            Request(arrival=0.0, decode_len=8, user_id="u000",
                    session_id="u000-s000", tier="paid"),
            Request(arrival=0.5, decode_len=16, user_id="u001",
                    session_id="u001-s000", tier="free"),
        ),
        metadata={"scenario": "sessions"})
    path = tmp_path / "sessions.jsonl"
    trace.to_jsonl(str(path))
    back = RequestTrace.from_jsonl(str(path))
    assert back.requests == trace.requests
    assert back.metadata["scenario"] == "sessions"
    assert back.metadata["source"] == str(path)
    assert back.has_identity


def test_pre_identity_jsonl_loads_bit_identically(tmp_path):
    # A file written before requests carried identity: bare
    # arrival/decode_len rows.
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"metadata": {"scenario": "poisson"}}\n'
        '{"arrival": 0.0, "decode_len": 8}\n'
        '{"arrival": 1.5, "decode_len": 32}\n')
    trace = RequestTrace.from_jsonl(str(path))
    legacy = trace_from_arrivals((0.0, 1.5), decode_lens=(8, 32))
    assert trace.requests == legacy.requests
    assert trace.metadata["scenario"] == "poisson"
    assert not trace.has_identity


def test_tier_and_session_stats():
    from repro.workloads import (Request, session_stats, tier_stats,
                                 trace_from_arrivals)

    trace = RequestTrace(
        requests=(
            Request(arrival=0.0, user_id="a", session_id="a-0",
                    tier="free"),
            Request(arrival=0.1, user_id="a", session_id="a-0",
                    tier="free"),
            Request(arrival=0.2, user_id="b", session_id="b-0",
                    tier="paid"),
            Request(arrival=0.3, user_id="a", session_id="a-1",
                    tier="free"),
        ))
    tiers = tier_stats(trace)
    assert list(tiers) == ["free", "paid"]  # sorted iteration
    assert tiers["free"]["requests"] == 3
    assert tiers["free"]["users"] == 1
    assert tiers["paid"]["share"] == pytest.approx(0.25)
    sessions = session_stats(trace)
    assert sessions["users"] == 2
    assert sessions["sessions"] == 3
    assert sessions["max_session_len"] == 2
    # Anonymous traces: empty tier map, zeroed session summary.
    anonymous = trace_from_arrivals([0.0, 1.0])
    assert tier_stats(anonymous) == {}
    assert session_stats(anonymous)["sessions"] == 0
