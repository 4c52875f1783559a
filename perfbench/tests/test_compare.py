"""The compare command's verdict rule and digest flags."""

import compare


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
OK = (0.0, 0.0)
WIDE = [80.0, 100.0, 120.0, 90.0, 110.0, 85.0, 105.0, 95.0, 115.0, 100.0]


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_parent_spread():
    change = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1, 10, 10, OK) == "gain"
    assert compare.verdict(PARENT, change, "higher", 0.1, 8, 10, OK) != "gain"
    assert compare.verdict(PARENT, change, "lower", 0.1, 0, 10, OK) == "regression"


def test_no_verdict_from_fewer_than_ten_pairs():
    change = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT[:1], change[:1], "higher", 0.1, 1, 1, OK) == "too few pairs"
    assert compare.verdict(PARENT, change, "higher", 0.1, 9, 9, OK) == "too few pairs"


def test_no_gain_when_the_change_fails_more_runs():
    change = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1, 10, 10, (0.0, 0.0)) == "gain"
    assert compare.verdict(PARENT, change, "higher", 0.1, 10, 10, (0.0, 0.05)) != "gain"
    assert compare.verdict(PARENT, change, "higher", 0.1, 10, 10, (0.1, 0.05)) == "gain"


def test_unresolved_when_spread_exceeds_bound():
    change = [v - 5.0 for v in reversed(WIDE)]
    assert compare.verdict(WIDE, change, "higher", 0.1, 4, 10, OK) == "unresolved"


def test_all_change_runs_better_is_not_unresolved():
    change = [v + 50.0 for v in WIDE]
    assert compare.verdict(WIDE, change, "higher", 0.1, 8, 10, OK) == "within bound"


def test_within_bound():
    change = [v - 1.0 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1, 0, 10, OK) == "within bound"


def test_end_to_end_rows_count_failures_against_a_gain():
    def records(scale, failed):
        return [{"workload": "meso-h50", "trace": 0, "seed": seed, "attempted": 8,
                 "failed": failed,
                 "metrics": {"node_days_per_s": value * scale, "setup_s": 0.3,
                             "peak_rss_mb": 45.0, "driver_rss_mb": 45.0}}
                for seed, value in enumerate(PARENT)]

    spec = {"end_to_end": [{"name": "node_days_per_s", "better": "higher", "bound": 0.1}]}
    rows = compare.end_to_end_rows(records(1.0, 0), records(1.2, 0), spec)
    assert rows[1].endswith("gain")
    rows = compare.end_to_end_rows(records(1.0, 0), records(1.2, 1), spec)
    assert not rows[1].endswith("gain")
    assert "10/80 child runs failed" in rows[-1]


def test_pairs_match_runs_by_seed():
    wins, pairs = compare.pair_wins({1: [1.0], 2: [2.0], 3: [5.0]},
                                    {1: [2.0], 2: [2.0], 4: [9.0]}, "higher")
    assert (wins, pairs) == (1, 2)


def test_digest_mismatches_are_flagged():
    def record(digest):
        return {"workload": "meso-h50", "trace": 0,
                "children": [{"sim_seed": 42, "digest": digest},
                             {"sim_seed": 43, "digest": "same"}]}

    assert compare.digest_mismatches([record("a")], [record("a")]) == []
    flagged = compare.digest_mismatches([record("a")], [record("b")])
    assert len(flagged) == 1 and "seed 42" in flagged[0]
