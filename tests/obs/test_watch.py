"""Unit tests for the ``repro watch`` snapshot/render layers."""

import pytest

from repro.obs.watch import _derive, parse_prometheus_text, render_text, watch


SCRAPE = """\
# HELP repro_eval_points_total Sweep points resolved, by tier.
# TYPE repro_eval_points_total counter
repro_eval_points_total{tier="evaluated"} 7
repro_eval_points_total{tier="memo"} 3
repro_memo_evictions_total 9
repro_job_phase_seconds_bucket{kind="sweep",phase="evaluate",le="+Inf"} 2
repro_job_phase_seconds_sum{kind="sweep",phase="evaluate"} 0.5
repro_job_phase_seconds_count{kind="sweep",phase="evaluate"} 2
this line does not parse
"""


class TestParsePrometheusText:
    def test_samples_with_and_without_labels(self):
        samples = parse_prometheus_text(SCRAPE)
        points = {
            s["labels"]["tier"]: s["value"]
            for s in samples["repro_eval_points_total"]
        }
        assert points == {"evaluated": 7.0, "memo": 3.0}
        (evictions,) = samples["repro_memo_evictions_total"]
        assert evictions["labels"] == {} and evictions["value"] == 9.0

    def test_histogram_series_keep_suffixed_names(self):
        samples = parse_prometheus_text(SCRAPE)
        assert "repro_job_phase_seconds_sum" in samples
        (bucket,) = samples["repro_job_phase_seconds_bucket"]
        assert bucket["labels"]["le"] == "+Inf"

    def test_comments_and_garbage_are_skipped(self):
        samples = parse_prometheus_text(SCRAPE)
        assert "this" not in samples

    def test_escaped_label_values_round_trip(self):
        text = 'm{path="a\\"b\\\\c\\nd"} 1\n'
        (sample,) = parse_prometheus_text(text)["m"]
        assert sample["labels"]["path"] == 'a"b\\c\nd'


class TestRenderText:
    def test_renders_a_full_snapshot(self):
        snapshot = {
            "url": "http://127.0.0.1:8000",
            "polled_at": 1000.0,
            "ready": True,
            "stats": {
                "eval_version": 1,
                "store": {"backend": "sqlite", "records": 12},
                "memo_records": 4,
                "record_cache": {"capacity": 100, "evictions": 0},
                "jobs": {"running": 1, "queued": 0, "total": 2},
                "fleet": {
                    "workers": {"registered": 2, "alive": 1},
                    "chunks": {
                        "total": 4,
                        "completed": 2,
                        "leased": 1,
                        "pending": 1,
                    },
                    "requeued": 1,
                },
            },
            "jobs": [
                {
                    "job": "j1",
                    "kind": "sweep",
                    "state": "running",
                    "submitted_at": 999.0,
                    "progress": {"points": 10, "completed": 5},
                    "duration": 1.5,
                    "timings": {
                        "phases": [
                            {"phase": "evaluate", "seconds": 1.0, "open": True}
                        ]
                    },
                }
            ],
            "workers": [
                {
                    "name": "box-a",
                    "alive": True,
                    "leases": 1,
                    "chunks_done": 2,
                    "last_seen": 998.0,
                    "metrics": {"points_total": 40, "eval_seconds_sum": 1.2},
                }
            ],
            "metrics": {
                "http_requests": 15,
                "eval_points": {"evaluated": 7, "store": 0, "memo": 3},
                "memo_share": 0.3,
                "journal_degraded_writes": 0,
            },
            "frontiers": {"j1": 3},
        }
        text = render_text(snapshot)
        assert "[ready]" in text
        assert "sqlite 12 records" in text
        assert "memo: 4/100 (30% of points)" in text
        assert "7 evaluated" in text
        assert "evaluate" in text  # the running job's open phase
        assert "box-a" in text
        assert "1 alive / 2 registered" in text
        assert "2/4 done" in text

    def test_memo_share_is_memo_points_over_all_tiers(self):
        assert _derive(parse_prometheus_text(SCRAPE))["memo_share"] == 0.3
        assert _derive({})["memo_share"] is None  # nothing resolved yet

    def test_degrades_on_missing_fields(self):
        text = render_text({"url": "http://x", "ready": None})
        assert "[?]" in text  # pre-obs server: readiness unknown
        assert "jobs (0 running" in text


class TestWatchEntry:
    def test_format_json_requires_once(self):
        with pytest.raises(ValueError, match="requires --once"):
            watch("http://127.0.0.1:1", fmt="json", once=False)
