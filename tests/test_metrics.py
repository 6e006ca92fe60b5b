import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3doc import metrics as mx
from l3doc.errors import DataError

accs = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


class TestPpa:
    def test_top_five_of_hundred(self):
        trace = [0.5] * 95 + [0.90, 0.91, 0.92, 0.93, 0.94]
        assert abs(mx.ppa(trace) - 0.92) <= 1e-12

    def test_constant_trace(self):
        assert mx.ppa([0.7] * 13) == 0.7

    def test_single_epoch(self):
        assert mx.ppa([0.42]) == 0.42

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mx.ppa([])

    @settings(max_examples=40, deadline=None)
    @given(accs)
    def test_bounded_by_extremes(self, trace):
        p = mx.ppa(trace)
        assert min(trace) - 1e-12 <= p <= max(trace) + 1e-12


class TestApa:
    def test_examples(self):
        assert mx.apa([1.0, 0.5]) == 0.75
        assert mx.apa([0.37]) == 0.37

    @settings(max_examples=30, deadline=None)
    @given(accs, st.randoms())
    def test_permutation_invariant(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert abs(mx.apa(vals) - mx.apa(shuffled)) <= 1e-12


class TestCfr:
    def test_definition(self):
        assert abs(mx.cfr([0.45, 0.8], [0.9, 0.8]) - 0.75) <= 1e-12

    def test_no_forgetting_is_one(self):
        assert mx.cfr([0.9, 0.7], [0.9, 0.7]) == 1.0

    def test_zero_peak_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            assert mx.cfr([0.5, 0.8], [0.0, 0.8]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mx.cfr([0.5], [0.5, 0.6])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10))
    def test_equal_args_give_one(self, peaks):
        assert abs(mx.cfr(peaks, peaks) - 1.0) <= 1e-12


class TestSc:
    def test_threshold_arithmetic(self):
        # peak 0.99 -> threshold 0.9702 -> first epoch at or above is 4
        assert mx.sc([0.1, 0.5, 0.97, 0.98, 0.99]) == 4

    def test_constant_trace_converges_at_one(self):
        assert mx.sc([0.6, 0.6, 0.6]) == 1

    def test_monotone_trace_hits_at_the_end(self):
        # threshold 0.98 * 1.0; 0.979 misses it, only the final epoch qualifies
        assert mx.sc([0.2, 0.4, 0.6, 0.979, 1.0]) == 5

    @settings(max_examples=40, deadline=None)
    @given(accs)
    def test_never_after_the_peak(self, trace):
        assert mx.sc(trace) <= int(np.argmax(trace)) + 1


def tiny_log():
    log = mx.RunLog()
    log.epochs = [
        mx.EpochRecord(1, 1, 0.9, 0.5, 12.0, 3),
        mx.EpochRecord(1, 2, 0.5, 0.8, 11.0, 3),
        mx.EpochRecord(2, 1, 0.7, 0.6, 10.0, 3),
        mx.EpochRecord(2, 2, 0.4, 0.9, 10.0, 3),
    ]
    log.boundaries = [
        mx.BoundaryRecord(1, 1, 0.8),
        mx.BoundaryRecord(2, 1, 0.4),
        mx.BoundaryRecord(2, 2, 0.9),
    ]
    return log


class TestExport:
    def test_summary_rows_values(self):
        rows = mx.summary_rows(tiny_log())
        assert rows[0]["task"] == 1 and rows[0]["apa"] == 0.8 and rows[0]["cfr"] == 1.0
        assert rows[1]["apa"] == (0.4 + 0.9) / 2
        assert abs(rows[1]["cfr"] - (0.4 / 0.8 + 1.0) / 2) <= 1e-12
        assert rows[0]["tt_steps"] == 6

    def test_empty_run_header_only(self, tmp_path):
        paths = mx.export(mx.RunLog(), tmp_path)
        assert paths["csv"].read_bytes() == b"task,ppa,apa,cfr,sc,tt_steps\r\n"
        assert paths["jsonl"].read_bytes() == b""

    def test_reexport_byte_identical(self, tmp_path):
        log = tiny_log()
        first = mx.export(log, tmp_path / "a")
        second = mx.export(log, tmp_path / "b")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()
        assert first["jsonl"].read_bytes() == second["jsonl"].read_bytes()

    def test_every_kind_written_with_exactly_its_keys(self):
        log = tiny_log()
        written = {}
        for line in mx.jsonl_lines(log):
            rec = json.loads(line)
            written.setdefault(rec.pop("kind"), set()).add(frozenset(rec))
        assert written == {kind: {frozenset(keys)} for kind, (_, _, keys) in mx._RECORDS.items()}

    def test_jsonl_round_trip_reproduces_summary(self, tmp_path):
        log = tiny_log()
        paths = mx.export(log, tmp_path)
        parsed = mx.parse_jsonl(paths["jsonl"].read_text())
        assert mx.summary_csv_bytes(mx.summary_rows(parsed)) == paths["csv"].read_bytes()

    def test_csv_round_trip_parses_exactly(self, tmp_path):
        import csv as csv_mod
        paths = mx.export(tiny_log(), tmp_path)
        with open(paths["csv"], newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        want = mx.summary_rows(tiny_log())
        for got, exp in zip(rows, want):
            assert int(got["task"]) == exp["task"]
            assert float(got["ppa"]) == exp["ppa"]
            assert float(got["cfr"]) == exp["cfr"]
            assert int(got["tt_steps"]) == exp["tt_steps"]

    def test_fingerprint_ignores_wall_clock(self):
        a, b = tiny_log(), tiny_log()
        b.epochs = [mx.EpochRecord(r.task_id, r.epoch, r.train_loss, r.test_acc,
                                   r.wall_ms * 3.7, r.steps) for r in b.epochs]
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sees_accuracy_changes(self):
        a, b = tiny_log(), tiny_log()
        b.epochs[0] = mx.EpochRecord(1, 1, 0.9, 0.51, 12.0, 3)
        assert a.fingerprint() != b.fingerprint()

    def test_parse_jsonl_rejects_garbage(self):
        with pytest.raises(DataError):
            mx.parse_jsonl('{"kind":"epoch"\n')
        with pytest.raises(DataError):
            mx.parse_jsonl('{"kind":"mystery"}\n')
