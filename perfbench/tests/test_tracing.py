"""Self-time arithmetic and the entry-point wrappers."""

import pytest

import run
import tracing


def make(*rows):
    spans = tracing.Spans()
    for row in rows:
        spans.add(*row)
    return spans


def test_self_time_nested():
    spans = make(
        ("outer", 0.0, 10.0),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
    )
    assert list(tracing.self_times(spans)) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_overlapping_and_protruding_children():
    spans = make(
        ("outer", 0.0, 10.0),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: union [1, 5]
        ("c", 4.5, 4.8, 0),  # inside the union already
        ("d", 9.0, 12.0, 0),  # sticks out: only [9, 10] counts
    )
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_table_and_count_under():
    spans = make(
        ("eig", 0.0, 4.0, -1, 0),
        ("count", 0.5, 1.5, 0, 0, 8),
        ("count", 2.0, 3.0, 0, 0, 8),
        ("count", 5.0, 6.0, -1, 1, 8),
    )
    job0 = spans.job_range(0, 1)
    table = tracing.layer_table(spans, tracing.self_times(spans), job0)
    assert table["count"]["calls"] == 2 and table["count"]["size"] == 16
    assert table["eig"]["self_s"] == pytest.approx(2.0)
    assert tracing.count_under(spans, "eig", "count") == 2
    assert tracing.count_under(spans, "eig", "count", spans.job_range(1, 2)) == 0


def test_missing_entry_point_is_reported_absent():
    run.load_program()
    from hardylab import _kernels

    original = _kernels.negcount
    inst = tracing.Instrument(
        trace=True, entry_points={"_kernels": ["negcount", "no_such_kernel"], "no_such_module": ["f"]}
    )
    with inst:
        assert _kernels.negcount is not original
    assert inst.absent == ["_kernels.no_such_kernel", "no_such_module.f"]
    assert _kernels.negcount is original


def test_wrappers_reach_name_bound_callers():
    run.load_program()
    from hardylab import cli, eigensolver, thresholds

    original = eigensolver.smallest_generalized_eigen
    inst = tracing.Instrument(trace=True)
    with inst:
        assert thresholds.smallest_generalized_eigen is eigensolver.smallest_generalized_eigen
        assert cli.smallest_generalized_eigen is eigensolver.smallest_generalized_eigen
        assert thresholds.smallest_generalized_eigen is not original
        assert cli.main(["verify", "--suite", "fast", "--out", str(run.harness.OUT / "test-verify")]) == 0
    assert thresholds.smallest_generalized_eigen is original
    names = set(inst.spans.names)
    assert {"cli.main", tracing.EIGEN, "_kernels.negcount", "records.write_record"} <= names
    assert inst.absent == []
