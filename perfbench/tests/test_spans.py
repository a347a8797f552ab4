"""Self-time arithmetic of the span recorder and the attribute swapping."""

import itertools
import json
import types

import pytest

from spans import Patch, Tracer, has_ancestor, root_of, self_times


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_times_of_nested_children_sum_to_the_root():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("b", 40, 70, 0),
        _span("b.child", 50, 60, 2),
    ]
    selfs = self_times(spans)
    assert selfs == [50, 20, 20, 10]
    assert sum(selfs) == spans[0][2] - spans[0][1]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 50, 0),
        _span("b", 40, 120, 0),   # overlaps a and runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 90


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    clock = itertools.count(0, 10).__next__
    tr = Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda x: x + 1)
    mid = tr.wrap("mid", lambda x: leaf(leaf(x)))
    with tr.span("root"):
        assert mid(1) == 3
    names = [s[0] for s in tr.spans]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    assert root_of(tr.spans) == [0, 0, 0, 0]
    assert has_ancestor(tr.spans, 3, "root") and not has_ancestor(tr.spans, 0, "root")
    # each span's begin and end reads the clock once: root 0..70, mid 10..60
    assert self_times(tr.spans) == [20, 30, 10, 10]
    assert sum(self_times(tr.spans)) == tr.spans[0][2] - tr.spans[0][1]


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans[0][2] is not None and not tr._stack


def test_hooks_see_arguments_and_result():
    tr = Tracer()
    seen = {}

    def before(args, kwargs):
        return (args[0] * 2,), kwargs

    def after(tracer, attrs, args, kwargs, result):
        attrs["result"] = result
        seen["args"] = args

    assert tr.wrap("double", lambda x: x + 1, before=before, after=after)(5) == 11
    assert tr.spans[0][4] == {"result": 11} and seen["args"] == (10,)


def test_dump_writes_every_span(tmp_path):
    tr = Tracer()
    with tr.span("root"):
        tr.wrap("leaf", lambda: None)()
    path = tmp_path / "trace.json"
    tr.dump(path)
    data = json.loads(path.read_text())
    assert [data["names"][row[0]] for row in data["spans"]] == ["root", "leaf"]
    assert data["spans"][1][3] == 0


def test_patch_swaps_every_binding_and_restores_them():
    def original():
        return "original"

    mod_a = types.SimpleNamespace(f=original, alias=original, other=len)
    mod_b = types.SimpleNamespace(g=original)

    class Owner:
        def method(self):
            return "method"

    patch = Patch()
    assert patch.swap_function([mod_a, mod_b], original, lambda: "wrapped") == 3
    patch.swap_class_attr(Owner, "method", lambda self: "wrapped method")
    assert mod_a.f() == mod_a.alias() == mod_b.g() == "wrapped"
    assert Owner().method() == "wrapped method"
    patch.restore()
    assert mod_a.f is original and mod_a.alias is original and mod_b.g is original
    assert mod_a.other is len and Owner().method() == "method"
