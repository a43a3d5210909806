"""The pass encoder: ``canonical_texts`` is ``json.dumps(r, sort_keys=True)``
per record, byte for byte, whatever the records hold."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse import SweepSpec, run_sweep
from repro.dse.entry import RecordEntry, canonical_texts, entry_texts


def _dumps(records):
    return [json.dumps(record, sort_keys=True) for record in records]


_EDGE_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1e16,
    1e-7,
    0.1 + 0.2,  # 17 significant digits
    1.7976931348623157e308,
    123456789012345.67,
]
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGE_FLOATS)
_ints = (
    st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**100])
)
_text = st.text(
    alphabet=st.characters(max_codepoint=0x3ff)
    | st.sampled_from(['"', "\\", "%", "\n", "\t", "\x00", "\x1f", "\x7f", "\ud800", "😀", "\U0010ffff"]),
    max_size=12,
)
_leaves = _floats | _ints | st.booleans() | st.none() | _text
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_text, children, max_size=3),
    max_leaves=4,
)
# A small key pool, so records of one pass share shapes and columns --
# and mix value types within a column.
_KEYS = ["hash", "metrics", "batch", "a%sb", 'q"uote', "b\\s", "ü", "😀", ""]
_records = st.dictionaries(st.sampled_from(_KEYS), _values, max_size=5)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_records, max_size=8))
@example(records=[])
@example(records=[{}, {"a": 1}, {}])
@example(records=[{"x": v} for v in _EDGE_FLOATS])
@example(records=[{"x": 1.5}, {"x": math.nan}, {"x": 1}, {"x": True}, {"x": None}, {"x": "s"}])
@example(records=[{"m": {"a": 1.0, "b": 2}}, {"m": {"b": 2, "a": 1.0}}, {"m": {"c": [1, {"d": -0.0}]}}])
def test_canonical_texts_is_json_dumps_per_record(records):
    assert canonical_texts(records) == _dumps(records)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(_values, max_size=8))
def test_non_dict_records_encode_like_json_dumps(values):
    assert canonical_texts(values) == _dumps(values)


def test_non_str_keys_follow_json_coercion():
    records = [{1: "a", 2.5: "b"}, {True: 1, False: 2}, {None: 0}, {"k": {3: [4]}}]
    assert canonical_texts(records) == _dumps(records)
    with pytest.raises(TypeError):  # unsortable keys fail as json.dumps does
        canonical_texts([{1: 1, "a": 2}])


def test_accepts_any_iterable():
    records = [{"a": 1.5}, {"a": 2.5}]
    assert canonical_texts(iter(records)) == _dumps(records)


def test_real_sweep_records_are_byte_identical():
    spec = {
        "grid": {
            "workloads": ["AlexNet", "LSTM"],
            "platforms": ["bpvec", "tpu", "bitfusion"],
            "memories": ["ddr4", "hbm2"],
            "batches": [1, 16, None],
        }
    }
    records = run_sweep(SweepSpec.from_dict(spec)).records
    assert canonical_texts(records) == _dumps(records)


def test_entry_texts_encodes_only_what_is_missing():
    known = RecordEntry("a", text='{"hash": "a"}')
    fresh = RecordEntry.of({"hash": "b", "x": 1.0})
    assert entry_texts([known, fresh]) == ['{"hash": "a"}', '{"hash": "b", "x": 1.0}']
    assert fresh.text == '{"hash": "b", "x": 1.0}'  # kept on the entry
