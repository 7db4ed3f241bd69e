"""Parsing, serialization, pairing and the synthetic generator."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skelattack import data

from tests.helpers import serialize_sbu


def write_capture(tmp_path, lines, name="skeleton_pos.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def zero_line(index=1):
    return str(index) + "," + ",".join(["0.0"] * 90)


def test_parse_single_zero_frame(tmp_path):
    record = data.parse_sbu_file(write_capture(tmp_path, [zero_line()]))
    assert record.actor.num_frames == 1
    assert record.actor.joints.shape[1] == data.NUM_JOINTS
    assert np.all(record.actor.joints == 0.0)
    assert np.all(record.reactor.joints == 0.0)


def test_parse_three_frames(tmp_path):
    path = write_capture(tmp_path, [zero_line(i + 1) for i in range(3)])
    record = data.parse_sbu_file(path)
    assert record.actor.num_frames == 3
    assert record.reactor.num_frames == 3


def test_parse_wrong_field_count_reports_line(tmp_path):
    lines = [zero_line(1), "2," + ",".join(["0.0"] * 89)]
    with pytest.raises(data.ParseError, match="line 2"):
        data.parse_sbu_file(write_capture(tmp_path, lines))


def test_parse_strict_rejects_out_of_range(tmp_path):
    fields = ["1"] + ["0.5"] * 90
    fields[1] = "1.5"  # x beyond [0, 1]
    with pytest.raises(data.ValidationError):
        data.parse_sbu_file(write_capture(tmp_path, [",".join(fields)]))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_strict_rejects_non_finite(bad, tmp_path):
    with pytest.raises(data.ValidationError, match="non-finite"):
        data.parse_sbu_file(write_capture(tmp_path, ["1," + ",".join([bad] * 90)]))
    fields = ["1"] + ["0.5"] * 90
    fields[47] = bad  # one reactor coordinate
    with pytest.raises(data.ValidationError, match="non-finite"):
        data.parse_sbu_file(write_capture(tmp_path, [",".join(fields)]))


def test_parse_has_no_mode_that_accepts_non_finite_values(tmp_path):
    path = write_capture(tmp_path, ["1," + ",".join(["nan"] * 90)])
    with pytest.raises(TypeError, match="strict"):
        data.parse_sbu_file(path, strict=False)


def test_parse_refuses_trailing_separator(tmp_path):
    path = write_capture(tmp_path, [zero_line() + ","])
    with pytest.raises(data.ParseError):
        data.parse_sbu_file(path)


def test_parse_infers_category_and_set_from_path(tmp_path):
    d = tmp_path / "s01s02" / "03" / "001"
    d.mkdir(parents=True)
    path = d / "skeleton_pos.txt"
    path.write_text(zero_line() + "\n", encoding="utf-8")
    record = data.parse_sbu_file(path)
    assert record.set_id == "s01s02"
    assert record.category == data.CATEGORIES[2]


def test_capture_round_trip_preserves_values(tmp_path):
    records = data.synth_generate(seed=3, n_per_category=1, frames=5)
    text = serialize_sbu(records[0])
    path = tmp_path / "rt.txt"
    path.write_text(text, encoding="utf-8")
    back = data.parse_sbu_file(path)
    assert np.allclose(back.actor.joints, records[0].actor.joints, atol=1e-6)
    assert np.allclose(back.reactor.joints, records[0].reactor.joints, atol=1e-6)


def test_json_round_trip_is_exact(tmp_path):
    records = data.synth_generate(seed=5, n_per_category=1, frames=4, joints=6)
    path = tmp_path / "dataset.json"
    data.write_dataset(records, path)
    back = data.read_dataset(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.category == b.category and a.set_id == b.set_id
        assert np.array_equal(a.actor.joints, b.actor.joints)
        assert np.array_equal(a.reactor.joints, b.reactor.joints)


def test_make_pairs_both_directions():
    record = data.synth_generate(seed=1, n_per_category=1, frames=3)[0]
    pairs = data.make_pairs(record)
    assert len(pairs) == 2
    assert pairs[0][0] is record.actor and pairs[0][1] is record.reactor
    assert pairs[1][0] is record.reactor and pairs[1][1] is record.actor


def test_make_pairs_symmetric_record():
    seq = data.SkeletonSequence(np.zeros((3, 2, 3)) + 0.25)
    record = data.InteractionRecord(seq, seq.copy(), "hugging", "s01s02")
    pairs = data.make_pairs(record)
    assert np.array_equal(pairs[0][0].joints, pairs[1][0].joints)


def test_dataset_pair_count_doubles():
    records = data.synth_generate(seed=2, n_per_category=2, frames=3)
    total = sum(len(data.make_pairs(r)) for r in records)
    assert total == 2 * len(records)


def test_split_by_sets_routes_held_out():
    records = data.synth_generate(seed=2, n_per_category=2, frames=3)
    held = {"s03s04"}
    split = data.split_by_sets(records, held)
    held_records = [r for r in records if r.set_id in held]
    assert len(data.held_out_records(records, held)) == len(held_records)
    assert len(split.train) == 2 * (len(records) - len(held_records))


def test_split_requires_both_partitions():
    records = data.synth_generate(seed=2, n_per_category=1, frames=3)
    all_ids = {r.set_id for r in records}
    with pytest.raises(data.DataError, match="train"):
        data.split_by_sets(records, all_ids)
    with pytest.raises(data.DataError, match="test"):
        data.split_by_sets(records, {"s99s99"})


def test_default_held_out_sets():
    assert data.DEFAULT_HELD_OUT_SETS == {"s01s02", "s03s04", "s05s02", "s06s04"}


def test_synth_deterministic():
    a = data.synth_generate(seed=11, n_per_category=2, frames=8, joints=7)
    b = data.synth_generate(seed=11, n_per_category=2, frames=8, joints=7)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.actor.joints, rb.actor.joints)
        assert np.array_equal(ra.reactor.joints, rb.reactor.joints)
        assert ra.set_id == rb.set_id
    c = data.synth_generate(seed=12, n_per_category=2, frames=8, joints=7)
    assert not np.array_equal(a[0].actor.joints, c[0].actor.joints)


@pytest.mark.parametrize("sizes", [dict(frames=1), dict(n_per_category=0), dict(joints=0)])
def test_synth_rejects_degenerate_sizes(sizes):
    with pytest.raises(data.DataError):
        data.synth_generate(seed=0, **sizes)


def test_synth_counts_and_categories():
    records = data.synth_generate(seed=0, n_per_category=5, frames=4)
    assert len(records) == 40
    for category in data.CATEGORIES:
        assert sum(r.category == category for r in records) == 5


def test_synth_approaching_root_depth_strictly_decreases():
    for seed in (0, 1, 2):
        for record in data.synth_generate(seed=seed, n_per_category=3, frames=20):
            if record.category != "approaching":
                continue
            root_depth = record.actor.joints[:, 0, 2]
            assert np.all(np.diff(root_depth) < 0.0)


def test_synth_stays_in_capture_ranges():
    for record in data.synth_generate(seed=9, n_per_category=2, frames=30):
        record.actor.validate_ranges()
        record.reactor.validate_ranges()


def test_flat_round_trip():
    seq = data.synth_generate(seed=4, n_per_category=1, frames=6, joints=5)[0].actor
    flat = seq.flat()
    assert flat.shape == (6, 15)
    back = data.SkeletonSequence.from_flat(flat)
    assert np.array_equal(back.joints, seq.joints)
    # coordinate order within a joint is (x, y, depth)
    assert flat[0, 2] == seq.joints[0, 0, 2]


def test_sequence_shape_validation():
    with pytest.raises(data.DataError):
        data.SkeletonSequence(np.zeros((4, 5)))
    with pytest.raises(data.DataError):
        data.SkeletonSequence.from_flat(np.zeros((4, 7)))


def test_record_requires_equal_lengths():
    a = data.SkeletonSequence(np.zeros((3, 2, 3)))
    b = data.SkeletonSequence(np.zeros((4, 2, 3)))
    with pytest.raises(data.DataError, match="frames"):
        data.InteractionRecord(a, b, "kicking", "s01s02")


def test_record_from_dict_missing_field():
    with pytest.raises(data.ParseError, match="missing field"):
        data.record_from_dict({"category": "kicking", "set_id": "s01s02",
                               "actor": [[0.0, 0.0, 0.0]]})


def test_read_dataset_rejects_non_finite_coordinates(tmp_path):
    records = data.synth_generate(seed=5, n_per_category=1, frames=4, joints=6)
    path = tmp_path / "dataset.json"
    data.write_dataset(records, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["records"][3]["reactor"][2][5] = float("nan")
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(data.ValidationError, match="non-finite"):
        data.read_dataset(path)


@pytest.mark.parametrize("value", [["0.5", "1e2"], "1.5", True, [[True, False]],
                                   [[0.5, "0.25"]]])
def test_array_from_json_refuses_non_numbers(value):
    with pytest.raises(ValueError, match="not a number"):
        data.array_from_json(value)


def test_write_json_failure_leaves_existing_file_and_no_temp(tmp_path):
    path = tmp_path / "out.json"
    data.write_json(path, {"b": [1.5, -0.0], "a": "x"})
    before = path.read_bytes()
    assert before == b'{"a":"x","b":[1.5,-0.0]}\n'
    with pytest.raises(TypeError):
        data.write_json(path, {"a": [1.0, object()]})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.array([[1.0], [-np.inf]])])
def test_write_json_refuses_non_finite_and_keeps_existing_file(tmp_path, value):
    path = tmp_path / "out.json"
    data.write_json(path, {"a": 1})
    with pytest.raises(ValueError):
        data.write_json(path, {"a": [2.0, value]})
    assert path.read_bytes() == b'{"a":1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1.7976931348623157e308])
          | st.floats(allow_nan=False, allow_infinity=False))
ARRAYS = (hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                  max_side=4), elements=FLOATS)
          | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                  max_side=4)))
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=4) | ARRAYS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


def listed(value):
    """`value` with every ndarray in it replaced by its nested list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [listed(item) for item in value]
    return value


@settings(derandomize=True, max_examples=200, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), PAYLOADS, max_size=4))
def test_write_json_bytes_equal_streamed_lists(tmp_path_factory, payload):
    # the reference is the streaming writer that write_json replaced
    streamed = io.StringIO()
    json.dump(listed(payload), streamed, sort_keys=True, separators=(",", ":"))
    streamed.write("\n")
    path = tmp_path_factory.mktemp("json") / "out.json"
    data.write_json(path, payload)
    assert path.read_bytes() == streamed.getvalue().encode("utf-8")


def test_atomic_write_failing_part_way_leaves_existing_file_and_no_temp(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"a,b\n1,2\n")
    with pytest.raises(OSError):
        with data.atomic_write(path) as fh:
            fh.write("a,b\n3,")
            raise OSError("no space left on device")
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_read_dataset_rejects_garbage(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("[1, 2, 3", encoding="utf-8")
    with pytest.raises(data.ParseError, match="not a valid dataset"):
        data.read_dataset(path)
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(data.ParseError, match="records"):
        data.read_dataset(path)
