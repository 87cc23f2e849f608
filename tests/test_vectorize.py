import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_artifact
from oracles import boolean_row
from pkgwatch.errors import InconsistentFirstVersion
from pkgwatch.features import FEATURE_FIELDS, FeatureVector, extract_features
from pkgwatch.vectorize import (
    BOOLEAN_SCHEMA,
    NUMERIC_SCHEMA,
    ChangeVector,
    booleanize_rows,
    build_change_vector,
    decode,
    encode,
    encode_record,
)
from pkgwatch.versioning import UpdateType

feature_vectors = st.builds(
    FeatureVector,
    pii_access=st.integers(0, 50),
    fs_access=st.integers(0, 50),
    process_creation=st.integers(0, 50),
    network_access=st.integers(0, 50),
    crypto_api=st.integers(0, 50),
    data_encoding=st.integers(0, 50),
    dynamic_code=st.integers(0, 50),
    install_scripts=st.integers(0, 3),
    entropy_mean=st.floats(0.0, 8.0, allow_nan=False),
    entropy_std=st.floats(0.0, 4.0, allow_nan=False),
)


@st.composite
def change_vectors(draw):
    """A ChangeVector of any update type between two random feature vectors."""
    update_type = draw(st.sampled_from(list(UpdateType)))
    if update_type is UpdateType.FIRST:
        return build_change_vector(None, draw(feature_vectors), update_type, 0.0)
    return build_change_vector(draw(feature_vectors), draw(feature_vectors), update_type,
                               draw(st.floats(0.0, 1e7, allow_nan=False)))


def booleanize_one(vec: ChangeVector) -> np.ndarray:
    return booleanize_rows([encode(vec)])[0]


@given(feature_vectors)
def test_first_version_rule(fv):
    vec = build_change_vector(None, fv, UpdateType.FIRST, 0.0)
    assert vec.deltas == fv.as_tuple()
    assert vec.time_since_prev == 0.0
    assert vec.update_type is UpdateType.FIRST


def test_first_version_with_install_script():
    fv = FeatureVector(install_scripts=1)
    vec = build_change_vector(None, fv, UpdateType.FIRST, 0.0)
    assert vec.delta("install_scripts") == 1.0
    assert sum(abs(d) for d in vec.deltas) == 1.0


def test_identical_versions_zero_deltas():
    fv = FeatureVector(fs_access=3, entropy_mean=4.5, entropy_std=0.2)
    vec = build_change_vector(fv, fv, UpdateType.PATCH, 100.0)
    assert all(d == 0.0 for d in vec.deltas)


def test_inconsistent_first_combinations():
    fv = FeatureVector()
    with pytest.raises(InconsistentFirstVersion):
        build_change_vector(fv, fv, UpdateType.FIRST, 0.0)
    with pytest.raises(InconsistentFirstVersion):
        build_change_vector(None, fv, UpdateType.PATCH, 10.0)
    with pytest.raises(InconsistentFirstVersion):
        build_change_vector(None, fv, UpdateType.FIRST, 5.0)


def test_harvester_update_deltas():
    benign = make_artifact(
        name="jsmn", version="0.0.2",
        files={"component.js": "module.exports = function() { return 1; };"},
    )
    compromised = make_artifact(
        name="jsmn", version="0.0.3",
        files={"component.js": open_harvester()},
    )
    prev = extract_features(benign)
    cur = extract_features(compromised)
    vec = build_change_vector(prev, cur, UpdateType.PATCH, 60.0)
    assert vec.delta("pii_access") == 2.0
    assert vec.delta("data_encoding") == 2.0


def open_harvester() -> str:
    from test_features import HARVESTER_SCRIPT

    return HARVESTER_SCRIPT


def test_encode_shape_and_one_hot():
    vec = build_change_vector(None, FeatureVector(), UpdateType.FIRST, 0.0)
    row = encode(vec)
    assert len(row) == len(NUMERIC_SCHEMA) == 17
    assert row[NUMERIC_SCHEMA.index("update_first")] == 1.0
    assert sum(row[11:]) == 1.0


def test_encode_patch_one_hot():
    fv = FeatureVector()
    vec = build_change_vector(fv, fv, UpdateType.PATCH, 3.0)
    row = encode(vec)
    assert row[NUMERIC_SCHEMA.index("update_patch")] == 1.0
    assert row[NUMERIC_SCHEMA.index("time_since_prev")] == 3.0


def test_booleanize_rows_shape():
    fv = FeatureVector()
    cur = FeatureVector(fs_access=3)
    row = booleanize_one(build_change_vector(fv, cur, UpdateType.MAJOR, 5.0))
    assert row.shape == (len(BOOLEAN_SCHEMA),) == (14,)
    assert row[BOOLEAN_SCHEMA.index("fs_access")] == 1.0
    assert row[BOOLEAN_SCHEMA.index("update_major")] == 1.0
    assert row.sum() == 2.0


def test_booleanize_rows_negative_delta_is_changed():
    prev = FeatureVector(install_scripts=1)
    cur = FeatureVector(install_scripts=0)
    row = booleanize_one(build_change_vector(prev, cur, UpdateType.PATCH, 1.0))
    assert row[BOOLEAN_SCHEMA.index("install_scripts")] == 1.0


def test_boolean_schema_omits_continuous_fields():
    assert "entropy_mean" not in BOOLEAN_SCHEMA
    assert "entropy_std" not in BOOLEAN_SCHEMA
    assert "time_since_prev" not in BOOLEAN_SCHEMA


def test_booleanize_rows_all_zero_first():
    vec = build_change_vector(None, FeatureVector(), UpdateType.FIRST, 0.0)
    row = booleanize_one(vec)
    nonzero = {f for f, v in zip(BOOLEAN_SCHEMA, row) if v != 0.0}
    assert nonzero == {"update_first"}


@given(change_vectors())
def test_booleanize_rows_values_binary(vec):
    assert set(booleanize_one(vec).tolist()) <= {0.0, 1.0}


@given(feature_vectors, feature_vectors, feature_vectors)
def test_subtraction_linearity(a, b, c):
    ab = build_change_vector(a, b, UpdateType.PATCH, 1.0)
    bc = build_change_vector(b, c, UpdateType.PATCH, 1.0)
    ac = build_change_vector(a, c, UpdateType.PATCH, 1.0)
    summed = [x + y for x, y in zip(ab.deltas, bc.deltas)]
    assert summed == pytest.approx(list(ac.deltas), abs=1e-9)


@given(st.lists(change_vectors(), min_size=1, max_size=8))
def test_booleanize_rows_matches_per_vector_oracle(vectors):
    Xb = booleanize_rows(np.array([encode(v) for v in vectors]))
    assert Xb.dtype == np.float64
    assert [tuple(row) for row in Xb.tolist()] == [boolean_row(v) for v in vectors]


def test_change_vector_validation():
    with pytest.raises(ValueError):
        ChangeVector(package="p", version="1", deltas=(1.0,),
                     update_type=UpdateType.FIRST, time_since_prev=0.0)
    with pytest.raises(ValueError):
        ChangeVector(package="p", version="1",
                     deltas=tuple(0.0 for _ in FEATURE_FIELDS),
                     update_type=UpdateType.FIRST, time_since_prev=0.0,
                     label="sketchy")


@given(feature_vectors, feature_vectors,
       st.sampled_from([t for t in UpdateType if t is not UpdateType.FIRST]),
       st.floats(0.0, 1e6, allow_nan=False))
def test_encode_injective(a, b, update_type, dt):
    one = encode(build_change_vector(a, b, update_type, dt))
    two = encode(build_change_vector(b, a, update_type, dt))
    if one == two:
        assert a.as_tuple() == b.as_tuple() or all(
            x - y == y - x for x, y in zip(a.as_tuple(), b.as_tuple())
        )


@given(feature_vectors, feature_vectors,
       st.sampled_from([t for t in UpdateType if t is not UpdateType.FIRST]),
       st.floats(0.0, 1e7, allow_nan=False),
       st.sampled_from([None, "malicious", "benign"]))
def test_encode_record_and_decode_match_the_vector(prev, cur, update_type, dt, label):
    vec = build_change_vector(prev, cur, update_type, dt, package="p", version="2.0.0",
                              label=label)
    record = json.loads(json.dumps(vec.to_record()))
    row = encode_record(record)
    assert row == list(encode(ChangeVector.from_record(record)))
    assert decode(row, "p", "2.0.0", label) == vec
