"""The library boundary: a public type given a field value it cannot hold
raises a GestureMixError, never another exception, and an array of any kind
but integer or float is a DataError that names the field and the dtype."""

import dataclasses
import numbers
import re

import numpy as np
import pytest

import gesturemix
from gesturemix import (
    ClusterLabelMap,
    DataError,
    EmConfig,
    FeatureMatrix,
    GestureMixError,
    GestureProfile,
    GestureVideo,
    MixtureParams,
    NormalizationStats,
    apply_normalization,
    build_label_map,
)
from gesturemix.landmarks import as_rows

# One valid instance of each public type that checks its fields.
VALID = [
    ClusterLabelMap(labels=("wave", "pick"), confidence=(1.0, 0.5)),
    EmConfig(k=2),
    FeatureMatrix(rows=np.ones((21, 3)), source_id="f"),
    GestureProfile(name="wave", axis_amplitudes=np.ones(3), noise_std=0.1),
    GestureVideo(frames=np.zeros((2, 21, 3)), source_id="v"),
    MixtureParams(means=np.zeros((2, 3)), covs=[np.eye(3)] * 2, weights=[0.5, 0.5]),
    NormalizationStats(mean=np.zeros(3), std=np.ones(3)),
]


def replacements():
    """(instance, field, bad value): each numeric or array field of each valid
    instance in turn, set to None or "x", and an integer field also to 2.5; a
    tuple of numbers has its last element replaced."""
    for valid in VALID:
        for field in dataclasses.fields(valid):
            value = getattr(valid, field.name)
            element = value[-1] if isinstance(value, tuple) else value
            if not field.init or not isinstance(element, (numbers.Number, np.ndarray)):
                continue
            for bad in [None, "x"] + [2.5] * isinstance(element, numbers.Integral):
                yield pytest.param(
                    valid, field.name, (*value[:-1], bad) if isinstance(value, tuple) else bad,
                    id=f"{type(valid).__name__}.{field.name}={bad!r}",
                )


def test_every_validating_public_type_has_a_valid_instance():
    validating = {
        obj for obj in map(gesturemix.__dict__.get, gesturemix.__all__)
        if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")
    }
    assert validating == {type(valid) for valid in VALID}


@pytest.mark.parametrize(("valid", "field", "bad"), replacements())
def test_a_bad_field_builds_or_is_a_package_error(valid, field, bad):
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init}
    try:
        type(valid)(**{**kwargs, field: bad})
    except GestureMixError:
        pass  # any other type escapes the package's errors and fails the test


# Arrays of a valid array's shape whose kind is no real number: a complex array
# would lose its imaginary part, and a bool or numeric-string array would read
# as numbers, if each were converted to floats.
WRONG_KINDS = {
    "complex": lambda a: a + 1j,
    "bool": lambda a: a.astype(bool),
    "str": lambda a: a.astype(str),
}

ARRAY_FIELDS = [
    pytest.param(valid, field.name, id=f"{type(valid).__name__}.{field.name}")
    for valid in VALID
    for field in dataclasses.fields(valid)
    if field.init and isinstance(getattr(valid, field.name), np.ndarray)
]


@pytest.mark.parametrize("kind", WRONG_KINDS)
@pytest.mark.parametrize(("valid", "field"), ARRAY_FIELDS)
def test_an_array_field_of_the_wrong_kind_is_a_data_error(valid, field, kind):
    bad = WRONG_KINDS[kind](getattr(valid, field))
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init}
    message = f"^{field} must be an array of real numbers, got {bad.dtype}$"
    with pytest.raises(DataError, match=message):
        type(valid)(**{**kwargs, field: bad})


@pytest.mark.parametrize(("valid", "field"), ARRAY_FIELDS)
def test_an_array_field_keeps_a_read_only_copy_of_its_own(valid, field):
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init}
    given = np.array(kwargs[field])  # the caller's, writable
    record = type(valid)(**{**kwargs, field: given})
    before = given.copy()
    given.flat[0] += 1.0
    assert np.array_equal(getattr(record, field), before)
    with pytest.raises(ValueError):
        getattr(record, field).flat[0] = 0.0


@pytest.mark.parametrize("kind", WRONG_KINDS)
def test_rows_of_the_wrong_kind_are_a_data_error(kind):
    bad = WRONG_KINDS[kind](np.ones((3, 3)))
    message = f"^data must be an array of real numbers, got {bad.dtype}$"
    with pytest.raises(DataError, match=message):
        as_rows(bad)


@pytest.mark.parametrize("assignment, row_labels", [
    ([0, 1, 1], ["a", 5, "b"]),  # 5 and "b" tie in component 1
    ([0, 0, 0], ["a", 5, "a"]),  # 5 loses the vote
    ([0, 0], [["a"], "b"]),  # a list cannot be hashed
])
def test_a_row_label_that_is_no_name_is_a_data_error(assignment, row_labels):
    bad = next(label for label in row_labels if not isinstance(label, str))
    with pytest.raises(DataError, match=f"^label must be a string, got {re.escape(repr(bad))}$"):
        build_label_map(np.array(assignment), row_labels, max(assignment) + 1)


@pytest.mark.parametrize("rows, shape", [
    (np.ones((2, 4)), (2, 4)),
    (np.ones(4), (4,)),
    ([[1.0, 2.0, 3.0], [1.0]], (2,)),
    (None, ()),
])
def test_rows_the_normalization_cannot_take_are_a_data_error(rows, shape):
    stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
    message = rf"^feature rows must be \(N, 3\) real numbers, got shape {re.escape(str(shape))}$"
    with pytest.raises(DataError, match=message):
        apply_normalization(rows, stats)
