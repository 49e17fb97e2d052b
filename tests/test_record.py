"""Report rendering: the record's byte-determinism contract and the text
report's line rules."""

import numpy as np
import pytest

from ccbench.record import canonicalize, complex_matrix_record, render_record, render_text


def test_canonicalize_unwraps_numpy_scalars():
    out = canonicalize(
        {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "c": np.complex128(1.0 + 2.0j),
        }
    )
    assert out == {"i": 3, "f": 0.5, "b": True, "c": [1.0, 2.0]}
    assert type(out["i"]) is int
    assert type(out["b"]) is bool


def test_canonicalize_arrays_and_sets():
    assert canonicalize(np.arange(3)) == [0, 1, 2]
    assert canonicalize({3, 1, 2}) == [1, 2, 3]
    assert canonicalize((1, (2, 3))) == [1, [2, 3]]


def test_canonicalize_rejects_unknown_types():
    with pytest.raises(TypeError, match="object"):
        canonicalize(object())


def test_float_formatting_is_17_digits():
    text = render_record({"x": 1 / 3})
    assert '"x": 0.33333333333333331' in text


def test_non_finite_floats_are_quoted():
    text = render_record({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
    assert '"a": "nan"' in text
    assert '"b": "inf"' in text
    assert '"c": "-inf"' in text


def test_keys_sorted_and_trailing_newline():
    text = render_record({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")


def test_short_scalar_lists_inline_long_ones_wrap():
    inline = render_record({"v": [1, 2, 3]})
    assert "[1, 2, 3]" in inline
    wrapped = render_record({"v": list(range(9))})
    assert "[\n" in wrapped


def test_renders_are_byte_identical():
    report = {
        "beta": np.float64(np.sqrt(2)),
        "flags": {"ok": True, "note": None},
        "spectrum": np.array([0.4, 0.3, 0.2, 0.1]),
    }
    assert render_record(report) == render_record(report)
    # key insertion order must not matter
    shuffled = {
        "spectrum": np.array([0.4, 0.3, 0.2, 0.1]),
        "beta": np.float64(np.sqrt(2)),
        "flags": {"note": None, "ok": True},
    }
    assert render_record(report) == render_record(shuffled)


def test_complex_matrix_record_shape():
    mat = np.array([[1.0, 1.0j], [-1.0j, 0.5]])
    rec = complex_matrix_record(mat)
    assert rec == [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.5, 0.0]]]
    # and it renders without a TypeError
    assert render_record({"m": rec}).count("[") > 0


def test_render_text_writes_one_line_per_scalar_leaf():
    report = {
        "b": {"rank": np.int64(5), "ok": True, "none": None},
        "a": 1 / 3,
        "cells": [{"t": (-6.5, -6.0)}],
        "empty": [],
        "long": list(range(9)),
        "m": complex_matrix_record(np.ones((2, 3))),
        "slice": [[-7.0, 2.75]],
    }
    assert render_text(report).splitlines() == [
        "a: 0.3333333333",
        "b.none: None",
        "b.ok: True",
        "b.rank: 5",
        "cells[0].t: [-6.5, -6]",
        "empty: []",
        *(f"long[{i}]: {i}" for i in range(9)),
        "m: <2x3 matrix>",
        "slice[0]: [-7, 2.75]",
    ]
