import json

import numpy as np
import pytest

from cdsk.data_io import (
    ClusteringResult,
    SampleMatrix,
    load_csv,
    make_blobs,
    make_two_moons,
    read_result,
    write_csv,
    write_result,
)
from cdsk.errors import ParseError, ValidationError


def test_load_csv_with_label_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,0,1\n1,0,1\n5,5,2\n")
    sm = load_csv(p, label_column=2)
    assert sm.n == 3 and sm.d == 2
    assert sm.labels.tolist() == [1, 1, 2]
    assert np.allclose(sm.data, [[0, 0], [1, 0], [5, 5]])
    # label values keep their sorted order, gaps and negative values included
    p.write_text("0,7\n1,-2\n2,7\n3,3\n")
    sm = load_csv(p, label_column=1)
    assert sm.labels.dtype == np.int64
    assert sm.labels.tolist() == [3, 1, 3, 2]


def test_load_csv_without_labels(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,0,1\n1,0,1\n5,5,2\n")
    sm = load_csv(p)
    assert sm.n == 3 and sm.d == 3 and sm.labels is None


def test_load_csv_malformed_cell_names_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,abc,1\n1,0,1\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(p)


def test_load_csv_rejects_nonfinite(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,nan\n1,0\n")
    with pytest.raises((ParseError, ValidationError)):
        load_csv(p)


def test_load_csv_needs_two_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n")
    with pytest.raises((ValidationError, ParseError)):
        load_csv(p)


def test_csv_round_trip(tmp_path):
    sm = make_blobs(4, [[0, 0], [5, 5]], 0.3, seed=3)
    p = tmp_path / "r.csv"
    write_csv(sm, p)
    back = load_csv(p, label_column=sm.d)
    assert np.max(np.abs(back.data - sm.data)) < 1e-12
    assert np.array_equal(back.labels, sm.labels)


def test_make_blobs_shape_and_labels():
    sm = make_blobs(5, [(0, 0), (10, 10)], 0.1, seed=7)
    assert sm.n == 10 and sm.d == 2
    assert sm.labels.tolist() == [1] * 5 + [2] * 5


def test_make_blobs_deterministic():
    a = make_blobs(6, [(0, 0), (3, 3)], 0.5, seed=11)
    b = make_blobs(6, [(0, 0), (3, 3)], 0.5, seed=11)
    assert np.array_equal(a.data, b.data)


def test_make_blobs_rejects_single_center():
    with pytest.raises(ValidationError):
        make_blobs(5, [(0, 0)], 0.5)
    with pytest.raises(ValidationError):
        make_blobs(5, [(0, 0), (1, 1)], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_generators_reject_non_finite_spread(bad):
    # nan passes both nan < 0 and nan > 0, so each test must ask for finiteness
    with pytest.raises(ValidationError, match="noise must be finite"):
        make_two_moons(10, bad)
    with pytest.raises(ValidationError, match="sigma must be finite"):
        make_blobs(5, [(0, 0), (1, 1)], bad)


def test_make_blobs_rejects_ragged_centers():
    with pytest.raises(ValidationError, match="equal length"):
        make_blobs(5, [(0, 0), (1,)], 0.5)


def test_moons_noise_free_on_unit_circles():
    sm = make_two_moons(200, 0.0, seed=0)
    outer = sm.data[sm.labels == 1] - np.array([0.0, 0.0])
    inner = sm.data[sm.labels == 2] - np.array([1.0, 0.5])
    assert np.max(np.abs(np.linalg.norm(outer, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(inner, axis=1) - 1.0)) < 1e-12


def test_moons_deterministic_and_odd_rejected():
    a = make_two_moons(200, 0.05, seed=1)
    b = make_two_moons(200, 0.05, seed=1)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ValidationError):
        make_two_moons(3, 0.05)


def _tiny_result(qp_converged=True):
    return ClusteringResult(
        labels=np.array([1, 2]),
        alpha=np.array([0.25, 0.75]),
        objective_trace=[1.0, 0.5],
        metrics={"accuracy": 1.0, "nmi": 1.0},
        lambda_used=0.1,
        bandwidth_used=2.0,
        seed=3,
        qp_converged=qp_converged,
    )


def test_clustering_result_fields_have_no_defaults():
    # a constructor that forgets a field fails instead of reading, say,
    # qp_converged as True or lambda_used as 0.1
    full = vars(_tiny_result())
    for name in full:
        partial = {key: value for key, value in full.items() if key != name}
        with pytest.raises(TypeError, match=name):
            ClusteringResult(**partial)


def test_result_round_trip(tmp_path):
    p = tmp_path / "res.json"
    for qp_converged in (True, False):
        res = _tiny_result(qp_converged)
        write_result(res, p)
        back = read_result(p)
        assert np.array_equal(back.labels, res.labels)
        assert np.max(np.abs(back.alpha - res.alpha)) < 1e-12
        assert back.objective_trace == res.objective_trace
        assert back.lambda_used == res.lambda_used
        assert back.qp_converged is qp_converged
        text = p.read_text()
        assert '"labels"' in text and '"alpha"' in text


def test_result_rejects_non_boolean_qp_converged(tmp_path):
    p = tmp_path / "res.json"
    write_result(_tiny_result(False), p)
    p.write_text(p.read_text().replace('"qp_converged": false', '"qp_converged": "false"'))
    with pytest.raises(ParseError):
        read_result(p)


def test_result_truncated_file(tmp_path):
    p = tmp_path / "res.json"
    write_result(_tiny_result(), p)
    p.write_text(p.read_text()[:40])
    with pytest.raises(ParseError):
        read_result(p)


def test_sample_matrix_validates():
    with pytest.raises(ValidationError):
        SampleMatrix(np.array([[np.inf, 0.0], [1.0, 2.0]]))
    with pytest.raises(ValidationError):
        SampleMatrix(np.zeros((1, 2)))


@pytest.mark.parametrize(
    "key, value",
    [
        ("labels", [1.5, 2]),
        ("labels", [1, 2, 1]),
        ("labels", [0, 1]),
        ("labels", [True, 2]),
        ("seed", 1.7),
        ("seed", -1),
        ("alpha", [[0.25], [0.75]]),
        ("alpha", "x"),
        ("alpha", [0.25, None]),
        ("lambda", "a"),
        ("bandwidth", None),
        ("objective_trace", None),
        ("objective_trace", [1.0, "0.5"]),
        ("metrics", [1.0]),
        ("metrics", {"accuracy": "1"}),
    ],
)
def test_result_rejects_wrong_typed_or_inconsistent_fields(tmp_path, key, value):
    # each must raise ParseError naming the key, never load a coerced value
    # or leak a ValueError or TypeError
    p = tmp_path / "res.json"
    write_result(_tiny_result(), p)
    doc = json.loads(p.read_text())
    doc[key] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=key):
        read_result(p)


def test_result_rejects_a_document_that_is_not_an_object(tmp_path):
    p = tmp_path / "res.json"
    p.write_text("5")
    with pytest.raises(ParseError, match="object"):
        read_result(p)
