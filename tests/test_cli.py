import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdsk.cli
import cdsk.driver
import cdsk.kdc
import cdsk.kernel
import cdsk.spectral
from cdsk.bounds import (
    BoundInputs,
    empirical_loss,
    generalization_bound,
    rademacher_bound,
)
from cdsk.cli import build_parser, main
from cdsk.data_io import load_csv, make_blobs, make_two_moons, read_result, write_csv
from cdsk.driver import CdskConfig, run_cdsk
from cdsk.errors import DegenerateDataError
from cdsk.kdc import KdeModel
from cdsk.kernel import KernelSpec, default_bandwidth, gram
from cdsk.spectral import psd_split
from test_bounds import omega_terms_reference
from test_kdc import decision_squared_integral


@pytest.fixture()
def blobs_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    write_csv(make_blobs(25, [[0.0, 0.0], [12.0, 12.0]], 0.5, seed=0), path)
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no line for {key!r} in output:\n{out}")


def test_cluster_blobs(capsys, blobs_csv, tmp_path):
    out_doc = tmp_path / "res.json"
    rc, out, _ = _run(
        capsys,
        ["cluster", "--input", blobs_csv, "--labels", "2", "--clusters", "2",
         "--output", str(out_doc)],
    )
    assert rc == 0
    assert _value(out, "accuracy") == "1.000"
    assert _value(out, "qp_converged") == "true"
    assert _value(out, "n") == "50"
    result = read_result(out_doc)
    assert sorted(set(result.labels.tolist())) == [1, 2]
    assert abs(result.alpha.sum() - 1.0) < 1e-9


def test_cluster_reports_the_objective_when_the_first_graph_degenerates(
    capsys, blobs_csv, monkeypatch
):
    # a degenerate graph stops the run at the weight step just recorded, so
    # even the first graph's failure leaves one trace entry to report
    def degenerate(*args):
        raise DegenerateDataError("drained")

    monkeypatch.setattr(cdsk.driver, "disc_similarity", degenerate)
    rc, out, _ = _run(capsys, ["cluster", "--input", blobs_csv, "--clusters", "2"])
    assert rc == 0
    assert _value(out, "iterations") == "1"
    float(_value(out, "objective_final"))


def test_readme_commands_parse():
    # the README's command examples must stay valid as flags change
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [
        line for line in block.replace("\\\n", " ").splitlines() if line.startswith("cdsk ")
    ]
    assert commands
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_cluster_missing_required_flag(capsys, blobs_csv):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--input", blobs_csv])
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


def test_runs_below_one_is_usage_error(capsys, blobs_csv, tmp_path):
    cases = [(verb, ["--max-iter", "0"]) for verb in (["cluster"], ["tune"])]
    cases += [(verb, ["--clusters", k]) for verb in (["cluster"], ["tune"]) for k in ("0", "1")]
    cases += [(["baseline"], ["--clusters", "0"])]
    # a negative seed, on every verb that takes one
    cases += [(verb, ["--seed", "-1"]) for verb in (["cluster"], ["tune"], ["baseline"])]
    for verb, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--input", blobs_csv, "--clusters", "2"] + flag)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert flag[0] in captured.err
        assert captured.out == ""
    for kind in ("blobs", "moons"):
        with pytest.raises(SystemExit) as exc:
            main(["synth", kind, "--out", str(tmp_path / "s.csv"), "--seed", "-1"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "s.csv").exists()


def test_tune_bad_grid_value_prints_no_report(capsys, blobs_csv):
    rc, out, err = _run(
        capsys, ["tune", "--input", blobs_csv, "--clusters", "2", "--grid", "0.1", "3"]
    )
    assert rc == 1
    assert out == ""
    assert "3.0" in err


def test_data_dependent_failure_prints_no_report(capsys, tmp_path):
    path = tmp_path / "ten.csv"
    write_csv(make_blobs(5, [[0.0, 0.0], [12.0, 12.0]], 0.5, seed=0), path)
    for argv, message in (
        (["cluster", "--clusters", "11"], "n=10 is smaller than c=11"),
        (["baseline", "--clusters", "11"], "n=10 is smaller than c=11"),
        (["tune", "--clusters", "6"], "validation subset needs 12 points"),
    ):
        rc, out, err = _run(capsys, argv + ["--input", str(path)])
        assert rc == 1
        assert out == ""
        assert message in err


def test_cluster_bad_lambda(capsys, blobs_csv):
    # invalid values fail before any part of the report is printed
    for flag, value in (("--lambda", "3"), ("--bandwidth", "0")):
        rc, out, err = _run(
            capsys,
            ["cluster", "--input", blobs_csv, "--clusters", "2", flag, value],
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert flag[2:] in err


def _assert_unknown_flags(capsys, verb, blobs_csv, cases):
    for flags in cases:
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", blobs_csv, "--clusters", "2"] + flags)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert flags[0] in captured.err
        assert captured.out == ""


def test_cluster_has_no_tune_lambda_flag(capsys, blobs_csv):
    # one clustering per call: cluster does not tune or repeat
    _assert_unknown_flags(capsys, "cluster", blobs_csv, (["--tune-lambda"], ["--runs", "2"]))


def test_tune_rejects_flags_it_would_ignore(capsys, blobs_csv, tmp_path):
    # tune only reports lambda: it does not cluster, repeat or write a result document
    doc = tmp_path / "t.json"
    _assert_unknown_flags(
        capsys,
        "tune",
        blobs_csv,
        (["--then-cluster"], ["--output", str(doc)], ["--runs", "2"], ["--lambda", "0.3"]),
    )
    assert not doc.exists()


def test_cluster_missing_file(capsys, tmp_path):
    rc, _, err = _run(
        capsys,
        ["cluster", "--input", str(tmp_path / "nope.csv"), "--clusters", "2"],
    )
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_cluster_deterministic_documents(capsys, blobs_csv, tmp_path):
    doc1, doc2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cluster", "--input", blobs_csv, "--labels", "2", "--clusters", "2",
            "--seed", "4"]
    rc1, out1, _ = _run(capsys, argv + ["--output", str(doc1)])
    rc2, out2, _ = _run(capsys, argv + ["--output", str(doc2)])
    assert rc1 == rc2 == 0
    assert out1.replace(str(doc1), "X") == out2.replace(str(doc2), "X")
    assert doc1.read_bytes() == doc2.read_bytes()


def test_baseline_command(capsys, blobs_csv):
    rc, out, _ = _run(
        capsys, ["baseline", "--input", blobs_csv, "--labels", "2", "--clusters", "2"]
    )
    assert rc == 0
    assert _value(out, "accuracy") == "1.000"


def test_tune_command(capsys, tmp_path):
    path = tmp_path / "blobs.csv"
    write_csv(make_blobs(30, [[0.0, 0.0], [12.0, 12.0]], 0.5, seed=1), path)
    rc, out, _ = _run(
        capsys,
        ["tune", "--input", str(path), "--labels", "2", "--clusters", "2",
         "--grid", "0.1", "0.3"],
    )
    assert rc == 0
    chosen = float(_value(out, "chosen_lambda"))
    assert chosen in (0.1, 0.3)
    assert _value(out, "lambda_grid") == "0.1 0.3"
    assert "entropy 0.1" in out and "entropy 0.3" in out
    # the label column is only dropped from the features, and --help says so
    assert "accuracy" not in out and "nmi" not in out
    with pytest.raises(SystemExit):
        main(["tune", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "labels, dropped from the features (tune prints no metrics)" in usage
    assert "for metrics" not in usage


def test_tune_then_cluster_document_equals_run_cdsk(capsys, tmp_path):
    path, doc = tmp_path / "blobs.csv", tmp_path / "res.json"
    write_csv(make_blobs(30, [[0.0, 0.0], [4.0, 1.0]], 1.5, seed=5), path)
    common = ["--input", str(path), "--labels", "2", "--clusters", "2", "--bandwidth", "1.5",
              "--seed", "3"]
    rc, out, _ = _run(capsys, ["tune"] + common + ["--grid", "0.1", "0.2"])
    assert rc == 0
    chosen_text = _value(out, "chosen_lambda")
    rc, _, _ = _run(capsys, ["cluster"] + common + ["--lambda", chosen_text, "--output", str(doc)])
    assert rc in (0, 2)
    chosen = float(chosen_text)
    want = run_cdsk(
        load_csv(path, label_column=2), CdskConfig(c=2, lam=chosen, bandwidth=1.5, seed=3)
    )
    got = read_result(doc)
    assert got.lambda_used == chosen
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.alpha, want.alpha)
    assert got.objective_trace == want.objective_trace
    assert got.qp_converged == want.qp_converged


def test_decompose_psd_matrix(capsys, tmp_path):
    rng = np.random.default_rng(0)
    b = rng.normal(size=(6, 3))
    s = b @ b.T
    path = tmp_path / "sim.csv"
    with open(path, "w") as fh:
        for row in s:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    rc, out, _ = _run(capsys, ["decompose", "--input", str(path)])
    assert rc == 0
    assert _value(out, "s_minus_frobenius") == "0.0"
    assert float(_value(out, "reconstruction_error")) < 1e-8
    assert float(_value(out, "min_eigenvalue_plus")) >= -1e-8


def test_decompose_rejects_nonsquare(capsys, tmp_path):
    path = tmp_path / "rect.csv"
    with open(path, "w") as fh:
        fh.write("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    rc, _, err = _run(capsys, ["decompose", "--input", str(path)])
    assert rc == 1
    assert err.startswith("error:")


def test_ise_convolution_check(capsys):
    rc, out, _ = _run(
        capsys, ["ise", "--check-convolution", "--a", "0", "--b", "2", "--h", "1"]
    )
    assert rc == 0
    assert abs(float(_value(out, "closed")) - 0.6520493321732922) < 1e-12
    assert float(_value(out, "rel_err")) < 1e-6
    # the trapezoid sums in scipy's operation order: the bytes that
    # scipy.integrate.trapezoid gave
    for a, b, h, numeric in (
        ("0", "2", "1", "0.6520493321732921"),
        ("1.5", "1.5", "1.0", "1.7724538509055159"),
        ("0", "1", "0.8", "0.9594418130258937"),
        ("0", "2", "1.6", "1.9188836260517874"),
        ("-3", "4.5", "0.3", "7.365180483549367e-69"),
    ):
        rc, out, _ = _run(capsys, ["ise", "--check-convolution", "--a", a, "--b", b, "--h", h])
        assert rc == 0
        assert _value(out, "numeric") == numeric


def test_cli_import_skips_scipy_integrate():
    # a fresh process: the test session itself may have imported them; the
    # assignment module loads on first use
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    modules = ("scipy.integrate", "scipy.optimize", "scipy.spatial")
    code = f"import sys, cdsk.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run_process(argv):
    """cdsk in a separate process, so an uncaught exception shows as a traceback."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cdsk.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_ise_convolution_check_rejects_underflowing_bandwidth():
    proc = _run_process(["ise", "--check-convolution", "--h", "1e-300"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags",
    # non-finite points; a quadrature interval whose squared length overflows a double
    [["--a", "nan"], ["--a", "inf"], ["--b=-inf"], ["--a", "1e200", "--b", "0"],
     ["--a", "1e154", "--b=-1e154"], ["--a", "0", "--b", "0", "--h", "9e153"]],
    ids=["a-nan", "a-inf", "b-neg-inf", "a-1e200", "span-2e154", "h-9e153"],
)
def test_ise_convolution_check_rejects_unusable_points(flags):
    proc = _run_process(["ise", "--check-convolution"] + flags)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e30"])
def test_non_integer_label_cell_is_an_error(label, tmp_path):
    # round(inf) and the int64 conversion of 1e30 raised OverflowError
    path = tmp_path / "labels.csv"
    path.write_text(f"0.1,0.2,1\n0.3,0.4,{label}\n0.5,0.6,2\n")
    proc = _run_process(["bounds", "--input", str(path), "--labels", "2"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert f"{path}: line 2: label" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ise_convolution_check_overflowing_quotient_is_zero():
    # (a - b)^2 / (2 h^2) overflows to inf, and exp(-inf) = 0 is the rounded value
    proc = _run_process(["ise", "--check-convolution", "--a", "1e150", "--h", "1e-150"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1:] == ["numeric: 0.0", "closed: 0.0", "rel_err: 0.0"]


def test_ise_dataset_mode_rejects_unusable_inputs(capsys, blobs_csv):
    base = ["ise", "--input", blobs_csv, "--labels", "2"]
    for extra, message in (
        (["--bandwidth", "inf"], "bandwidth"),
        (["--bandwidth", "1e-160"], "bandwidth"),
        (["--bandwidth", "1.0", "--eps", "nan"], "eps"),
        (["--bandwidth", "1.0", "--eps", "inf"], "eps"),
    ):
        rc, out, err = _run(capsys, base + extra)
        assert rc == 1
        assert out == ""
        assert message in err


def test_ise_requires_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ise"])
    assert exc.value.code == 64


def test_ise_rejects_flags_of_the_other_mode(capsys, blobs_csv):
    # the convolution check reads no dataset, the dataset mode no --a, --b, --h
    for argv, flag in (
        (["--check-convolution", "--input", blobs_csv], "--input"),
        (["--check-convolution", "--lambda1", "2"], "--lambda1"),
        (["--input", blobs_csv, "--labels", "2", "--a", "5", "--h", "3"], "--a"),
        (["--input", blobs_csv, "--labels", "2", "--h", "3"], "--h"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["ise"] + argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


def test_ise_dataset_mode(capsys, blobs_csv):
    rc, out, _ = _run(
        capsys, ["ise", "--input", blobs_csv, "--labels", "2", "--bandwidth", "1.0"]
    )
    assert rc == 0
    assert float(_value(out, "s_ise_max")) > 0.0
    assert float(_value(out, "residual_slack")) > 0.0
    # n=50 two-class blobs: r-hat squared integral is a finite positive number
    assert float(_value(out, "decision_squared_integral")) > 0.0


def test_ise_builds_each_kernel_once(capsys, blobs_csv, monkeypatch):
    # one kernel, Kt for k_alpha, squared into Kh for hat_ise and s_ise; the
    # decision integral is tau1 k_alpha.  The heuristic makes the one more
    # distance build.
    builds, bandwidths = [], []
    real_build, real_gram = cdsk.kernel._squared_distances, cdsk.kdc.gram

    def counting_build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    def recording_gram(data, spec=None):
        bandwidths.append(spec.bandwidth)
        return real_gram(data, spec)

    monkeypatch.setattr(cdsk.kernel, "_squared_distances", counting_build)
    monkeypatch.setattr(cdsk.kdc, "gram", recording_gram)
    for flags, want_builds in ((["--bandwidth", "1.0"], 1), ([], 2)):
        builds.clear()
        bandwidths.clear()
        rc, out, err = _run(capsys, ["ise", "--input", blobs_csv, "--labels", "2"] + flags)
        assert rc == 0, err
        assert len(builds) == want_builds
        assert bandwidths == [np.sqrt(2.0) * float(_value(out, "bandwidth"))]


def test_ise_decision_integral_matches_closed_form(capsys, tmp_path):
    samples = {
        "moons": (make_two_moons(400, 0.05, seed=0), ["--bandwidth", "0.2"]),
        "blobs_d5": (make_blobs(60, [[0.0] * 5, [2.0] * 5], 1.0, seed=4), []),
    }
    for name, (sample, flags) in samples.items():
        path = tmp_path / f"{name}.csv"
        write_csv(sample, path)
        argv = ["ise", "--input", str(path), "--labels", str(sample.d)] + flags
        rc, out, err = _run(capsys, argv)
        assert rc == 0, err
        data = load_csv(path, label_column=sample.d)
        model = KdeModel(
            data.data, np.full(data.n, 1.0 / data.n), data.labels, float(_value(out, "bandwidth"))
        )
        want = decision_squared_integral(model)
        got = float(_value(out, "decision_squared_integral"))
        assert abs(got - want) <= 1e-12 * want, (name, got, want)


def test_bounds_command(capsys, blobs_csv):
    rc, out, _ = _run(
        capsys, ["bounds", "--input", blobs_csv, "--labels", "2", "--gamma", "1.0"]
    )
    assert rc == 0
    emp = float(_value(out, "empirical_loss"))
    upper = float(_value(out, "empirical_loss_upper_bound"))
    assert emp <= upper + 1e-10
    assert float(_value(out, "generalization_bound")) >= emp
    assert float(_value(out, "omega_plus")) >= 0.0
    assert float(_value(out, "rademacher_bound")) > 0.0


def _bounds_reference(path, bandwidth, gamma, delta):
    """Reference: the bound inputs from the full PSD split of the gram matrix."""
    data = load_csv(path, label_column=2)
    kmat = gram(data, KernelSpec(bandwidth)).values
    alpha = np.full(data.n, 1.0 / data.n)
    split = psd_split(kmat)
    plus, minus = omega_terms_reference(split, alpha, data.labels)
    r = float(np.sqrt(max(split.s_plus.diagonal().max(), split.s_minus.diagonal().max())))
    inputs = BoundInputs(
        n=data.n, c=int(data.labels.max()), gamma=gamma, delta=delta,
        b_plus=plus, b_minus=minus, r=r,
    )
    return {
        "omega_plus": plus,
        "omega_minus": minus,
        "generalization_bound": generalization_bound(
            inputs, empirical_loss(data, alpha, KernelSpec(bandwidth), gamma)
        ),
        "rademacher_bound": rademacher_bound(inputs, delta),
    }


def test_bounds_matches_psd_split_reference(capsys, tmp_path):
    # K is PSD with unit diagonal: the split's S- is 0 and r is 1 up to rounding
    samples = {
        "two": make_blobs(25, [[0.0, 0.0], [12.0, 12.0]], 0.5, seed=0),
        "three": make_blobs(40, [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]], 1.0, seed=3),
    }
    for name, sample in samples.items():
        path = tmp_path / f"{name}.csv"
        write_csv(sample, path)
        rc, out, _ = _run(
            capsys,
            ["bounds", "--input", str(path), "--labels", "2", "--bandwidth", "0.9",
             "--gamma", "1.5", "--delta", "0.05"],
        )
        assert rc == 0
        assert _value(out, "omega_minus") == "0.0"
        for key, want in _bounds_reference(path, 0.9, 1.5, 0.05).items():
            got = float(_value(out, key))
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (name, key)


def test_bounds_runs_no_psd_split(capsys, blobs_csv, monkeypatch):
    def refuse(s):
        raise AssertionError("bounds must not split the kernel")

    monkeypatch.setattr(cdsk.cli, "psd_split", refuse)
    monkeypatch.setattr(cdsk.spectral, "psd_split", refuse)
    rc, out, err = _run(capsys, ["bounds", "--input", blobs_csv, "--labels", "2"])
    assert rc == 0, err
    assert _value(out, "omega_minus") == "0.0"


def test_bounds_builds_the_distances_once(capsys, tmp_path, monkeypatch):
    # without --bandwidth the heuristic is read from the gram's own distances
    path = tmp_path / "moons.csv"
    write_csv(make_two_moons(200, 0.05, seed=0), path)
    calls = []
    real = cdsk.kernel.dsyrk

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cdsk.kernel, "dsyrk", counting)
    rc, out, err = _run(capsys, ["bounds", "--input", str(path), "--labels", "2"])
    assert rc == 0, err
    assert len(calls) == 1
    data = load_csv(path, label_column=2)
    assert float(_value(out, "bandwidth")) == default_bandwidth(data)


def test_negative_label_column_is_usage_error(capsys, blobs_csv):
    for verb in (["cluster", "--clusters", "2"], ["tune", "--clusters", "2"],
                 ["baseline", "--clusters", "2"], ["bounds"], ["ise"]):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--input", blobs_csv, "--labels", "-1"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert "--labels" in captured.err
        assert captured.out == ""
    # a column past the file's width is a data error, not a usage error
    rc, out, err = _run(capsys, ["bounds", "--input", blobs_csv, "--labels", "3"])
    assert rc == 1
    assert out == ""
    assert "out of range" in err


def test_bounds_requires_labels(capsys, blobs_csv):
    rc, _, err = _run(capsys, ["bounds", "--input", blobs_csv])
    assert rc == 1
    assert "labels" in err


def test_synth_blobs_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    rc1, out1, _ = _run(
        capsys, ["synth", "blobs", "--out", str(f1), "--n-per-cluster", "10", "--seed", "3"]
    )
    rc2, _, _ = _run(
        capsys, ["synth", "blobs", "--out", str(f2), "--n-per-cluster", "10", "--seed", "3"]
    )
    assert rc1 == rc2 == 0
    assert _value(out1, "n") == "20"
    assert f1.read_bytes() == f2.read_bytes()


def test_synth_moons_roundtrip(capsys, tmp_path):
    path = tmp_path / "moons.csv"
    rc, out, _ = _run(
        capsys, ["synth", "moons", "--out", str(path), "--n", "40", "--noise", "0.02"]
    )
    assert rc == 0
    assert _value(out, "kind") == "moons"
    rc2, out2, _ = _run(
        capsys,
        ["cluster", "--input", str(path), "--labels", "2", "--clusters", "2",
         "--bandwidth", "0.4"],
    )
    assert rc2 in (0, 2)
    assert "accuracy" in out2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moons", "--noise", "nan"], "noise must be finite"),
        (["moons", "--noise", "inf"], "noise must be finite"),
        (["blobs", "--sigma", "nan"], "sigma must be finite"),
        (["blobs", "--sigma", "inf"], "sigma must be finite"),
        (["blobs", "--centers", "0,0;1"], "centers must be numeric rows of equal length"),
    ],
)
def test_synth_rejects_unusable_parameters(capsys, tmp_path, argv, message):
    out = tmp_path / "s.csv"
    rc, stdout, err = _run(capsys, ["synth"] + argv + ["--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert f"error: {message}" in err
    assert not out.exists()


def test_synth_rejects_flags_of_the_other_kind(capsys, tmp_path):
    out = tmp_path / "s.csv"
    for argv, flag in (
        (["blobs", "--n", "10", "--noise", "0.3"], "--n"),
        (["blobs", "--noise", "0.3"], "--noise"),
        (["moons", "--sigma", "9", "--centers", "1,1;2,2"], "--sigma"),
        (["moons", "--n-per-cluster", "5"], "--n-per-cluster"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["synth"] + argv + ["--out", str(out)])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()
