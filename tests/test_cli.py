"""End-to-end command-line checks, run in process through main()."""

import json
import math
import re

import pytest

import delta_lens.acceptance as acceptance
from delta_lens import cli, critical
from delta_lens.census import load_catalog
from delta_lens.errors import NoCatalogMatch
from delta_lens.cli import main, parse_complex, parse_range, parse_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("0.5+14.1i") == complex(0.5, 14.1)
    assert parse_complex("-2") == complex(-2.0, 0.0)
    assert parse_complex("1e-3-2.5e1i") == complex(1e-3, -25.0)
    import argparse
    for bad in ("", "2i", "1+i", "1_2", "(1+2j)"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_range("3:1")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size("12x")


@pytest.mark.parametrize("function, want", [
    ("zeta", "1.64493406684823"),  # pi^2 / 6
    ("beta", "0.915965594177219"),  # Catalan's constant
    ("C", "6.02681203969194"),  # 4 zeta(2) beta(2)
], ids=["zeta", "beta", "C"])
def test_eval_text(capsys, function, want):
    code, out, _ = run_cli(capsys, "eval", "--function", function, "--s", "2")
    assert code == 0
    assert out.splitlines()[0] == f"re {want}"
    assert "phase_folded 0" in out


def test_eval_json_payload(capsys):
    code, out, _ = run_cli(capsys, "eval", "--function", "deltaq",
                           "--q", "8", "--s", "2.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["function"] == "deltaq"
    assert abs(payload["re"] - 1.7693020093168172) < 1e-10
    assert payload["im"] == 0.0


@pytest.mark.parametrize("fn, extra", [("delta5", ()), ("deltaq", ("--q", "8"))],
                         ids=["delta5", "deltaq"])
def test_eval_delta5_zero_note(capsys, fn, extra):
    code, out, _ = run_cli(capsys, "eval", "--function", fn, "--s", "0.75", *extra)
    assert code == 0
    assert "re 0" in out and f"note zero of {fn}" in out


def test_successive_calls_share_no_parser_state(capsys):
    # main reuses one parser; a --q given to one call must not reach the
    # next, which would refuse it for zeta with exit 2
    def fresh(argv):
        args = cli._build_parser.__wrapped__().parse_args(list(argv))
        assert args.handler(args) == 0
        return json.loads(capsys.readouterr().out)

    deltaq = ("eval", "--function", "deltaq", "--q", "3", "--s", "2.5", "--format", "json")
    zeta = ("eval", "--function", "zeta", "--s", "2.5", "--format", "json")
    for argv in (deltaq, zeta, deltaq, zeta):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out) == fresh(argv)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--function", "zeta"])  # --s missing
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, *zeta)
    assert code == 0 and json.loads(out) == fresh(zeta)
    assert cli._build_parser() is cli._build_parser()


def test_eval_f5_critical_line(capsys):
    code, out, _ = run_cli(capsys, "eval", "--function", "f5",
                           "--s", "0.5+30i", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["modulus"] - 1.0) < 1e-12
    assert abs(payload["phase"] + math.pi / 4) < 0.01


def test_eval_lq_requires_q(capsys):
    code, _, err = run_cli(capsys, "eval", "--function", "Lq", "--s", "2")
    assert code == 2
    assert "DomainError" in err


@pytest.mark.parametrize("fn", ["zeta", "beta", "delta5", "f5", "C"])
def test_eval_rejects_q_for_other_functions(capsys, fn):
    # --q would otherwise be ignored: delta5 at 2.5 is not delta_8 at 2.5
    code, out, err = run_cli(capsys, "eval", "--function", fn, "--q", "8", "--s", "2.5")
    assert code == 2
    assert out == ""
    assert "DomainError" in err


def test_eval_rejects_malformed_point(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--function", "zeta", "--s", "nope"])
    assert exc.value.code == 2


def test_zeros_beta_text(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--source", "beta", "--t-max", "7")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["count"] == "1"
    assert abs(float(lines["first"]) - 6.020948904697586) < 1e-8
    assert lines["first"] == lines["last"]


def test_eval_refuses_a_height_above_the_ceiling(capsys):
    code, out, err = run_cli(capsys, "eval", "--function", "zeta", "--s", "0.5+800i")
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError: ") and "height ceiling 500" in err


def test_eval_refuses_L8_above_the_ceiling(capsys):
    # L_-8 is a CVZ series, so it shares zeta's ceiling
    code, out, err = run_cli(capsys, "eval", "--function", "Lq", "--q", "8", "--s", "0.5+600i")
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError: ") and "height ceiling 500" in err


def test_zeros_refuses_a_merged_catalog_past_its_end(capsys, monkeypatch):
    # the merged catalog's pole scan runs to 2 t_max, so it ends at t = 100
    def no_scan(*args):
        raise AssertionError("a refused scan was evaluated")

    monkeypatch.setattr(critical, "_line_values", no_scan)
    code, out, err = run_cli(capsys, "zeros", "--source", "delta5", "--t-max", "150")
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError: ") and "t_max <= 100" in err


def test_zeros_delta5_kinds(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--source", "delta5",
                           "--t-max", "15", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["kinds"].startswith("Z,P,Z,P,P,Z")


def test_zeros_catalog_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "zeta60.jsonl"
    code, out, _ = run_cli(capsys, "zeros", "--source", "zeta", "--t-max", "60",
                           "--out", str(out_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 13
    catalog = load_catalog(out_path)
    assert len(catalog.entries) == 13
    assert abs(catalog.entries[0].t - 14.134725141734693) < 1e-8
    assert catalog.source == "zeta"


def test_trace_phase_zero(tmp_path, capsys):
    out_path = tmp_path / "line1.csv"
    code, out, _ = run_cli(capsys, "trace", "--kind", "phase-zero", "--n", "1",
                           "--out", str(out_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terminus_kind"] == "zero"
    assert abs(payload["terminus_catalog_t"] - 6.020948904697586) < 1e-6
    header = out_path.read_text().splitlines()[0]
    assert header == "sigma,t,phase,modulus"


def test_trace_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "trace", "--n", "1")
    assert code == 0
    assert (tmp_path / "trace_phase-zero_1.csv").exists()
    assert "terminus_kind zero" in out


def test_trace_amplitude_between(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "trace", "--kind", "amplitude-one", "--n", "1",
                           "--out", str(tmp_path / "amp1.csv"))
    assert code == 0
    assert "terminus strictly between catalogued points" in out


def test_trace_rejects_bad_index(capsys):
    code, _, err = run_cli(capsys, "trace", "--n", "0")
    assert code == 2
    assert "DomainError" in err


def test_box_count(capsys):
    code, out, _ = run_cli(capsys, "box-count", "--n-low", "1", "--n-high", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["zeros_minus_poles"] == 0
    assert payload["max_step_jump"] < math.pi / 2


def test_box_count_rejects_empty_box(capsys):
    code, _, err = run_cli(capsys, "box-count", "--n-low", "2", "--n-high", "2")
    assert code == 2
    assert "DomainError" in err


def test_census(capsys):
    code, out, _ = run_cli(capsys, "census", "--T", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["counted_difference"] == 0
    assert payload["doubled"]["counted"] == 0
    assert payload["split"]["counted"] == 0


def test_census_text_lines(capsys):
    code, out, _ = run_cli(capsys, "census", "--T", "30", "--format", "text")
    assert code == 0
    assert "N_zeta(60) = 13" in out
    assert "counted_difference 0" in out


def test_portrait(tmp_path, capsys):
    out_path = tmp_path / "tiny.ppm"
    code, out, _ = run_cli(capsys, "portrait", "--mode", "phase",
                           "--sigma", "0:1", "--t", "5:8",
                           "--size", "16x16", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path} (16x16, mode phase)" in out
    data = out_path.read_bytes()
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == 13 + 16 * 16 * 3


def test_portrait_amplitude(tmp_path, capsys):
    out_path = tmp_path / "tiny.ppm"
    code, out, _ = run_cli(capsys, "portrait", "--mode", "amplitude", "--q", "8",
                           "--sigma", "0:1", "--t", "5:8",
                           "--size", "16x8", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path} (16x8, mode amplitude)" in out
    data = out_path.read_bytes()
    assert data.startswith(b"P6\n16 8\n255\n")
    assert len(data) == 12 + 16 * 8 * 3


@pytest.mark.parametrize("bound, message", [("5", "is not a range of the form lo:hi"),
                                            ("5:x", "has a non-numeric bound")],
                         ids=["no-colon", "non-numeric"])
def test_portrait_rejects_a_malformed_range(capsys, bound, message):
    with pytest.raises(SystemExit) as info:
        main(["portrait", "--mode", "phase", "--sigma", "0:1", "--t", bound,
              "--size", "16x16", "--out", "unused.ppm"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_portrait_rejects_zero_width(capsys):
    code, _, err = run_cli(capsys, "portrait", "--mode", "phase",
                           "--sigma", "0:1", "--t", "5:8", "--size", "0x16",
                           "--out", "unused.ppm")
    assert code == 2
    assert "SpecInvalid" in err


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--only", "special-values")
    assert code == 0
    assert "[13/13] special-values" in out
    assert "PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_unknown_slug(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--only", "nope")
    assert code == 2
    assert "DomainError" in err


def test_verify_reports_a_raising_criterion_as_fail(capsys, monkeypatch):
    # a check that raises a library error fails, and the criteria after it run
    def raising(ctx):
        raise NoCatalogMatch("no catalogued point near t = 99")

    rows = tuple((n, slug, raising if n == 8 else fn)
                 for n, slug, fn in acceptance.REGISTRY if n in (8, 13))
    monkeypatch.setattr(acceptance, "REGISTRY", rows)
    code, out, err = run_cli(capsys, "verify-all")
    assert code == 1
    assert re.search(r"^\[ 8/13\] census-identity\s+FAIL .*  NoCatalogMatch: no catalogued "
                     r"point near t = 99$", out, re.M)
    assert "[13/13] special-values       PASS" in out
    assert out.endswith("1/2 criteria passed\n")
    assert err == ""


def test_verify_catches_injected_bug(capsys, monkeypatch):
    # sabotage one reference constant; the harness must notice and exit 1
    monkeypatch.setattr(acceptance, "REFERENCE_SLOPES", ((0.75, -4.0),))
    code, out, _ = run_cli(capsys, "verify-all", "--only", "slopes")
    assert code == 1
    assert "FAIL" in out
