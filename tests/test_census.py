"""Zero census: smooth main terms, counted catalogs, the doubling identity
and the JSON-lines persistence format."""

import dataclasses
import json
import math

import numpy as np
import pytest

from delta_lens.census import (DistributionReport, GeneratorMetadata,
                               ZeroCatalog, build_catalog,
                               census_identity_check, count_entries,
                               load_catalog, n_beta_main, n_Lq_main,
                               n_zeta_main, pairs_between_phase_lines,
                               save_catalog)
from delta_lens import contours, critical
from delta_lens.contours import _SIGMA_START, argument_principle_box, trace_phase_zero_line
from delta_lens.critical import _CATALOGUED, _SCAN_STEP, CriticalPoint, find_zeros
from delta_lens.errors import (CatalogTooShort, CorruptRecord, DomainError,
                               FormatVersionMismatch, IoFailure, MissingTrace,
                               UnsupportedDiscriminant)

FIRST_ZETA_ZERO = 14.134725141734693


def test_main_term_values():
    # (t / 2 pi)(log t - 1 - log(2 pi)) and the beta analog
    t = 100.0
    want = t / (2.0 * math.pi) * (math.log(t) - 1.0 - math.log(2.0 * math.pi))
    assert n_zeta_main(t) == pytest.approx(want, abs=1e-13)
    want_b = t / (2.0 * math.pi) * (math.log(t) - 1.0 - math.log(math.pi / 2.0))
    assert n_beta_main(t) == pytest.approx(want_b, abs=1e-13)


@pytest.mark.parametrize("main", [n_zeta_main, n_beta_main])
@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_main_terms_refuse_a_non_positive_height(main, t):
    with pytest.raises(DomainError, match="t must be positive"):
        main(t)


def test_main_term_doubling_identity():
    rng = np.random.default_rng(3)
    for t in rng.uniform(2.0, 100.0, size=50):
        diff = n_zeta_main(2.0 * t) - n_zeta_main(t) - n_beta_main(t)
        assert abs(diff) < 1e-10


def test_n_Lq_main():
    assert n_Lq_main(4, 50.0) == pytest.approx(n_beta_main(50.0))
    # densities grow with the conductor
    assert (n_Lq_main(3, 50.0) < n_Lq_main(4, 50.0)
            < n_Lq_main(7, 50.0) < n_Lq_main(8, 50.0))
    with pytest.raises(UnsupportedDiscriminant):
        n_Lq_main(5, 50.0)


def test_catalog_counts(zeta_catalog, beta_catalog):
    assert count_entries(zeta_catalog, 30.0) == 3
    assert count_entries(zeta_catalog, 60.0) == 13
    assert count_entries(zeta_catalog, 100.0) == 29
    assert count_entries(zeta_catalog, 120.0) == 38
    assert count_entries(beta_catalog, 15.0) == 3
    assert count_entries(beta_catalog, 30.0) == 10
    assert count_entries(beta_catalog, 60.0) == 25
    assert count_entries(beta_catalog, 100.0) == 50


def test_count_entries_inclusive_boundary(zeta_catalog):
    assert count_entries(zeta_catalog, FIRST_ZETA_ZERO) == 1
    assert count_entries(zeta_catalog, FIRST_ZETA_ZERO - 1e-6) == 0


def test_count_entries_by_kind(merged_catalog):
    zeros = count_entries(merged_catalog, 13.0, kind="zero")
    poles = count_entries(merged_catalog, 13.0, kind="pole")
    assert (zeros, poles) == (3, 3)
    with pytest.raises(DomainError):
        count_entries(merged_catalog, 13.0, kind="zeros")


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_count_entries_refuses_a_non_finite_cut(zeta_catalog, t):
    # a NaN or -inf cut used to count nothing, and +inf everything
    with pytest.raises(DomainError, match="not finite"):
        count_entries(zeta_catalog, t)


def test_counts_track_main_terms(zeta_catalog, beta_catalog):
    for t in (20.0, 40.0, 60.0, 80.0, 100.0):
        assert abs(count_entries(zeta_catalog, t) - n_zeta_main(t)) <= 2.0
        assert abs(count_entries(beta_catalog, t) - n_beta_main(t)) <= 2.0


def test_census_identity(zeta_catalog, beta_catalog):
    cats = {"zeta": zeta_catalog, "beta": beta_catalog}
    for T in (20.0, 30.0, 40.0, 50.0):
        doubled, split = census_identity_check(T, cats)
        assert abs(doubled.counted - split.counted) <= 1


def test_census_identity_exact_at_pole_termini(zeta_catalog, beta_catalog,
                                               phase_traces):
    # the exact form of the identity holds at the pole termini of the traced
    # phase-zero lines (even line index); elsewhere only within +-1
    cats = {"zeta": zeta_catalog, "beta": beta_catalog}
    for n in (2, 4, 6, 8, 10, 12):
        point = phase_traces[n].terminus_point
        assert point is not None and point.kind == "pole"
        doubled, split = census_identity_check(point.t, cats)
        assert doubled.counted - split.counted == 0


def test_census_identity_errors(zeta_catalog, beta_catalog):
    cats = {"zeta": zeta_catalog, "beta": beta_catalog}
    with pytest.raises(CatalogTooShort):
        census_identity_check(80.0, cats)  # needs zeta up to 160
    with pytest.raises(DomainError):
        census_identity_check(-3.0, cats)
    with pytest.raises(DomainError):
        census_identity_check(10.0, {"zeta": zeta_catalog})
    with pytest.raises(CatalogTooShort, match="beta catalog reaches 20.0, need T = 30"):
        census_identity_check(30.0, {"zeta": zeta_catalog, "beta": build_catalog("beta", 20.0)})


def test_pairs_between_phase_lines(merged_catalog, phase_traces):
    for n in range(1, 11):
        zeros, poles = pairs_between_phase_lines(n, merged_catalog, phase_traces)
        assert zeros == poles
    with pytest.raises(MissingTrace):
        pairs_between_phase_lines(12, merged_catalog, phase_traces)
    with pytest.raises(DomainError):
        pairs_between_phase_lines(0, merged_catalog, phase_traces)


@pytest.mark.parametrize("n", [True, 1.0, 2.5, "1"], ids=["True", "1.0", "2.5", "str"])
def test_pairs_refuses_a_non_integer_index(merged_catalog, phase_traces, n):
    # True used to count lines 1-2, as if it were 1
    with pytest.raises(DomainError, match="n must be a positive integer"):
        pairs_between_phase_lines(n, merged_catalog, phase_traces)
    assert (pairs_between_phase_lines(np.int64(1), merged_catalog, phase_traces)
            == pairs_between_phase_lines(1, merged_catalog, phase_traces))


def test_pairs_error_channels(merged_catalog, phase_traces, amplitude_traces):
    with pytest.raises(DomainError, match="trace 2 is not a phase-zero line"):
        pairs_between_phase_lines(1, merged_catalog, {1: phase_traces[1], 2: amplitude_traces[2]})
    with pytest.raises(DomainError, match="termini out of order"):
        pairs_between_phase_lines(1, merged_catalog, {1: phase_traces[2], 2: phase_traces[1]})
    short = dataclasses.replace(merged_catalog, t_max=5.0,
                                entries=tuple(e for e in merged_catalog.entries if e.t <= 5.0))
    with pytest.raises(CatalogTooShort, match="merged catalog reaches 5.0"):
        pairs_between_phase_lines(1, short, phase_traces)


def test_pairs_needs_merged_catalog(zeta_catalog, phase_traces):
    with pytest.raises(DomainError):
        pairs_between_phase_lines(1, zeta_catalog, phase_traces)


@pytest.mark.parametrize("source", _CATALOGUED)
def test_build_catalog_sources(source):
    cat = build_catalog(source, 30.0)
    assert cat.source == source
    assert len(cat.entries) == {"zeta": 3, "beta": 10}[source]
    assert all(e.kind == "zero" and e.source == f"{source}_zero" for e in cat.entries)
    with pytest.raises(DomainError):
        build_catalog("gamma", 7.0)


def test_each_scan_and_seed_reads_its_one_constant(monkeypatch, tmp_path, phase_traces,
                                                   amplitude_traces):
    steps = []
    roots = critical._sign_change_roots

    def spy(f, t_lo, t_hi, scan_step):
        steps.append(scan_step)
        return roots(f, t_lo, t_hi, scan_step)

    monkeypatch.setattr(critical, "_sign_change_roots", spy)
    find_zeros("zeta", 0.0, 20.0)
    assert steps == [_SCAN_STEP]
    for source, scans in (("zeta", 1), ("beta", 1), ("delta5_merged", 3)):
        steps.clear()
        save_catalog(build_catalog(source, 20.0), tmp_path / f"{source}.jsonl")
        assert steps == [_SCAN_STEP] * scans
        header = (tmp_path / f"{source}.jsonl").read_text(encoding="ascii").splitlines()[0]
        assert json.loads(header)["scan_step"] == _SCAN_STEP
    steps.clear()
    trace_phase_zero_line(1)  # one window scan: zeta, beta and the doubled zeta
    assert steps == [_SCAN_STEP] * 3

    for path in (*phase_traces.values(), *amplitude_traces.values()):
        assert path.points[0][0] == _SIGMA_START
    polygons = []
    winding = contours.winding_count

    def recording(polyline):
        polygons.append(polyline)
        return winding(polyline)

    monkeypatch.setattr(contours, "winding_count", recording)
    argument_principle_box(1, 2)
    sigmas = [s for s, t in polygons[0]]
    assert max(sigmas) == _SIGMA_START and sigmas.count(_SIGMA_START) >= 3  # seeds and right edge


def test_catalog_validation():
    meta = GeneratorMetadata(scan_step=0.01, tolerance=1e-9, timestamp="now")
    a = CriticalPoint(t=6.02, kind="zero", source="beta_zero")
    b = CriticalPoint(t=5.0, kind="zero", source="beta_zero")
    with pytest.raises(DomainError):  # entries must ascend
        ZeroCatalog(source="beta", t_max=10.0, entries=(a, b),
                    generator_metadata=meta)
    with pytest.raises(DomainError):  # zeta catalog cannot hold beta zeros
        ZeroCatalog(source="zeta", t_max=10.0, entries=(a,),
                    generator_metadata=meta)
    for step, tol in ((math.nan, 1e-9), (0.0, 1e-9), (0.01, -1e-9), (0.01, math.inf)):
        with pytest.raises(DomainError):
            GeneratorMetadata(scan_step=step, tolerance=tol, timestamp="now")
    with pytest.raises(DomainError, match="source must be one of"):
        ZeroCatalog(source="gamma", t_max=10.0, entries=(), generator_metadata=meta)
    for t_max in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="t_max must be positive and finite"):
            ZeroCatalog(source="beta", t_max=t_max, entries=(), generator_metadata=meta)
    with pytest.raises(DomainError, match="exceeds t_max"):
        ZeroCatalog(source="beta", t_max=6.0, entries=(a,), generator_metadata=meta)


def test_distribution_report_validation():
    DistributionReport(t=30.0, main_term=10.2, counted=10, residual=-0.2)
    with pytest.raises(DomainError):  # residual must equal counted - main
        DistributionReport(t=30.0, main_term=10.2, counted=10, residual=0.5)


@pytest.mark.parametrize("t, main_term, residual", [(math.nan, 1.0, 1.0), (10.0, math.nan, math.nan)])
def test_distribution_report_refuses_nan(t, main_term, residual):
    with pytest.raises(DomainError):
        DistributionReport(t=t, main_term=main_term, counted=2, residual=residual)


@pytest.mark.parametrize("source", [*_CATALOGUED, "delta5_merged"])
def test_save_load_round_trip(tmp_path, source):
    catalog = build_catalog(source, 60.0)
    p1, p2 = tmp_path / "cat.jsonl", tmp_path / "cat2.jsonl"
    save_catalog(catalog, p1)
    loaded = load_catalog(p1)
    assert loaded.source == source
    assert len(loaded.entries) == len(catalog.entries) > 0
    save_catalog(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical reload


def test_load_header_only_is_empty(tmp_path):
    p = tmp_path / "empty.jsonl"
    cat = build_catalog("beta", 3.0)  # no beta zeros this low
    assert cat.entries == ()
    save_catalog(cat, p)
    assert load_catalog(p).entries == ()


def test_load_error_channels(tmp_path, beta_catalog):
    p = tmp_path / "cat.jsonl"
    save_catalog(beta_catalog, p)
    lines = p.read_text().splitlines()

    bad = tmp_path / "version.jsonl"
    bad.write_text(lines[0].replace('"format_version": 1', '"format_version": 2')
                   + "\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(FormatVersionMismatch):
        load_catalog(bad)

    corrupt = tmp_path / "corrupt.jsonl"
    mangled = list(lines)
    mangled[3] = mangled[3][:-1]  # truncated JSON on line 4
    corrupt.write_text("\n".join(mangled) + "\n")
    with pytest.raises(CorruptRecord) as info:
        load_catalog(corrupt)
    assert info.value.line_number == 4

    extra = tmp_path / "extra.jsonl"
    mangled = list(lines)
    mangled[1] = mangled[1][:-1] + ', "color": "red"}'
    extra.write_text("\n".join(mangled) + "\n")
    with pytest.raises(CorruptRecord) as info:
        load_catalog(extra)
    assert info.value.line_number == 2

    with pytest.raises(IoFailure):
        load_catalog(tmp_path / "nope.jsonl")

    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(CorruptRecord, match="missing header record") as info:
        load_catalog(empty)
    assert info.value.line_number == 1

    low = tmp_path / "low.jsonl"  # a header t_max below the entries it heads
    assert '"t_max": 101,' in lines[0]
    low.write_text("\n".join([lines[0].replace('"t_max": 101,', '"t_max": 10,')] + lines[1:]) + "\n")
    with pytest.raises(CorruptRecord, match="inconsistent catalog") as info:
        load_catalog(low)
    assert info.value.line_number == 1


def test_save_into_a_missing_directory(tmp_path, beta_catalog):
    with pytest.raises(IoFailure, match="could not write catalog"):
        save_catalog(beta_catalog, tmp_path / "missing" / "cat.jsonl")


# the last line must end in one newline, as save_catalog ends it
@pytest.mark.parametrize("edit, past_last", [(lambda b: b[:-1], 0), (lambda b: b + b"\n", 1)],
                         ids=["no-final-newline", "blank-last-line"])
def test_load_refuses_other_file_endings(tmp_path, beta_catalog, edit, past_last):
    p = tmp_path / "cat.jsonl"
    save_catalog(beta_catalog, p)
    p.write_bytes(edit(p.read_bytes()))
    with pytest.raises(CorruptRecord) as info:
        load_catalog(p)
    assert info.value.line_number == len(beta_catalog.entries) + 1 + past_last


def _reversed_keys(raw: str) -> str:
    return "{%s}" % ", ".join(reversed(raw[1:-1].split(", ")))


def _short_t(raw: str) -> str:
    t = json.loads(raw)["t"]
    return raw.replace('"t": %.17g' % t, '"t": %.4g' % t)


# each edit makes a record that would not save back to the same bytes, or
# that would save a value the loader itself refuses; a callable value edits
# the raw line, the others set one field and re-encode the record; the file
# is written one byte per character, so "\xc3" is the byte 0xC3
@pytest.mark.parametrize("line, field, value", [
    (0, "format_version", True),
    (0, "format_version", 1.0),
    (1, "t", "6.02"),
    (1, "t", True),
    (1, "multiplicity", 1.9),
    (1, "multiplicity", "1"),
    (0, "timestamp", 5),
    (0, "scan_step", math.nan),
    (1, "refined_to", math.nan),
    (0, "tolerance", -1e-9),
    (1, "refined_to", -1e-10),
    pytest.param(1, "t", 10**400, id="1-t-10**400"),  # no float holds it
    pytest.param(1, "t", lambda raw: raw.replace("{", '{"t": %s%s, ' % ("[" * 10**5, "]" * 10**5), 1),
                 id="1-t-nested"),  # deeper than the JSON decoder recurses
    pytest.param(1, "t", lambda raw: raw.replace("{", '{"t": 5.5, ', 1), id="1-t-duplicate"),
    pytest.param(1, "t", _short_t, id="1-t-4-digits"),
    pytest.param(1, "*", lambda raw: raw.replace(", ", ",").replace(": ", ":"), id="1-compact"),
    pytest.param(1, "*", _reversed_keys, id="1-reversed-keys"),
    pytest.param(0, "*", _reversed_keys, id="0-reversed-keys"),
    pytest.param(0, "timestamp", lambda raw: raw.replace("T", "T\xc3", 1), id="0-timestamp-non-ascii"),
    pytest.param(1, "kind", lambda raw: raw.replace("zero", "z\xc3ro", 1), id="1-kind-non-ascii"),
    pytest.param(1, "*", lambda raw: raw + "\r", id="1-crlf"),
])
def test_load_refuses_what_it_cannot_round_trip(tmp_path, beta_catalog, line, field, value):
    p = tmp_path / "cat.jsonl"
    save_catalog(beta_catalog, p)
    lines = p.read_text().splitlines()
    saved = lines[line]
    if callable(value):
        lines[line] = value(saved)
    else:
        record = json.loads(saved)
        record[field] = value
        lines[line] = json.dumps(record)  # writes NaN for math.nan
    assert lines[line] != saved
    p.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    with pytest.raises(CorruptRecord) as info:
        load_catalog(p)
    assert info.value.line_number == line + 1
