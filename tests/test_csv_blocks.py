"""The CSV writers format their rows in blocks of ``_CSV_BLOCK`` and
``cli._write`` writes a text in slices of ``_WRITE_CHUNK`` characters;
at any block or slice size the bytes equal a one-shot writer's
(``reference.csv_text`` over whole columns, ``Path.write_text``), and a
writer's memory stays a small multiple of the text it returns."""

import tracemalloc

import numpy as np
import pytest

from quasilattice import cli, substitution
from quasilattice.cutproject import project_patch
from quasilattice.deform import AffineDeformation, DiracComb, deform_patch
from quasilattice.diffraction import ComparisonTable, Spectrum
from quasilattice.quadfield import dual_columns, parse_exact
from quasilattice.substitution import LabeledPatch

from reference import csv_text, numbers

COMB_HEADER = "position_float,a,b,c,label,weight_re,weight_im"


# -- one-shot references over whole columns ----------------------------------


def _ref_patch(p):
    return csv_text(COMB_HEADER, "%.17g,%d,%d,%d,%s,1,0",
                    [(x.value(), x.a, x.b, x.c, lab or "")
                     for x, lab in zip(numbers(p.a4, p.b4), p.label.tolist())])


def _ref_comb(comb):
    w = comb.weight.tolist()
    if not comb.is_exact:
        return csv_text(COMB_HEADER, "%.17g,,,,,%.17g,%.17g",
                        [(x, v.real, v.imag) for x, v in zip(comb.positions_float().tolist(), w)])
    return csv_text(COMB_HEADER, "%.17g,%d,%d,%d,,%.17g,%.17g",
                    [(x.value(), x.a, x.b, x.c, v.real, v.imag)
                     for x, v in zip(numbers(*comb.exact_columns()), w)])


def _ref_spectrum(spec):
    return csv_text("k_float,k_a,k_b,k_c,amp_re,amp_im,intensity,source",
                    "%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%s",
                    [(k.value(), k.a, k.b, k.c, v.real, v.imag, i, spec.source)
                     for k, v, i in zip(numbers(spec.a4, spec.b4), spec.amplitude.tolist(),
                                        spec.intensity.tolist())])


def _ref_table(table):
    return csv_text("k_float,emp_re,emp_im,ana_re,ana_im,abs_error",
                    "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                    [(k.value(), e.real, e.imag, a.real, a.imag, abs(e - a))
                     for k, e, a in zip(numbers(table.a4, table.b4), table.empirical.tolist(),
                                        table.analytic.tolist())])


# -- the first n rows of each kind of table ------------------------------------

PATCH = project_patch(40.0)  # 41 points


def _patch(n):
    return LabeledPatch(PATCH.a4[:n], PATCH.b4[:n], PATCH.label[:n], PATCH.radius)


def _comb(n, alpha):
    comb = deform_patch(PATCH, AffineDeformation(alpha))
    return DiracComb(comb.a4[:n], comb.b4[:n], comb.offset[..., :n], comb.weight[:n],
                     comb.radius)


def _waves(n):
    a4, b4 = dual_columns(3.0, 30.0)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return a4[:n], b4[:n], z


def _spectrum(n):
    a4, b4, z = _waves(n)
    return Spectrum(a4, b4, z[0], np.abs(z[0]) ** 2, "closed_form", 3.0, 1e-4)


def _table(n):
    a4, b4, z = _waves(n)
    return ComparisonTable(a4, b4, z[0], z[1])


WRITERS = {
    "patch": (_patch, _ref_patch),
    "exact_comb": (lambda n: _comb(n, parse_exact("3-2*sqrt2")), _ref_comb),
    "float_comb": (lambda n: _comb(n, 0.5), _ref_comb),
    "spectrum": (_spectrum, _ref_spectrum),
    "table": (_table, _ref_table),
}


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_blocks_match_one_shot_writer(monkeypatch, kind, block):
    make, reference = WRITERS[kind]
    monkeypatch.setattr(substitution, "_CSV_BLOCK", block)
    # no rows, one block exactly, one block and a row, several blocks and a part
    for n in (0, block, block + 1, 3 * block + 2):
        table = make(n)
        assert table.to_csv() == reference(table), n


def test_comb_kinds_are_covered():
    assert _comb(3, parse_exact("3-2*sqrt2")).is_exact
    assert not _comb(3, 0.5).is_exact


def test_default_block_boundary():
    patch = project_patch(4200.0)
    n = substitution._CSV_BLOCK
    assert len(patch) > n
    for rows in (n, n + 1):
        head = LabeledPatch(patch.a4[:rows], patch.b4[:rows], patch.label[:rows], patch.radius)
        assert head.to_csv() == _ref_patch(head)


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_write_in_slices(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
    for i, text in enumerate(("", "a\n", "x,1\ny,2\n" * 4, _patch(12).to_csv())):
        target = cli._write(tmp_path / "out", f"{i}.csv", text)
        reference = tmp_path / f"{i}.ref"
        reference.write_text(text)
        assert target == tmp_path / "out" / f"{i}.csv"
        assert target.read_bytes() == reference.read_bytes()


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", [
    ["generate", "--radius", "30"],
    ["diffract", "--radius", "30", "--alpha", "3-2*sqrt2", "--kmax", "1", "--floor", "1e-3"],
])
def test_cli_outputs_do_not_depend_on_block_sizes(tmp_path, monkeypatch, command):
    assert cli.main([*command, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(substitution, "_CSV_BLOCK", 3)
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 7)
    assert cli.main([*command, "--out", str(tmp_path / "blocks")]) == 0
    assert _outputs(tmp_path / "blocks") == _outputs(tmp_path / "whole")


# -- memory ----------------------------------------------------------------------


def _traced_peak(table):
    tracemalloc.start()
    try:
        text = table.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(text)


def test_to_csv_memory_stays_near_its_text():
    # three to five blocks each: then the text, held twice while the
    # blocks are joined, outweighs the one block of row lists held at a time
    patch = project_patch(2e4)
    a4, b4 = dual_columns(8.0, 160.0)
    amp = np.exp(1j * np.arange(len(a4)))
    tables = (patch, deform_patch(patch, AffineDeformation(parse_exact("3-2*sqrt2"))),
              Spectrum(a4, b4, amp, np.abs(amp) ** 2, "closed_form", 8.0, 1e-4))
    for table in tables:
        assert len(table) > 3 * substitution._CSV_BLOCK
        peak, size = _traced_peak(table)
        assert peak <= 3 * size, (type(table).__name__, peak / size)
