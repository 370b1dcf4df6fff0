import xml.etree.ElementTree as ET

import pytest

from beamopt.evaluation import ResultRow
from beamopt.plotting import render_results_svg
from beamopt.results import CSV_COLUMNS, CsvFormatError, read_results_csv, write_results_csv


def sample_rows():
    rows = []
    for method in ("ZF", "MMSE"):
        for i, snr in enumerate((-5.0, 0.0, 5.0)):
            rows.append(ResultRow(experiment="exp-t", method=method, snr_db=snr,
                                  se_mean=1.0 + i + (0.5 if method == "MMSE" else 0.0),
                                  se_std=0.25, n=16))
    return rows


class TestCsv:
    def test_schema_and_round_trip(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "res.csv"
        write_results_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert read_results_csv(path) == rows

    def test_byte_identical_rewrite(self, tmp_path):
        rows = sample_rows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(rows, a)
        write_results_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_results_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            read_results_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="header"):
            read_results_csv(path)

    def test_bad_field_count_and_types(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nexp,ZF,5.0,1.0\n")
        with pytest.raises(CsvFormatError, match="fields"):
            read_results_csv(path)
        path.write_text(",".join(CSV_COLUMNS) + "\nexp,ZF,five,1.0,0.1,4\n")
        with pytest.raises(CsvFormatError):
            read_results_csv(path)

    @pytest.mark.parametrize("record, field", [
        ("exp,ZF,5.0,nan,0.1,4", "se_mean"), ("exp,ZF,inf,1.0,0.1,4", "snr_db"),
        ("exp,ZF,5.0,1.0,-inf,4", "se_std"), ("exp,ZF,5.0,1.0,0.1,-3", "n"),
        ("exp,ZF,5.0,1.0,0.1,0", "n")])
    def test_non_finite_values_and_empty_rows_rejected(self, tmp_path, record, field):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nexp,ZF,0.0,1.0,0.1,4\n" + record + "\n")
        with pytest.raises(CsvFormatError, match=f"bad.csv:3: {field} must be"):
            read_results_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="cannot read"):
            read_results_csv(tmp_path / "nope.csv")


class TestSvg:
    def test_polyline_and_point_counts(self, tmp_path):
        path = tmp_path / "plot.svg"
        render_results_svg(sample_rows(), path)
        svg = path.read_text()
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 6
        assert "SNR (dB)" in svg and "Spectral efficiency" in svg
        assert svg.count('font-size="12">') == 2   # legend entries

    def test_byte_identical_regeneration(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_results_svg(sample_rows(), a)
        render_results_svg(sample_rows(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_markup_in_names_is_escaped(self, tmp_path):
        rows = [ResultRow("R&D <a>", "x<y", 5.0, 3.0, 0.1, 4)]
        path = tmp_path / "esc.svg"
        render_results_svg(rows, path)
        texts = [el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert "R&D <a>" in texts and "x<y" in texts

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            render_results_svg([], tmp_path / "x.svg")

    def test_single_point_series(self, tmp_path):
        rows = [ResultRow("e", "NNBF-P", 5.0, 3.0, 0.1, 4)]
        path = tmp_path / "one.svg"
        render_results_svg(rows, path)
        assert "<polyline" in path.read_text()
