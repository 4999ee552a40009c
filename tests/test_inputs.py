"""``errors.read_csv``, the one reader of every CSV input file, and the
checks on the numbers of a model file."""

import pytest

from webcred.credibility import read_scores_csv
from webcred.errors import DataError, json_number, json_numbers, read_csv
from webcred.eval import read_cv_report_csv

HEADER = ("a", "b")


def write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return path


class TestReadCsv:
    def test_rows_are_parsed_after_the_header(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n\n3,4\n")
        assert read_csv(path, HEADER, tuple) == [("1", "2"), ("3", "4")]

    def test_header_matches_whatever_its_case_and_spaces(self, tmp_path):
        path = write(tmp_path, " A , b\n1,2\n")
        assert read_csv(path, HEADER, tuple) == [("1", "2")]

    @pytest.mark.parametrize("text", ["", "x,y\n1,2\n", "a\n1,2\n", "\na,b\n"])
    def test_wrong_or_missing_header_is_rejected(self, tmp_path, text):
        with pytest.raises(DataError, match="expected header a,b"):
            read_csv(write(tmp_path, text), HEADER, tuple)

    def test_optional_header_keeps_a_first_data_row(self, tmp_path):
        path = write(tmp_path, "x,y\na,b\n")
        assert read_csv(path, HEADER, tuple, header_optional=True) == [
            ("x", "y"),
            ("a", "b"),
        ]
        assert read_csv(write(tmp_path, ""), HEADER, tuple, header_optional=True) == []

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n1,2,3\n")
        with pytest.raises(DataError, match=r"in\.csv:3: expected 2 fields, got 3$"):
            read_csv(path, HEADER, tuple)

    @pytest.mark.parametrize("error", [ValueError, DataError])
    def test_parse_errors_name_the_line(self, tmp_path, error):
        def parse(row):
            if row[0] == "bad":
                raise error("no good")
            return row

        path = write(tmp_path, 'a,b\n"multi\nline",2\nbad,2\n')
        with pytest.raises(DataError, match=r"in\.csv:4: no good$"):
            read_csv(path, HEADER, parse)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(DataError, match=r"in\.csv: not UTF-8"):
            read_csv(path, HEADER, tuple)

    def test_written_reports_read_with_a_widened_header(self, tmp_path):
        cv = write(tmp_path, "Criterion, Family,F1_mean,f1_std,acc_mean,ACC_STD\n"
                             "1,svm,0.5,0.1,0.5,0.1\n")
        assert read_cv_report_csv(cv).rows[0].family == "svm"
        scores = tmp_path / "scores.csv"
        scores.write_text("URL,c1,c2,c3,c4,c5,c6,c7,Score,Bucket\n"
                          "http://a.org/,1,1,1,0,0,0,0,3,medium\n")
        assert read_scores_csv(scores)["http://a.org/"].bucket == "medium"


class TestJsonNumber:
    @pytest.mark.parametrize(
        "value, integer, expected",
        [(3, True, 3), (3, False, 3.0), (-0.5, False, -0.5),
         (2**64 - 1, True, 2**64 - 1)],
    )
    def test_numbers_are_returned(self, value, integer, expected):
        result = json_number(value, "x", integer)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize(
        "value, integer",
        [("7", False), (True, False), (None, False), ([1], False),
         (float("nan"), False), (float("inf"), False), (2**64, False),
         (1.0, True), (2**64, True), (-(2**63) - 1, True)],
    )
    def test_anything_else_is_rejected(self, value, integer):
        with pytest.raises(DataError, match="^x must be "):
            json_number(value, "x", integer)

    def test_a_list_beyond_int64_is_rejected(self):
        assert json_numbers([1, 2], "x", integer=True).dtype == "int64"
        with pytest.raises(DataError, match="x out of the int64 range"):
            json_numbers([1, 2**63], "x", integer=True)
