"""CLI report contracts: selectors, formats, byte stability, exit codes."""
import json

import pytest

from dataclasses import replace

from golden_survey import GROUP_SPECS
from killform import cli
from killform.cli import (
    cmd_casimir,
    cmd_decompose,
    cmd_spectrogram,
    cmd_survey,
    fmt_value,
    main,
    nontrivial_classes,
    resolve_class,
)
from killform.errors import CapExceeded
from killform.groups import alternating_group, build_named_group, symmetric_group
from killform.killing import MATRIX_CAP, killing_matrix


@pytest.fixture(scope="module")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="module")
def a5():
    return alternating_group(5)


# ------------------------------------------------------------------ selectors

def test_fmt_value():
    assert fmt_value(8.0000000001, True) == "8"
    assert fmt_value(-4.0, True) == "-4"
    assert fmt_value(-5.527864045, False) == "-5.527864"


@pytest.mark.parametrize("selector,size", [
    ("2B", 6),            # ATLAS-ish label
    ("2b", 6),            # case-folded letter
    ("2A", 3),
    ("(3,4)", 6),         # representative in cycle notation
    ("(1,2)(3,4)", 3),
    ("2,2", 3),           # cycle type, short form
    ("2,1,1", 6),         # cycle type, full form
    ("2-cycles", 6),      # named shape
    ("2-2-cycles", 3),
    ("1234", 6),          # digit string spelling one cycle
    ("4", 6),             # single-part cycle type
    ("3", 8),
])
def test_resolve_class_selectors(s4, selector, size):
    assert resolve_class(s4, selector).size == size


def test_resolve_class_ambiguous_type(a5):
    # two classes of 5-cycles: the bare type must refuse and name both
    with pytest.raises(ValueError, match="ambiguous.*5A.*5B"):
        resolve_class(a5, "5")
    assert resolve_class(a5, "5A").size == 12
    assert resolve_class(a5, "5B").size == 12
    assert resolve_class(a5, "5A") != resolve_class(a5, "5B")


def test_resolve_class_rejects(s4, a5):
    with pytest.raises(ValueError, match="no class labelled"):
        resolve_class(a5, "7A")
    with pytest.raises(ValueError, match="does not fit"):
        resolve_class(s4, "9,9")
    with pytest.raises(ValueError, match="unrecognized"):
        resolve_class(s4, "widgets")
    with pytest.raises(ValueError, match="no class of cycle type"):
        resolve_class(a5, "4")  # no 4-cycles in A5


@pytest.mark.parametrize("selector", ["(1,2)", "12", "(1,6)", "167", "()"])
def test_resolve_class_rejects_representatives_outside_nontrivial_classes(a5, selector, capsys):
    # odd permutations, points beyond degree 5, and the identity
    with pytest.raises(ValueError):
        resolve_class(a5, selector)
    assert main(["decompose", "A5", selector]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_resolve_class_identity_is_not_selectable(s4):
    with pytest.raises(ValueError):
        resolve_class(s4, "1,1,1,1")


# -------------------------------------------------------------------- survey

S3_SURVEY_CSV = """\
# killform survey: S3 (order 6)
# seed: 0
class,size,chi,real,irreducible,components,lambda_max,sig_pos,sig_neg,sig_zero,nondegenerate
2A,3,1,true,false,3,3,3,0,0,true
3A,2,2,true,true,1,4,1,0,1,false
# warning: conjecture violation: real class 3A of S3 has a degenerate Killing form
# warning: conjecture violation: real class 3A of S3 has nonzero signature (1, 0, 1)
"""


def test_survey_s3_exact_csv():
    # 2-cycles: K = 3I (distinct transpositions multiply to a 3-cycle, whose
    # centralizer misses the class); 3-cycles: K = [[2,2],[2,2]], eigenvalues
    # {4, 0}, hence degenerate with signature (1, 0, 1).
    assert cmd_survey("S3").render("csv") == S3_SURVEY_CSV


def test_survey_is_byte_stable():
    first = cmd_survey("A5").render("json")
    second = cmd_survey("A5").render("json")
    assert first == second


def test_survey_jobs_deterministic():
    assert cmd_survey("A5", jobs=3).render("csv") == cmd_survey("A5").render("csv")


def test_survey_seed_recorded():
    assert "seed: 7" in cmd_survey("S3", seed=7).render("md")
    assert "# seed: 7" in cmd_survey("S3", seed=7).render("csv")


def test_survey_a5_rows():
    report = cmd_survey("A5")
    assert report.exit_code == 0
    by_label = {r[0]: r for r in report.rows}
    assert by_label["2A"] == ["2A", "15", "3", "true", "false", "5", "21", "15", "0", "0", "true"]
    assert by_label["3A"] == ["3A", "20", "2", "true", "true", "1", "34", "10", "10", "0", "true"]
    assert by_label["5A"][1:] == by_label["5B"][1:]
    assert by_label["5A"] == ["5A", "12", "2", "true", "true", "1", "24", "6", "6", "0", "true"]
    # A5 is simple and 2A is an involution class: its reducibility is the
    # known exception, not a conjecture violation
    assert report.warnings == []


def _s5_rows(error_in_2b: bool) -> dict:
    """Survey rows of S5 (classes 2A, 2B, 3A, 4A, 5A, 6A of element orders
    2, 2, 3, 4, 5, 6) that between them raise each of the four warnings."""
    row = cli.SurveyRow
    return {
        # an involution class with a negative direction
        "2A": row("2A", 10, 1, True, True, 1, 6, (9, 1, 0), True),
        # skipped as an error; as a row it would not be positive definite
        "2B": (row("2B", 15, error="CapExceeded") if error_in_2b
               else row("2B", 15, 3, True, False, 5, 8, (14, 1, 0), True)),
        # reducible and degenerate, with zero signature
        "3A": row("3A", 20, 2, True, False, 2, 12, (8, 8, 4), False),
        # irreducible and nondegenerate, with nonzero signature
        "4A": row("4A", 30, 2, True, True, 1, 10, (20, 10, 0), True),
        # not real: only its reducibility is checked
        "5A": row("5A", 24, 4, False, False, 3, 6, (1, 0, 23), False),
        # no violation
        "6A": row("6A", 20, 2, True, True, 1, 4, (10, 10, 0), True),
    }


S5_WARNINGS = [
    "conjecture violation: involution class 2A of S5 is not positive definite "
    "(signature (9, 1, 0))",
    "conjecture violation: non-involution class 3A of S5 has a reducible Killing form "
    "(2 components)",
    "conjecture violation: real class 3A of S5 has a degenerate Killing form",
    "conjecture violation: real class 4A of S5 has nonzero signature (20, 10, 0)",
    "conjecture violation: non-involution class 5A of S5 has a reducible Killing form "
    "(3 components)",
]


def test_conjecture_warnings_text():
    G = build_named_group("S5")
    classes = nontrivial_classes(G)
    assert [(C.label, C.element_order) for C in classes] == [
        ("2A", 2), ("2B", 2), ("3A", 3), ("4A", 4), ("5A", 5), ("6A", 6)]
    rows = _s5_rows(error_in_2b=True)
    assert cli._conjecture_warnings(G, classes, [rows[C.label] for C in classes]) == S5_WARNINGS
    rows = _s5_rows(error_in_2b=False)
    assert cli._conjecture_warnings(G, classes, [rows[C.label] for C in classes]) == \
        S5_WARNINGS[:1] + ["conjecture violation: involution class 2B of S5 is not positive "
                           "definite (signature (14, 1, 0))"] + S5_WARNINGS[1:]


@pytest.mark.parametrize("error_in_2b, exit_code", [(False, 0), (True, 4)])
def test_conjecture_warnings_leave_the_exit_code(error_in_2b, exit_code, monkeypatch):
    rows = _s5_rows(error_in_2b)
    monkeypatch.setattr(cli, "_survey_one", lambda G, C, matrix_cap, seed: rows[C.label])
    report = cmd_survey("S5")
    assert len(report.warnings) == len(S5_WARNINGS) + (not error_in_2b)
    assert report.exit_code == exit_code
    assert main(["survey", "S5"]) == exit_code


def test_survey_partial_report_on_capped_class():
    report = cmd_survey("A5", matrix_cap=16)  # 3A (size 20) is over the cap
    assert report.exit_code == 4
    errors = [r for r in report.rows if r[2].startswith("ERROR(")]
    assert [r[0] for r in errors] == ["3A"]
    assert errors[0][2] == "ERROR(CapExceeded)"
    ok = [r for r in report.rows if not r[2].startswith("ERROR(")]
    assert [r[0] for r in ok] == ["2A", "5A", "5B"]


def test_survey_json_structure():
    doc = json.loads(cmd_survey("S3").render("json"))
    assert doc["command"] == "survey"
    assert doc["group"] == "S3"
    assert doc["order"] == 6
    assert doc["seed"] == 0
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["class"] == "2A"
    assert doc["rows"][0]["lambda_max"] == "3"
    assert doc["rows"][1]["nondegenerate"] == "false"
    assert len(doc["warnings"]) == 2


# ------------------------------------------------------------------ decompose

def test_decompose_a4_double_transpositions():
    # trivial eigenvector at 9; the two nontrivial linear characters span the
    # kernel
    report = cmd_decompose("A4", "2A")
    assert report.rows == [
        ["2A", "9", "1", "1a", "true"],
        ["2A", "0", "2", "1b + 1c", "true"],
    ]
    assert report.blocks[0] == "decomposition: 1a(9) + 1b(0) + 1c(0)"


def test_decompose_s4_four_cycles():
    report = cmd_decompose("S4", "1234")
    assert report.rows == [
        ["4A", "8", "3", "1a + 2", "true"],
        ["4A", "-4", "3", "3a", "true"],
    ]


def test_decompose_a5_five_cycles_irrational():
    report = cmd_decompose("A5", "5A")
    assert report.rows == [
        ["5A", "24", "1", "1", "true"],
        ["5A", "12", "5", "5", "true"],
        ["5A", "-5.527864", "3", "3a", "false"],
        ["5A", "-14.472136", "3", "3b", "false"],
    ]


def test_decompose_char_table_import(tmp_path):
    from killform.characters import character_table

    table = tmp_path / "s4.json"
    table.write_text(character_table(symmetric_group(4)).to_json(), encoding="utf-8")
    imported = cmd_decompose("S4", "1234", char_table=str(table))
    assert imported.rows == cmd_decompose("S4", "1234").rows


@pytest.mark.parametrize("foreign", ["S3", "S4", "A6"])  # fewer, as many, more classes than A5
def test_decompose_rejects_the_table_of_another_group(tmp_path, capsys, foreign):
    from killform.characters import character_table

    table = tmp_path / "foreign.json"
    table.write_text(character_table(build_named_group(foreign)).to_json(), encoding="utf-8")
    assert main(["decompose", "A5", "2A", "--char-table", str(table)]) == 2
    err = capsys.readouterr().err
    assert f"character table {foreign} does not fit A5" in err
    assert "those of A5 are 1A:1 2A:15 3A:20 5A:12 5B:12" in err


@pytest.mark.parametrize("text, says", [
    ("", "Expecting value"),
    ("[1, 2]", "must be an object, not list"),
    ('"hi"', "must be an object, not str"),
    ('{"provenance": "x"}', "field 'name' must be a string"),
])
def test_decompose_rejects_a_malformed_table_file(tmp_path, capsys, text, says):
    table = tmp_path / "table.json"
    table.write_text(text, encoding="utf-8")
    assert main(["decompose", "A5", "2A", "--char-table", str(table)]) == 2
    err = capsys.readouterr().err
    assert f"{table}: not a valid character table: " in err and says in err


# -------------------------------------------------------------------- casimir

def test_casimir_a5_involutions():
    report = cmd_casimir("A5", "2A")
    assert report.rows == [["e", "15/14"], ["theta[2A]", "-1/42"]]
    assert report.blocks == ["casimir: 15/14*e - 1/42*theta[2A]"]


def test_casimir_s4_transpositions():
    report = cmd_casimir("S4", "2-cycles")
    assert report.rows == [["e", "9/8"], ["theta[2A]", "-1/8"]]


def test_casimir_degenerate_class_fails(capsys):
    code = main(["casimir", "S3", "3-cycles"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "degenerate" in err


# ---------------------------------------------------------------- spectrogram

def test_spectrogram_s3():
    assert cmd_spectrogram("S3").rows == [
        ["2A", "3", "3"],
        ["3A", "4", "1"],
        ["3A", "0", "1"],
    ]


def test_spectrogram_a5():
    report = cmd_spectrogram("A5")
    pairs = [(r[0], r[1]) for r in report.rows]
    assert len(pairs) == len(set(pairs)) == 15
    by_class = {}
    for label, value, mult in report.rows:
        by_class.setdefault(label, []).append((value, int(mult)))
    assert by_class["2A"] == [("21", 5), ("12", 10)]
    assert by_class["3A"] == [("34", 1), ("24", 4), ("18", 5), ("-12", 4), ("-22", 6)]
    five = [("24", 1), ("12", 5), ("-5.527864", 3), ("-14.472136", 3)]
    assert by_class["5A"] == by_class["5B"] == five
    # eigenvalue multiplicities per class add up to the class size
    for label, size in [("2A", 15), ("3A", 20), ("5A", 12), ("5B", 12)]:
        assert sum(m for _, m in by_class[label]) == size


def test_spectrogram_trivial_group(capsys):
    code = main(["spectrogram", "S1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data_lines == ["class,eigenvalue,multiplicity"]


def test_spectrogram_partial_report_exit_code():
    report = cmd_spectrogram("A5", matrix_cap=16)
    assert report.exit_code == 4
    assert any(r[1] == "ERROR(CapExceeded)" for r in report.rows)


# ----------------------------------------------------------------------- main

def test_main_survey_md(capsys):
    code = main(["survey", "A5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# killform survey: A5 (order 60)")
    assert "| 2A | 15 | 3 |" in out


def test_main_unknown_group(capsys):
    code = main(["survey", "Q8"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_main_unknown_selector(capsys):
    code = main(["decompose", "S4", "5A"])
    assert code == 2
    assert "no class labelled" in capsys.readouterr().err


def test_main_partial_report_exit(capsys):
    code = main(["survey", "A5", "--matrix-cap", "16", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 4
    assert "ERROR(CapExceeded)" in out


@pytest.mark.parametrize("cap, code", [(60, 0), (59, 2)])
def test_main_element_cap_boundary(cap, code, capsys):
    assert main(["survey", "A5", "--cap", str(cap)]) == code
    if code:
        assert "exceeds cap 59" in capsys.readouterr().err


@pytest.mark.parametrize("matrix_cap, code", [(20, 0), (19, 4)])
def test_main_matrix_cap_boundary(matrix_cap, code, capsys):
    assert main(["survey", "A5", "--matrix-cap", str(matrix_cap), "--format", "csv"]) == code
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    errors = [r[0] for r in rows if r[2].startswith("ERROR(")]
    assert [r[0] for r in rows] == ["2A", "3A", "5A", "5B"]
    assert errors == ([] if code == 0 else ["3A"])
    assert all(r[2] == "ERROR(CapExceeded)" for r in rows if r[0] in errors)


def test_main_jobs_beyond_class_count(capsys):
    outputs = []
    for jobs in ("1", "100"):
        assert main(["survey", "A5", "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("body, message", [
    ("degree -2\n", "degree must be at least 1"),
    ("degree 0\n", "degree must be at least 1"),
    ("degree abc\n", "bad.grp:2: degree must be at least 1, not abc"),
    ("degree 70000\n(1,70000)\n", "degree 70000 is above the limit of 65535 points"),
    ("degree 4\n(1,1)\n", "point 1 appears twice"),
    ("degree 4\n(1,2)(3,3)\n", "point 3 appears twice"),
    ("degree 4\n(1,2)(2,3)\n", "point 2 appears twice"),
    (b"\xff\xfe", "bad.grp: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("degree 5\n(1,2,3,4,5)(9)\n", "bad.grp:3: point 9 out of range in '(1,2,3,4,5)(9)'"),
    ("degree 5\n(1,2,3,4,5)\ndegree 6\n(1,2)\n", "bad.grp:4: a second degree line (degree is 5)"),
    ("degree 5\n(1,2,3,4,5)\nname second\n(1,2,3)\n",
     "bad.grp:4: a second name line (name is bad)"),
])
def test_main_rejects_malformed_group_file(tmp_path, body, message, capsys):
    path = tmp_path / "bad.grp"
    if isinstance(body, bytes):  # the file as raw bytes, not UTF-8 text
        path.write_bytes(body)
    else:
        path.write_text("name bad\n" + body, encoding="utf-8")
    assert main(["survey", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert message in err
    if "appears twice" in message:  # a generator error names the file and its line, 3
        assert f"{path}:3: {message} in " in err


def test_main_refuses_a_degree_above_65535(capsys):
    assert main(["survey", "S70000"]) == 2
    assert "degree 70000 is above the limit of 65535 points" in capsys.readouterr().err


@pytest.mark.parametrize("command, selector", [("survey", []), ("decompose", ["5A"])])
def test_wide_degree_group_file_exits_0(wide_s5_file, command, selector, capsys):
    code = main([command, f"file:{wide_s5_file}", *selector])
    assert code == 0, capsys.readouterr()


def test_group_file_spec_roundtrip(tmp_path):
    # the file: spec is the escape hatch for groups outside the name grammar
    src = tmp_path / "v4.grp"
    src.write_text("name V4\ndegree 4\n(1,2)(3,4)\n(1,3)(2,4)\n", encoding="utf-8")
    report = cmd_survey(f"file:{src}")
    assert report.group_order == 4
    assert len(report.rows) == 3


@pytest.fixture
def z2_10_file(tmp_path):
    """(Z2)^10: 1023 classes of order 2, labelled 2A .. 2Z, 2AA .. 2ZZ, 2AAA .."""
    path = tmp_path / "z2_10.grp"
    path.write_text("name Z2^10\ndegree 20\n"
                    + "".join(f"({2 * i + 1},{2 * i + 2})\n" for i in range(10)), encoding="utf-8")
    return path


def test_multi_letter_label_selects_a_class(z2_10_file, capsys):
    for label in ("2AA", "2ZZ", "2AAA", "2ami"):
        assert main(["casimir", f"file:{z2_10_file}", label]) == 0, capsys.readouterr()
        assert "casimir: 1*e" in capsys.readouterr().out
    assert main(["casimir", f"file:{z2_10_file}", "2AMJ"]) == 2
    assert "has no class labelled 2AMJ" in capsys.readouterr().err


def test_survey_of_z2_10_has_a_row_per_class(z2_10_file, capsys):
    assert main(["survey", f"file:{z2_10_file}", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith("2")]) == 1023


def test_decompose_builds_few_perms(count_perms, capsys):
    # |M11| = 7920: the classes, the form and the table need no Perm per element
    codes = []
    built = count_perms(lambda: codes.append(main(["decompose", "file:data/m11.grp", "5A"])))
    assert codes == [0] and built < 7920 / 10


@pytest.mark.parametrize("flag", ["--jobs", "--cap", "--matrix-cap"])
@pytest.mark.parametrize("value", ["0", "-3", "-1", "two"])
def test_main_rejects_a_count_below_one(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "A5", flag, value])
    assert exc.value.code == 2
    assert f"expected a positive integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["decompose", "A5", "2A"], ["spectrogram", "A5"]])
def test_main_rejects_a_matrix_cap_below_one_on_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--matrix-cap", "0"])
    assert exc.value.code == 2


# -------------------------------------------------------------- inverse pairs

PSU33 = GROUP_SPECS["PSU(3,3)"]


def _spectrum_rows(G, C) -> list:
    """The spectrogram rows of C, computed on their own."""
    return [[C.label, fmt_value(e.value, e.integral), str(e.multiplicity)]
            for e in killing_matrix(G, C).spectrum()]


def test_survey_analyzes_one_class_of_each_inverse_pair(monkeypatch):
    analyzed = []
    survey_one = cli._survey_one
    monkeypatch.setattr(cli, "_survey_one",
                        lambda G, C, *args: analyzed.append(C.label) or survey_one(G, C, *args))
    rows = cmd_survey(PSU33).rows
    # 4B, 7B, 8B and 12B are the inverses of 4A, 7A, 8A and 12A
    assert analyzed == ["2A", "3A", "3B", "4A", "4C", "6A", "7A", "8A", "12A"]
    assert [r[0] for r in rows] == ["2A", "3A", "3B", "4A", "4B", "4C", "6A", "7A", "7B",
                                    "8A", "8B", "12A", "12B"]
    assert cmd_survey(PSU33, jobs=2).rows == rows


def test_spectrogram_rows_of_an_inverse_class_are_its_own():
    G = build_named_group(PSU33)
    expected = [row for C in nontrivial_classes(G) for row in _spectrum_rows(G, C)]
    assert cmd_spectrogram(PSU33).rows == expected
    assert cmd_spectrogram(PSU33, jobs=2).rows == expected


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_inverse_class_rows_are_the_class_rows_relabelled(name):
    # inversion carries K_C onto K_{C^-1}: K_{C^-1}(a^-1, b^-1) = K_C(a, b)
    G = build_named_group(GROUP_SPECS[name])
    for C in nontrivial_classes(G):
        if C.is_real:
            continue
        D = G.classes()[G.class_index_of(C.representative.inverse())]
        assert D is not C
        row = cli._survey_one(G, C, MATRIX_CAP, 0)
        assert row.error is None
        assert cli._survey_one(G, D, MATRIX_CAP, 0) == replace(row, class_label=D.label)
        assert _spectrum_rows(G, D) == [[D.label] + r[1:] for r in _spectrum_rows(G, C)]


@pytest.mark.parametrize("cmd, cell", [(cmd_survey, 2), (cmd_spectrogram, 1)])
def test_both_classes_of_a_pair_over_the_matrix_cap_read_an_error(cmd, cell):
    # |7A| = |7B| = 864; every other class of PSU(3,3) has at most 756 members
    report = cmd(PSU33, matrix_cap=800)
    assert report.exit_code == 4
    assert [[r[0], r[cell]] for r in report.rows if r[cell].startswith("ERROR(")] == [
        ["7A", "ERROR(CapExceeded)"], ["7B", "ERROR(CapExceeded)"]]


@pytest.mark.parametrize("cmd, cell", [(cmd_survey, 2), (cmd_spectrogram, 1)])
def test_a_failed_class_leaves_its_inverse_to_be_analyzed(monkeypatch, cmd, cell):
    today = [r for r in cmd(PSU33).rows if r[0] == "7B"]

    def failing(G, C, **kw):
        if C.label == "7A":
            raise CapExceeded("7A")
        return killing_matrix(G, C, **kw)

    monkeypatch.setattr(cli, "killing_matrix", failing)
    for jobs in (1, 2):
        report = cmd(PSU33, jobs=jobs)
        assert report.exit_code == 4
        assert [[r[0], r[cell]] for r in report.rows if r[cell].startswith("ERROR(")] == [
            ["7A", "ERROR(CapExceeded)"]]
        assert [r for r in report.rows if r[0] == "7B"] == today
