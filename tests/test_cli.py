import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fskit import eppm
from fskit.cli import build_parser, main
from fskit.dynamics import parse_element
from fskit.eppm import is_total

import fraction_render
from conftest import CLEARY2_TEXT, J3_TEXT, NONSIMPLE4_TEXT, RHO2_TEXT


@pytest.fixture
def fsp(tmp_path):
    def write(text, name="p.fsp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(fsp, capsys):
    code, out, _ = run(capsys, "validate", fsp(J3_TEXT))
    assert code == 0 and out.strip() == "ok"


def test_validate_bad(fsp, capsys):
    code, _, err = run(capsys, "validate", fsp("colors a b\nrel a1 = b1 b2\n"))
    assert code == 2
    assert "leaves" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.fsp")
    assert code == 1


def test_a_directory_is_a_usage_error(fsp, capsys, tmp_path):
    # a path that cannot be read or written is reported like a missing file
    for argv in [
        ("classify", str(tmp_path)),
        ("plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "-o", str(tmp_path)),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_classify(fsp, capsys):
    code, out, _ = run(capsys, "classify", fsp(J3_TEXT))
    assert code == 0
    assert "L_x=2" in out and "R_x=2" in out and "M=3" in out


def test_classify_general(fsp, capsys):
    code, out, _ = run(capsys, "classify", fsp("colors a b c\nrel a1 a1 = b1 c1\n"))
    assert code == 0 and out == "General\n"


def test_abelianize(fsp, capsys):
    j4 = "colors a b\nrel a1 a1 a2 a4 = b1 b2 b3 b4\n"
    code, out, _ = run(capsys, "abelianize", fsp(j4))
    assert code == 0 and "Z/4" in out
    code, out, _ = run(capsys, "abelianize", fsp("colors a\n"))
    assert code == 0 and "0" in out


def test_abelianize_json(fsp, capsys):
    code, out, _ = run(capsys, "abelianize", fsp(J3_TEXT), "--json")
    assert code == 0
    assert json.loads(out) == {"rank": 0, "torsion": [3]}


def test_germs(fsp, capsys):
    code, out, _ = run(capsys, "germs", fsp(J3_TEXT), "--end", "last")
    assert code == 0 and out.strip() == "< a, b | a^2 = b^3 >"
    code, out, _ = run(capsys, "germs", fsp(CLEARY2_TEXT), "--end", "last")
    assert out.strip() == "< a, b | a = b^2 >"
    code, out, _ = run(capsys, "germs", fsp(J3_TEXT), "--end", "first")
    assert out.strip() == "< a, b | a^2 = b >"


def test_germs_json(fsp, capsys):
    code, out, _ = run(capsys, "germs", fsp(J3_TEXT), "--end", "first", "--json")
    assert code == 0
    assert out == '{"generators": ["a", "b"], "relators": [[["a", "a"], ["b"]]]}\n'


def test_check_simple_collapse(fsp, capsys):
    code, out, _ = run(
        capsys, "check-simple", fsp(NONSIMPLE4_TEXT), "--max-len", "10"
    )
    assert code == 10
    data = json.loads(out)
    assert data["outcome"] == "CollapseFound"
    assert data["collapse"] == {"word": "babababab", "j": 8}


def test_check_simple_none(fsp, capsys):
    code, out, _ = run(capsys, "check-simple", fsp(J3_TEXT), "--max-len", "5")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "NoCollapseUpTo"
    assert data["inconclusive"] == []


def test_check_simple_rejects_general(fsp, capsys):
    code, _, err = run(
        capsys, "check-simple", fsp("colors a\n"), "--max-len", "3"
    )
    assert code == 2


def test_eval(fsp, capsys):
    code, out, _ = run(
        capsys, "eval", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "-p", "(0)"
    )
    assert code == 0 and out.strip() == "(0)"
    code, out, _ = run(capsys, "eval", fsp(J3_TEXT), "-e", "B1", "-p", "00(0)")
    assert code == 0 and out.strip() == "01(0)"


def test_eval_undefined(fsp, capsys):
    code, out, _ = run(capsys, "eval", fsp(J3_TEXT), "-e", "A0^-1", "-p", "(1)")
    assert code == 2 and "undefined" in out


def test_equal(fsp, capsys):
    code, out, _ = run(
        capsys, "equal", fsp(J3_TEXT), "-e", "A1 A1", "-e", "B1 B1 B1"
    )
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", fsp(J3_TEXT), "-e", "A1", "-e", "B1")
    assert out.strip() == "different"


def test_canon(fsp, capsys):
    code, out, _ = run(capsys, "canon", fsp(RHO2_TEXT), "-e", "B1")
    assert code == 0 and out.strip() == "{(e->1)}"


def test_classify_element(fsp, capsys):
    code, out, _ = run(
        capsys, "classify-element", fsp(J3_TEXT), "-e", "[b1 | id | a1]"
    )
    assert code == 0 and out.strip() == "F"
    code, out, _ = run(
        capsys, "classify-element", fsp(J3_TEXT), "-e", "[a1 | 2 1 | a1]"
    )
    assert out.strip() == "T"
    code, out, _ = run(
        capsys, "classify-element", fsp(J3_TEXT), "-e", "[a1 a1 | 2 1 3 | a1 a1]"
    )
    assert out.strip() == "V"


def test_non_bijection_is_invalid(fsp, capsys):
    # A0 is total but not onto: it has no F/T/V class and no place in the
    # bi-order
    code, out, err = run(capsys, "classify-element", fsp(J3_TEXT), "-e", "A0")
    assert code == 2 and out == "" and "bijection" in err
    code, out, err = run(capsys, "compare", fsp(J3_TEXT), "-e", "A0", "-e", "A1")
    assert code == 2 and out == "" and "bijection" in err


def test_singular(fsp, capsys):
    code, out, _ = run(capsys, "singular", fsp(J3_TEXT), "-e", "[b1 | id | a1]")
    assert code == 0 and out.strip() == "(1)"
    code, out, _ = run(capsys, "singular", fsp(RHO2_TEXT), "-e", "[b1 | id | a1]")
    assert code == 0 and out.strip() == "none"


def test_singular_json(fsp, capsys):
    code, out, _ = run(capsys, "singular", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--json")
    assert code == 0 and out == '["(1)"]\n'


@pytest.mark.parametrize("command", ["equal", "compare"])
@pytest.mark.parametrize("count", [1, 3])
def test_two_element_commands_need_two(fsp, capsys, command, count):
    code, out, err = run(capsys, command, fsp(J3_TEXT), *["-e", "A1"] * count)
    assert code == 1 and out == ""
    assert err == "error: need exactly two -e expressions\n"


def test_module_runs_as_a_process(fsp):
    # python -m fskit: its exit status is main's return code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    path = fsp(J3_TEXT)

    def fskit(*argv):
        argv = [sys.executable, "-m", "fskit", *argv]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert fskit("equal", path, "-e", "A1 A1", "-e", "B1 B1 B1") == (0, "equal\n", "")
    assert fskit("equal", path, "-e", "A1") == (
        1,
        "",
        "error: need exactly two -e expressions\n",
    )


def test_compare(fsp, capsys):
    code, out, _ = run(
        capsys, "compare", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "-e", "[a1 | id | a1]"
    )
    assert code == 0 and out.strip() == "less"


def test_each_parsed_form_is_checked_once(fsp, capsys, monkeypatch):
    # parsing checks a fraction's form, is_total on it and on its inverse,
    # and the query reads the answer the form has cached
    calls = []
    monkeypatch.setattr(eppm, "is_total", lambda m: calls.append(m) or is_total(m))
    path = fsp(J3_TEXT)
    for argv, expected, count in [
        (["classify-element", path, "-e", "[a1 a1 | 2 1 3 | a1 a1]"], "V", 2),
        (["compare", path, "-e", "[b1 | id | a1]", "-e", "[a1 | id | a1]"], "less", 4),
        (["plot", path, "-e", "[b1 | id | a1]", "--format", "csv"], "left,", 2),
    ]:
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith(expected)
        assert len(calls) == count


def test_plot_csv(fsp, capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, _, _ = run(
        capsys,
        "plot",
        fsp(J3_TEXT),
        "-e",
        "[b1 | id | a1]",
        "--depth",
        "12",
        "--format",
        "csv",
        "-o",
        str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0] == "left,right,slope_exp,intercept_num,intercept_exp"
    assert text.splitlines()[1] == "0,0.5,-1,0,0"


def test_plot_svg_stdout(fsp, capsys):
    code, out, _ = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--format", "svg"
    )
    assert code == 0 and out.startswith("<?xml")


@pytest.mark.parametrize("width, height", [(3, 7), (511, 3)])
def test_plot_odd_size_matches_fraction_reference(fsp, capsys, j3, width, height):
    # at depth 12 some coordinates of [b1 | id | a1] are exact ties at 9
    # decimals; they round half to even as on the Fraction path
    size = ["--width", str(width), "--height", str(height)]
    code, out, _ = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--format", "svg", *size
    )
    m = fraction_render.to_interval_map(parse_element(j3, "[b1 | id | a1]"), 12)
    assert code == 0 and out == fraction_render.emit_svg(m, width, height)


def test_usage_error(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 1


def test_reused_parser_keeps_no_state(fsp, capsys):
    # main builds its parser on the first call of a process and reuses it:
    # a usage error, --help, a plot, a probe and an appending -e option,
    # run one after another, each give what they give as the first call
    path = fsp(J3_TEXT)
    calls = [
        ("plot", path, "-e", "[b1 | id | a1]", "--kind", "sphere"),
        ("--help",),
        ("plot", path, "-e", "[a1 | 2 1 | a1]", "--kind", "circle", "--format", "svg"),
        ("check-simple", path, "--max-len", "5"),
        ("equal", path, "-e", "A1 A1", "-e", "B1 B1 B1"),
    ]

    def result(argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "check-simple":
            out = {k: v for k, v in json.loads(out).items() if k != "seconds"}
        return code, out, err

    firsts = []
    for argv in calls:
        build_parser.cache_clear()
        firsts.append(result(argv))
    assert [code for code, _, _ in firsts] == [1, 0, 0, 0, 0]
    assert "invalid choice: 'sphere'" in firsts[0][2] and "usage: fskit" in firsts[1][1]
    build_parser.cache_clear()
    assert [result(argv) for argv in calls + calls] == firsts + firsts
    assert build_parser.cache_info().misses == 1


def test_check_simple_rejects_jobs(fsp, capsys):
    code, out, _ = run(
        capsys, "check-simple", fsp(NONSIMPLE4_TEXT), "--max-len", "9", "--jobs", "4"
    )
    assert code == 1 and out == ""


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_check_simple_rejects_bad_max_len(fsp, capsys, max_len):
    code, out, err = run(
        capsys, "check-simple", fsp(NONSIMPLE4_TEXT), "--max-len", max_len
    )
    assert code == 1 and out == ""
    assert "max_len" in err


def test_plot_rejects_negative_depth(fsp, capsys):
    code, out, err = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--depth", "-1"
    )
    assert code == 1 and out == ""
    assert "depth" in err
    code, out, _ = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--depth", "0"
    )
    assert code == 0 and out.startswith("left,right")


@pytest.mark.parametrize("size", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--width", "--height"])
def test_plot_rejects_non_positive_size(fsp, capsys, tmp_path, flag, size):
    target = tmp_path / "graph.svg"
    code, out, err = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[b1 | id | a1]", "--format", "svg",
        flag, size, "-o", str(target),
    )
    assert code == 1 and out == ""
    assert "plot size" in err
    assert not target.exists()


def test_plot_wrong_kind_fails_cleanly(fsp, capsys):
    # a rotation is not order-preserving: interval rendering refuses
    code, _, err = run(
        capsys, "plot", fsp(J3_TEXT), "-e", "[a1 | 2 1 | a1]", "--format", "csv"
    )
    assert code == 2 and "order-preserving" in err
    # a V-type element is not even cyclic-order-preserving
    code, _, err = run(
        capsys,
        "plot",
        fsp(J3_TEXT),
        "-e",
        "[a1 a1 | 2 1 3 | a1 a1]",
        "--kind",
        "circle",
    )
    assert code == 2


def test_fraction_leaf_count_mismatch(fsp, capsys):
    code, out, err = run(capsys, "canon", fsp(J3_TEXT), "-e", "[b1 b1 | 1 2 3 | a1]")
    assert code == 2 and out == ""
    assert err == "invalid: fraction shape mismatch: 3 vs 2 leaves\n"


def test_fraction_perm_not_a_permutation(fsp, capsys):
    code, out, err = run(capsys, "canon", fsp(J3_TEXT), "-e", "[b1 | 1 3 | a1]")
    assert code == 2 and out == ""
    assert err == "invalid: perm (1, 3) is not a permutation of 1..2\n"


@pytest.mark.parametrize(
    "element, code, err",
    [
        # a caret word is checked as a presentation's is: invalid input
        ("[a1 | id | a0]", 2, "invalid: leaf index must be >= 1 in 'a0'\n"),
        ("[a1 | id | x]", 2, "invalid: bad caret token 'x'\n"),
        # a fraction literal or generator token that does not parse
        ("[a1 | id", 1, "error: bad fraction literal '[a1 | id'\n"),
        ("[a1 | x | a1]", 1, "error: bad permutation 'x' in fraction literal '[a1 | x | a1]'\n"),
        ("A2", 1, "error: bad generator token 'A2'\n"),
    ],
)
def test_malformed_element_exit_codes(fsp, capsys, element, code, err):
    assert run(capsys, "classify-element", fsp(J3_TEXT), "-e", element) == (code, "", err)


@pytest.mark.parametrize(
    "text, err",
    [
        ("colors a b\nrel a1 a0 = b1 b2\n", "invalid: leaf index must be >= 1 in 'a0'\n"),
        ("colors a b\nrel a1 a3 = b1 b2\n", "invalid: leaf index 3 out of range 1..2\n"),
        ("colors a b\ncolors a b\n", "invalid: line 2: duplicate colors line\n"),
        ("colors a b\nrel a1 b1\n", "invalid: line 2: rel needs '='\n"),
    ],
)
def test_malformed_presentation_is_invalid(fsp, capsys, text, err):
    assert run(capsys, "validate", fsp(text)) == (2, "", err)


def test_canon_of_equal_words(fsp, capsys):
    path = fsp(J3_TEXT)
    _, first, _ = run(capsys, "canon", path, "-e", "B1^-1")
    _, second, _ = run(capsys, "canon", path, "-e", "B1^-1 B1^-1 B1")
    assert first == second == "{(01->00); [1|1^2 -> e|1^2: 0->01, 100->10, 101->1100]}\n"


@pytest.mark.parametrize(
    "element, expanded, kinds",
    [
        # an extra caret on leaf 2 of both trees, then on leaf 1
        ("[b1 | id | a1]", "[b1 a2 | id | a1 a2]", ("interval", "circle")),
        ("[b1 | id | a1]", "[b1 b1 | id | a1 b1]", ("interval", "circle")),
        # leaf 1 of the source tree goes to leaf 2 of the target tree
        ("[a1 | 2 1 | a1]", "[a1 a2 | 2 3 1 | a1 a1]", ("circle",)),
    ],
)
def test_plot_depends_only_on_element(fsp, capsys, element, expanded, kinds):
    path = fsp(J3_TEXT)

    def outputs(text):
        got = [run(capsys, "canon", path, "-e", text)]
        for kind in kinds:
            for fmt in ("csv", "svg"):
                got.append(
                    run(capsys, "plot", path, "-e", text, "--kind", kind, "--format", fmt)
                )
        return got

    first = outputs(element)
    assert all(code == 0 for code, _, _ in first)
    assert outputs(expanded) == first
