import contextlib
import io
import json
import os
import tempfile
import time
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hamdec import counting
from hamdec.cli import cli_main
from hamdec.errors import HamdecError
from hamdec.graphs import (
    MAX_N,
    OrientedGraph,
    random_tournament,
    read_edge_list,
    rotational_tournament,
    write_edge_list,
)
from hamdec.pipeline import approximate_decomposition

from conftest import oriented_graphs


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.og"
    path.write_text(write_edge_list(rotational_tournament(3)))
    return str(path)


def test_generate_rotational(tmp_path, capsys):
    out = tmp_path / "g.og"
    assert cli_main(["generate", "--kind", "rotational", "--n", "7",
                     "--out", str(out)]) == 0
    g = read_edge_list(out.read_text())
    assert g.n == 7 and len(g.edges) == 21


def test_generate_regular_deterministic(capsys):
    assert cli_main(["generate", "--kind", "regular", "--n", "9", "--r", "2",
                     "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["generate", "--kind", "regular", "--n", "9", "--r", "2",
                     "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_generate_regular_decompose_verify_roundtrip(tmp_path, capsys):
    # a generated regular graph must be a valid oriented graph for decompose
    gpath, cpath = tmp_path / "g.og", tmp_path / "cert.json"
    assert cli_main(["generate", "--kind", "regular", "--n", "51", "--r", "10",
                     "--out", str(gpath)]) == 0
    assert cli_main(["decompose", str(gpath), "--out", str(cpath)]) == 0
    assert cli_main(["verify", str(gpath), str(cpath)]) == 0


def test_reg_command(triangle_file, capsys):
    assert cli_main(["reg", triangle_file]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_factor_command(triangle_file, capsys):
    assert cli_main(["factor", triangle_file, "--r", "1"]) == 0
    g = read_edge_list(capsys.readouterr().out)
    assert len(g.edges) == 3


def test_decompose_and_verify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "g.og"
    gpath.write_text(write_edge_list(rotational_tournament(11)))
    cpath = tmp_path / "cert.json"
    assert cli_main(["decompose", str(gpath), "--seed", "3",
                     "--out", str(cpath)]) == 0
    doc = json.loads(cpath.read_text())
    assert doc["certificate"]["k"] >= 1
    assert doc["report"]["reg"] == 5
    assert cli_main(["verify", str(gpath), str(cpath)]) == 0


def test_decompose_triangle_stdout(triangle_file, capsys):
    assert cli_main(["decompose", triangle_file, "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["k"] == 1
    assert doc["certificate"]["leftover"] == []


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    gpath = tmp_path / "g.og"
    gpath.write_text(write_edge_list(rotational_tournament(11)))
    cpath = tmp_path / "cert.json"
    assert cli_main(["decompose", str(gpath), "--seed", "3",
                     "--out", str(cpath)]) == 0
    doc = json.loads(cpath.read_text())
    if doc["certificate"]["cycles"]:
        doc["certificate"]["cycles"].append(doc["certificate"]["cycles"][0])
        doc["certificate"]["k"] += 1
    cpath.write_text(json.dumps(doc))
    assert cli_main(["verify", str(gpath), str(cpath)]) == 1


def _certificate_files(tmp_path, n):
    """Paths of the rotational tournament of order n and its seed-0 certificate."""
    gpath, cpath = tmp_path / "g.og", tmp_path / "cert.json"
    gpath.write_text(write_edge_list(rotational_tournament(n)))
    assert cli_main(["decompose", str(gpath), "--out", str(cpath)]) == 0
    return gpath, cpath


def _with_non_integer(doc, where):
    cert = doc["certificate"]
    if where == "n":
        cert["n"] += 0.9
    elif where == "leftover":
        cert["leftover"] = [[u + 0.3, v + 0.4] for u, v in cert["leftover"]]
    elif where == "cycle":
        cert["cycles"][0] = [float(v) for v in cert["cycles"][0]]
    elif where == "k":
        cert["k"] = float(cert["k"])
    else:
        cert["reg"] = bool(cert["reg"])


@pytest.mark.parametrize("where, n", [("n", 5), ("leftover", 25), ("cycle", 25),
                                      ("k", 25), ("reg", 3)])
def test_verify_rejects_non_integer_numbers(tmp_path, capsys, where, n):
    # int() used to truncate 5.9 to 5 and 3.3 to 3, and floats and bools
    # equal to integers passed through, so such certificates verified
    gpath, cpath = _certificate_files(tmp_path, n)
    doc = json.loads(cpath.read_text())
    _with_non_integer(doc, where)
    cpath.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", str(gpath), str(cpath)]) == 2
    _one_line_error(capsys)


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.og"
    bad.write_text("og 3 1\n1 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["reg", str(bad)]) == 2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    missing = tmp_path / "missing.og"
    assert cli_main(["reg", str(missing)]) == 2
    not_ascii = tmp_path / "latin1.og"
    not_ascii.write_bytes(b"og 3 0\n\xe9\n")
    assert cli_main(["reg", str(not_ascii)]) == 2


@pytest.mark.parametrize("edge", ["-1 0", "0 -1", "3 0"])
def test_out_of_range_vertex_is_input_error(edge, tmp_path, capsys):
    path = tmp_path / "range.og"
    path.write_text(f"og 3 1\n{edge}\n")
    assert cli_main(["reg", str(path)]) == 2
    assert "outside [0, 3)" in _one_line_error(capsys)


def test_order_above_max_n_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.og"
    path.write_text("og 100000000 0\n")
    assert cli_main(["reg", str(path)]) == 2
    assert "MAX_N" in _one_line_error(capsys)


@pytest.mark.parametrize("mutate", [
    lambda order: order[:-1] + order[:1],
    lambda order: order + order,
    lambda order: order[:2],
], ids=["last_vertex_replaced_by_first", "wound_twice", "two_vertices"])
def test_verify_repeated_or_short_cycle_is_not_hamiltonian(mutate, tmp_path, capsys):
    gpath, cpath = _certificate_files(tmp_path, 25)
    doc = json.loads(cpath.read_text())
    cycles = doc["certificate"]["cycles"]
    assert cycles
    cycles[0] = mutate(cycles[0])
    cpath.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", str(gpath), str(cpath)]) == 1
    assert capsys.readouterr().err == "certificate invalid: NotHamiltonian\n"


def test_bounds_command(capsys):
    assert cli_main(["bounds", "--n", "5", "--r", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5 and doc["r"] == 2
    assert doc["upper_log"] == pytest.approx(2.5 * 0.6931471805599453)


def test_each_json_command_prints_only_what_it_computed(triangle_file, capsys):
    # bounds computes the upper bound alone and count-exact no lower bound;
    # sandwich computes all three
    runs = {("bounds", "--n", "7", "--r", "3"): {"n", "r", "upper_log"},
            ("count-exact", triangle_file, "--what", "cycles"):
                {"n", "r", "what", "exact", "exact_log", "upper_log"},
            ("count-exact", triangle_file):
                {"n", "r", "what", "exact", "exact_log", "upper_log"},
            ("sandwich", "--n", "5"):
                {"n", "r", "lower_log", "exact_log", "upper_log", "exact_count", "holds"},
            ("decompose", triangle_file): {"certificate", "report"}}
    for argv, keys in runs.items():
        assert cli_main(list(argv)) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys, argv


def test_count_exact_command(triangle_file, capsys):
    assert cli_main(["count-exact", triangle_file, "--what", "cycles"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1
    assert cli_main(["count-exact", triangle_file]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1


def test_sandwich_command(capsys):
    assert cli_main(["sandwich", "--n", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_count"] == 1 and doc["holds"]


@pytest.mark.parametrize("n", ["0", "1", "4", "11"])
def test_sandwich_outside_the_caps_is_input_error(n, capsys):
    assert cli_main(["sandwich", "--n", n]) == 2
    _one_line_error(capsys)


def test_sandwich_refuses_large_order_before_building(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(counting, "rotational_tournament", built.append)
    t0 = time.perf_counter()
    assert cli_main(["sandwich", "--n", "1999"]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert not built
    assert "exact-decomposition caps" in _one_line_error(capsys)


def test_decompose_seed_flag_and_default(tmp_path, capsys):
    gpath = tmp_path / "g.og"
    gpath.write_text(write_edge_list(rotational_tournament(11)))
    assert cli_main(["decompose", str(gpath)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["seed"] == 0
    assert cli_main(["decompose", str(gpath), "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["seed"] == 2


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_verify_non_json_certificate_is_input_error(triangle_file, tmp_path, capsys):
    cpath = tmp_path / "cert.json"
    cpath.write_text("not json {")
    assert cli_main(["verify", triangle_file, str(cpath)]) == 2
    _one_line_error(capsys)


def test_verify_certificate_missing_keys_is_input_error(triangle_file, tmp_path, capsys):
    cpath = tmp_path / "cert.json"
    assert cli_main(["decompose", triangle_file, "--out", str(cpath)]) == 0
    doc = json.loads(cpath.read_text())
    del doc["certificate"]["cycles"]
    cpath.write_text(json.dumps(doc))
    assert cli_main(["verify", triangle_file, str(cpath)]) == 2
    assert "cycles" in _one_line_error(capsys)


def test_generate_regular_without_r_is_usage_error(capsys):
    assert cli_main(["generate", "--kind", "regular", "--n", "9"]) == 2
    assert "--r" in _one_line_error(capsys)


@pytest.mark.parametrize("kind", ["rotational", "tournament"])
def test_generate_r_outside_kind_regular_is_usage_error(kind, capsys):
    assert cli_main(["generate", "--kind", kind, "--n", "5", "--r", "2"]) == 2
    assert "--r" in _one_line_error(capsys)


def test_generate_rotational_with_seed_is_usage_error(capsys):
    assert cli_main(["generate", "--kind", "rotational", "--n", "5", "--seed", "0"]) == 2
    assert "--seed" in _one_line_error(capsys)


def test_generate_tournament_seed_defaults_to_zero(capsys):
    assert cli_main(["generate", "--kind", "tournament", "--n", "9"]) == 0
    default = capsys.readouterr().out
    assert cli_main(["generate", "--kind", "tournament", "--n", "9", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default


def test_generate_regular_with_negative_r_is_input_error(capsys):
    assert cli_main(["generate", "--kind", "regular", "--n", "7", "--r", "-1"]) == 2
    assert "r=-1" in _one_line_error(capsys)


def test_generate_regular_with_zero_n_is_input_error(capsys):
    # the vertex count is at fault, not the degree
    assert cli_main(["generate", "--kind", "regular", "--n", "0", "--r", "0"]) == 2
    err = _one_line_error(capsys)
    assert "vertex count" in err and "r=" not in err


def test_bounds_with_zero_r_is_usage_error(capsys):
    assert cli_main(["bounds", "--n", "5", "--r", "0"]) == 2
    _one_line_error(capsys)
    # no oriented graph on 3 vertices has degree 5
    assert cli_main(["bounds", "--n", "3", "--r", "5"]) == 2
    _one_line_error(capsys)


def test_internal_error_exit_code(triangle_file, capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr("hamdec.cli.oriented_reg", broken)
    assert cli_main(["reg", triangle_file]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: simulated bug\n"


def test_failed_self_check_is_internal_error(triangle_file, capsys, monkeypatch):
    # a certificate the pipeline emits must verify; if not, hamdec has a bug
    monkeypatch.setattr("hamdec.pipeline._check_certificate",
                        lambda g, cert, digest, reg: (False, "Simulated"))
    assert cli_main(["decompose", triangle_file]) == 4
    err = capsys.readouterr().err
    assert err == ("internal error: AssertionError: emitted certificate "
                   "failed self-check: Simulated\n")


def test_patching_bug_is_internal_error(tmp_path, capsys, monkeypatch):
    # a merge that reports success without merging leaves a factor of
    # several cycles; the run must end as a bug, with no certificate written
    monkeypatch.setattr("hamdec.assembly._merge_factor", lambda succ, out: (True, 0))
    g = rotational_tournament(11)
    gpath, cpath = tmp_path / "g.og", tmp_path / "cert.json"
    gpath.write_text(write_edge_list(g))
    assert cli_main(["decompose", str(gpath), "--seed", "0", "--out", str(cpath)]) == 4
    assert capsys.readouterr().err.startswith("internal error: ")
    assert not cpath.exists()
    # the walk along the false cycle or the self-check raises, never an
    # input error (a HamdecError, exit 2)
    with pytest.raises(Exception) as raised:
        approximate_decomposition(g)
    assert not isinstance(raised.value, HamdecError)


@settings(max_examples=30, deadline=None)
@given(oriented_graphs(min_n=1, max_n=12), st.integers(0, 99))
@example(OrientedGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]), 0)
def test_decompose_then_verify_exit_0_on_valid_graphs(g, seed):
    # the transitive tournament of order 5 has reg 0, as do many drawn graphs
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = os.path.join(tmp, "g.og"), os.path.join(tmp, "cert.json")
        with open(gpath, "w", encoding="ascii") as fh:
            fh.write(write_edge_list(g))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli_main(["decompose", gpath, "--seed", str(seed), "--out", cpath]) == 0
            assert cli_main(["verify", gpath, cpath]) == 0, err.getvalue()


# -- exit codes under malformed input -----------------------------------


def _run_on_file(argv, data):
    """(exit code, stderr) of cli_main on argv followed by the path of a
    temporary file holding the bytes data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([*argv, path])
    return code, err.getvalue()


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


_non_int_tokens = st.text("0123456789+-._ex", min_size=1, max_size=4).filter(
    lambda t: not _is_int(t))


@st.composite
def _int_spellings(draw):
    """A number that int() reads but that is not a plain ASCII decimal:
    signed with '+', grouped with '_', or in Arabic-Indic, Devanagari or
    fullwidth digits."""
    k = draw(st.integers(0, 12))
    zero = draw(st.sampled_from([0x660, 0x966, 0xFF10]))
    native = str(k).translate({48 + d: zero + d for d in range(10)})
    return draw(st.sampled_from([f"+{k}", f"{k}_0", f"1_{k}", native, f"-{native}"]))


_bad_numbers = _non_int_tokens | _int_spellings()


@st.composite
def malformed_edge_lists(draw):
    """The bytes of a tournament's edge list with one defect: a bad header,
    an edge count the lines do not match, an edge line that is not two
    integers, a number int() reads but that is no plain ASCII decimal
    (such as "+3", "1_0" or an Arabic-Indic digit), a vertex out of range,
    a loop, an edge given twice or in both directions, an order outside
    [1, MAX_N], or a byte that is not ASCII."""
    n = draw(st.integers(3, 6))
    edges = sorted(random_tournament(n, draw(st.integers(0, 99))).edges)
    lines = [f"{u} {v}" for u, v in edges]
    head = ["og", str(n), None]
    defect = draw(st.sampled_from(["tag", "fields", "header_number", "count", "edge_tokens",
                                   "out_of_range", "loop", "duplicate", "antiparallel",
                                   "order", "not_ascii"]))
    u, v = draw(st.sampled_from(edges))
    if defect == "tag":
        head[0] = draw(st.sampled_from(["OG", "og:", "graph", "o g"]))
    elif defect == "fields":
        head = draw(st.sampled_from([head[:2], head + ["0"]]))
    elif defect == "header_number":
        head[draw(st.sampled_from([1, 2]))] = draw(_bad_numbers)
    elif defect == "count":
        head[2] = str(len(lines) + draw(st.integers(-len(lines), 3).filter(bool)))
    elif defect == "edge_tokens":
        bad = draw(st.sampled_from([str(u), f"{u} {v} {v}", f"{u} {draw(_bad_numbers)}",
                                    f"{draw(_bad_numbers)} {v}"]))
        lines[draw(st.integers(0, len(lines) - 1))] = bad
    elif defect == "out_of_range":
        w = draw(st.integers(-3, -1) | st.integers(n, n + 3))
        lines.append(draw(st.sampled_from([f"{u} {w}", f"{w} {v}"])))
    elif defect == "loop":
        lines.append(f"{u} {u}")
    elif defect == "duplicate":
        lines.append(f"{u} {v}")
    elif defect == "antiparallel":
        lines.append(f"{v} {u}")
    elif defect == "order":
        head[1] = str(draw(st.integers(-3, 0) | st.integers(MAX_N + 1, 10 * MAX_N)))
        lines = []
    if head[-1] is None:
        head[-1] = str(len(lines))
    data = "\n".join([" ".join(h for h in head if h is not None), *lines]).encode("utf-8")
    return data + b"\xe9\n" if defect == "not_ascii" else data


@settings(max_examples=150, deadline=None)
@given(malformed_edge_lists(), st.sampled_from([["reg"], ["decompose"], ["count-exact"]]))
def test_malformed_edge_list_exits_2_with_one_error_line(data, command):
    code, err = _run_on_file(command, data)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    # standard input skips the file's ASCII decoding; the reader alone
    # must refuse the same text
    err = io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(data.decode("utf-8", "replace"))),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        code = cli_main([*command, "-"])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


_json_scalars = (st.none() | st.booleans() | st.integers(-2, 8)
                 | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=6)


def _not_a_row(row, width=None):
    """True unless row is a list of JSON integers, of length width if given."""
    return (type(row) is not list or any(type(x) is not int for x in row)
            or width is not None and len(row) != width)


def _wrong_rows(valid, width=None):
    """A list of rows where one is not a list of integers (of the width),
    or a value that is not a list at all."""
    bad_row = _json_values.filter(lambda row: _not_a_row(row, width))
    return (_json_values.filter(lambda x: type(x) is not list)
            | st.tuples(st.just(valid), st.integers(0, len(valid)), bad_row).map(
                lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1]:]))


@st.composite
def malformed_certificates(draw):
    """A certificate of the rotational tournament of order 5 with one key of
    the wrong JSON type or shape or missing, optionally wrapped as the
    'certificate' of a decompose report; or a JSON value that is not an
    object; or text that is not JSON."""
    doc = approximate_decomposition(rotational_tournament(5))[0].to_json()
    key = draw(st.sampled_from(sorted(doc) + ["not_object", "not_json"]))
    if key == "not_json":
        return draw(st.text(max_size=8).filter(lambda t: not _parses(t))).encode()
    if key == "not_object":
        return json.dumps(draw(_json_values.filter(lambda x: type(x) is not dict))).encode()
    if draw(st.booleans()):
        del doc[key]
    elif key == "graph_sha256":
        doc[key] = draw(_json_values.filter(lambda x: type(x) is not str))
    elif key in ("cycles", "leftover"):
        doc[key] = draw(_wrong_rows(doc[key], 2 if key == "leftover" else None))
    else:
        doc[key] = draw(_json_values.filter(lambda x: type(x) is not int))
    return json.dumps({"certificate": doc} if draw(st.booleans()) else doc).encode()


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(malformed_certificates())
def test_malformed_certificate_exits_2_with_one_error_line(data):
    graph = write_edge_list(rotational_tournament(5)).encode("ascii")
    with tempfile.TemporaryDirectory() as tmp:
        gpath = os.path.join(tmp, "g.og")
        with open(gpath, "wb") as fh:
            fh.write(graph)
        code, err = _run_on_file(["verify", gpath], data)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
