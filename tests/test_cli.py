import json
import warnings

import pytest

from hamdec.cli import cli_main
from hamdec.graphs import read_edge_list, rotational_tournament, write_edge_list


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


def test_bounds_command(capsys):
    assert cli_main(["bounds", "--n", "5", "--r", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5 and doc["r"] == 2
    assert doc["upper_log"] == pytest.approx(2.5 * 0.6931471805599453)


def test_count_exact_command(triangle_file, capsys):
    assert cli_main(["count-exact", triangle_file, "--what", "cycles"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1
    assert cli_main(["count-exact", triangle_file]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1


def test_sandwich_command(capsys):
    assert cli_main(["sandwich", "--n", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_count"] == 1 and doc["holds"]


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
                        lambda g, cert, digest: (False, "Simulated"))
    assert cli_main(["decompose", triangle_file]) == 4
    err = capsys.readouterr().err
    assert err == ("internal error: AssertionError: emitted certificate "
                   "failed self-check: Simulated\n")
