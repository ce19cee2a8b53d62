import argparse
import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quandlekit
from quandlekit.cli import main
from quandlekit.groups import automorphisms, catalog
from quandlekit.quandles import (
    dihedral_quandle,
    format_quandle_file,
    galex,
    parse_quandle_file,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def r3_file(tmp_path):
    p = tmp_path / "r3.qdl"
    p.write_text(format_quandle_file(dihedral_quandle(3)))
    return str(p)


@pytest.fixture
def galex_q8_file(tmp_path):
    g = catalog("quaternion8")
    sigma = next(a for a in automorphisms(g) if a.map == (0, 1, 4, 5, 6, 7, 2, 3))
    p = tmp_path / "galex-q8-sigma.qdl"
    p.write_text(format_quandle_file(galex(g, sigma)))
    return str(p)


class TestValidate:
    def test_ok(self, capsys, r3_file):
        code, out, _ = run(capsys, "validate", "quandle", r3_file)
        assert code == 0
        assert out.strip() == "OK"

    def test_invalid_column(self, capsys, tmp_path):
        p = tmp_path / "broken.qdl"
        p.write_text("quandle 2\n0 0\n0 1\n")
        code, out, _ = run(capsys, "validate", "quandle", str(p))
        assert code == 1
        assert out.startswith("INVALID")
        assert "column 0" in out

    def test_order_400_under_1gib_address_space(self, tmp_path):
        # the whole self-distributivity cube of R_400 would need ~1 GB
        n = 400
        ar = np.arange(n)
        rows = (2 * ar[None, :] - ar[:, None]) % n
        p = tmp_path / "r400.qdl"
        p.write_text(f"quandle {n}\n"
                     + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        src = str(Path(quandlekit.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        limit = 2 ** 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", "validate", "quandle",
             str(p)],
            env=env, preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert (proc.returncode, proc.stdout.strip()) == (0, "OK"), proc.stderr

    def test_group_ok(self, capsys, tmp_path):
        p = tmp_path / "z3.grp"
        p.write_text("group 3\n0 1 2\n1 2 0\n2 0 1\n")
        code, out, _ = run(capsys, "validate", "group", str(p))
        assert code == 0

    def test_malformed_table_is_65(self, capsys, tmp_path):
        p = tmp_path / "bad.qdl"
        p.write_text("quandle 2\n0 5\n1 1\n")
        code, out, err = run(capsys, "validate", "quandle", str(p))
        assert (code, out) == (65, "")
        assert "entries must lie in 0..1" in err

    @pytest.mark.parametrize("text, err", [
        ("quandle 2\n0 0\n1 99999999999999999999\n",
         "error: entry outside the int64 range in row: '1 99999999999999999999'"),
        ("quandle 1025\n", "error: quandle order 1025 exceeds bound 1024"),
    ])
    def test_unreadable_table_is_65(self, capsys, tmp_path, text, err):
        p = tmp_path / "bad.qdl"
        p.write_text(text)
        assert run(capsys, "validate", "quandle", str(p)) == (65, "", err + "\n")

    def test_missing_file_is_65(self, capsys):
        code, _, err = run(capsys, "validate", "quandle", "/nonexistent.qdl")
        assert code == 65

    def test_usage_error_is_64(self, capsys):
        assert run(capsys, "validate", "matrix", "x")[0] == 64
        assert run(capsys, "frobnicate")[0] == 64


class TestConstruct:
    def test_conj_roundtrips_through_validate(self, capsys, tmp_path):
        out_path = tmp_path / "conj.qdl"
        code, _, _ = run(capsys, "construct", "conj", "--group", "symmetric:3",
                         "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "quandle", str(out_path))
        assert code == 0 and out.strip() == "OK"

    def test_galex_q8(self, capsys):
        g = catalog("quaternion8")
        auts = automorphisms(g)
        idx = next(i for i, a in enumerate(auts)
                   if a.map == (0, 1, 4, 5, 6, 7, 2, 3))
        code, out, _ = run(capsys, "construct", "galex",
                           "--group", "quaternion8", "--aut", str(idx))
        assert code == 0
        q = parse_quandle_file(out)
        assert q.same_table(galex(g, auts[idx]))

    def test_galex_past_automorphism_cap_is_65(self, capsys, monkeypatch):
        monkeypatch.setattr(quandlekit.groups, "MAX_AUTOMORPHISMS", 100)
        code, out, err = run(capsys, "construct", "galex", "--group",
                             "cyclic:2*cyclic:2*cyclic:2", "--aut", "0")
        assert code == 65 and out == ""
        assert "more than 100 automorphisms" in err

    def test_catalog_quandle(self, capsys):
        code, out, _ = run(capsys, "construct", "catalog-quandle",
                           "--name", "dihedral:3")
        assert code == 0
        assert parse_quandle_file(out).same_table(dihedral_quandle(3))

    def test_hopf_ext(self, capsys):
        code, out, _ = run(capsys, "construct", "hopf-ext",
                           "--group", "cyclic:2", "--normal", "full")
        assert code == 0
        assert parse_quandle_file(out).order == 4

    @pytest.mark.parametrize("normal, message", [
        ("1", "element set is not closed"),
        ("99", "subgroup elements out of range"),
        ("-1", "subgroup elements out of range"),
    ])
    def test_hopf_ext_bad_normal_is_65(self, capsys, normal, message):
        code, out, err = run(capsys, "construct", "hopf-ext",
                             "--group", "symmetric:3", "--normal", normal)
        assert code == 65
        assert out == "" and err == f"error: {message}\n"

    def test_group_from_file(self, capsys, tmp_path):
        p = tmp_path / "z3.grp"
        p.write_text("group 3\n0 1 2\n1 2 0\n2 0 1\n")
        code, out, _ = run(capsys, "construct", "conj", "--group", str(p))
        assert code == 0
        assert parse_quandle_file(out).order == 3

    def test_group_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("group 2\n0 1\n1 0\n"))
        code, out, _ = run(capsys, "construct", "conj", "--group", "-")
        assert code == 0
        assert parse_quandle_file(out).order == 2

    @pytest.mark.parametrize("spec, message", [
        ("alternating:5", "alternating(5) not in catalog (only n = 4)"),
        ("cyclic:0", "cyclic parameter must be positive"),
        ("cyclic:3,4", "cyclic takes 1 parameter(s)"),
    ])
    def test_catalog_error_is_reported(self, capsys, spec, message):
        code, _, err = run(capsys, "construct", "conj", "--group", spec)
        assert code == 65
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["dihedral:x", "trivial:"])
    def test_catalog_quandle_bad_parameter_is_64(self, capsys, name):
        code, _, err = run(capsys, "construct", "catalog-quandle", "--name", name)
        assert code == 64
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("name, message", [
        ("dihedral:0", "dihedral parameter must be positive"),
        ("trivial:-2", "trivial parameter must be positive"),
        ("dihedral:65", "order 65 exceeds bound 64"),
    ])
    def test_catalog_quandle_parameter_out_of_range_is_65(
            self, capsys, monkeypatch, name, message):
        def no_table(n):
            raise AssertionError(f"table of order {n} built")
        monkeypatch.setattr("quandlekit.quandles.dihedral_quandle", no_table)
        monkeypatch.setattr("quandlekit.quandles.trivial_quandle", no_table)
        code, _, err = run(capsys, "construct", "catalog-quandle", "--name", name)
        assert code == 65
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, code, err", [
    (["construct", "hopf-ext", "--group", "cyclic:4", "--normal", "a"], 65,
     "error: bad subgroup spec 'a'"),
    (["construct", "catalog-quandle"], 64,
     "usage error: catalog-quandle requires --name"),
    (["construct", "catalog-quandle", "--name", "cyclic:3"], 65,
     "error: unknown quandle family 'cyclic'"),
    (["construct", "conj"], 64, "usage error: conj requires --group"),
    (["construct", "galex", "--group", "cyclic:3"], 64,
     "usage error: galex requires --aut <index>"),
    (["construct", "galex", "--group", "cyclic:3", "--aut", "2"], 65,
     "error: --aut 2 out of range (group has 2)"),
    (["construct", "hopf-ext", "--group", "cyclic:3"], 64,
     "usage error: hopf-ext requires --normal"),
    (["present", "as"], 64, "usage error: present as requires --quandle"),
    (["present", "fundamental"], 64,
     "usage error: present fundamental requires --tangle"),
    (["construct", "hopf-ext", "--group", "cyclic:33", "--normal", "full"], 65,
     "error: order 1089 exceeds bound 1024"),
    (["construct", "hopf-ext", "--group", "cyclic:64", "--normal", "full"], 65,
     "error: order 4096 exceeds bound 1024"),
])
def test_usage_and_range_errors(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err + "\n")


def test_help_is_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: quandlekit")


def test_internal_error_is_70(capsys, monkeypatch, r3_file):
    def broken(q):
        raise RuntimeError("broken invariant")
    monkeypatch.setattr(quandlekit.criteria, "hopf_witness", broken)
    assert run(capsys, "check", "hopf", "--quandle", r3_file) == (
        70, "", "internal error: broken invariant\n")


def test_parser_is_built_once(capsys, monkeypatch, r3_file):
    assert run(capsys, "check", "hopf", "--quandle", r3_file)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("ArgumentParser constructed again")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(capsys, "check", "hopf", "--quandle", r3_file) == (0, "ADMISSIBLE\n", "")


class TestColor:
    def test_hopf_r3_count(self, capsys, r3_file):
        code, out, _ = run(capsys, "color", "--tangle", "builtin:hopf",
                           "--quandle", r3_file, "--count")
        assert code == 0
        assert out.strip() == "3"

    def test_list(self, capsys, r3_file):
        code, out, _ = run(capsys, "color", "--tangle", "builtin:trefoil",
                           "--quandle", r3_file, "--list")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 9
        assert all(len(r.split()) == 4 for r in rows)

    def test_admissible(self, capsys, r3_file):
        code, out, _ = run(capsys, "color", "--tangle", "builtin:trefoil",
                           "--quandle", r3_file, "--admissible")
        assert code == 0
        assert out.strip() == "ADMISSIBLE"

    def test_non_admissible_witness(self, capsys, galex_q8_file):
        code, out, _ = run(capsys, "color", "--tangle", "builtin:trefoil",
                           "--quandle", galex_q8_file, "--admissible")
        assert code == 0
        assert out.startswith("NON-ADMISSIBLE witness 0 2 ")

    def test_past_cell_bound_is_65(self, capsys, monkeypatch, r3_file):
        # hopf over R3 needs 3 x 9 solver cells
        monkeypatch.setattr(quandlekit.tangles, "MAX_CELLS", 26)
        code, out, err = run(capsys, "color", "--tangle", "builtin:hopf",
                             "--quandle", r3_file, "--count")
        assert (code, out) == (65, "")
        assert "solver cells" in err

    def test_tangle_from_file(self, capsys, tmp_path, r3_file):
        p = tmp_path / "hopf.tgl"
        p.write_text("arcs 3\nstart 0\nend 2\n"
                     "crossing + 1 0 2\ncrossing + 2 1 1\n")
        code, out, _ = run(capsys, "color", "--tangle", str(p),
                           "--quandle", r3_file, "--count")
        assert code == 0 and out.strip() == "3"


class TestCheck:
    def test_trefoil_galex_q8(self, capsys, galex_q8_file):
        code, out, _ = run(capsys, "check", "trefoil", "--quandle", galex_q8_file)
        assert code == 2
        assert out.strip() == "NON-ADMISSIBLE witness x=0 y=2"

    def test_hopf_galex_q8(self, capsys, galex_q8_file):
        code, out, _ = run(capsys, "check", "hopf", "--quandle", galex_q8_file)
        assert code == 0
        assert out.strip() == "ADMISSIBLE"

    def test_agrees_with_color_admissible(self, capsys, r3_file, galex_q8_file):
        for f in (r3_file, galex_q8_file):
            for kind, tangle in (("hopf", "builtin:hopf"),
                                 ("trefoil", "builtin:trefoil")):
                c1, out1, _ = run(capsys, "check", kind, "--quandle", f)
                c2, out2, _ = run(capsys, "color", "--tangle", tangle,
                                  "--quandle", f, "--admissible")
                assert (c1 == 0) == out2.startswith("ADMISSIBLE")


class TestPresent:
    def test_fundamental(self, capsys):
        code, out, _ = run(capsys, "present", "fundamental",
                           "--tangle", "builtin:hopf")
        assert code == 0
        assert "gen a0" in out and "rel a0 <| a1 = a2" in out

    def test_as(self, capsys, r3_file):
        code, out, _ = run(capsys, "present", "as", "--quandle", r3_file)
        assert code == 0
        assert out.count("gen ") == 3
        assert out.count("rel ") == 9


class TestCensusAndCatalog:
    def test_census_small(self, capsys):
        code, out, _ = run(capsys, "census", "--max-order", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#group_name")
        assert len(lines) > 1

    # sha256 of stdout: the census TSV is pinned byte for byte
    @pytest.mark.parametrize("argv, digest", [
        (("--max-order", "16", "--dedup"),
         "fa6dfe288029f53f21b88a0439c74a5ee24789e95483210fdd7843425790f1df"),
        (("--max-order", "48"),
         "ca8be30d5d8a772f2b110d50b073237c651ab5aa98a00bd70c106b94b7ac96f0"),
    ], ids=["dedup16", "raw48"])
    def test_census_output_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "census", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_catalog_lists_groups(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert any(line.startswith("quaternion8\t8\t24")
                   for line in out.splitlines())

    def test_catalog_labels(self, capsys):
        code, out, _ = run(capsys, "catalog", "--group", "quaternion8")
        assert code == 0
        assert "2\ti" in out
