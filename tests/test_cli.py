import json
import time

import pytest

from plink.cli import (EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE,
                       main)
from plink.fixtures import mobius_ohcp_chain
from plink.scxio import parse_scx, serialize_chn


@pytest.fixture
def annulus_path(tmp_path):
    p = tmp_path / "annulus.scx"
    assert main(["generate", "annulus", "-o", str(p)]) == EXIT_OK
    return str(p)


@pytest.fixture
def mobius_path(tmp_path):
    p = tmp_path / "mobius.scx"
    assert main(["generate", "mobius", "-o", str(p)]) == EXIT_OK
    return str(p)


def test_generate_writes_parseable_complex(annulus_path):
    cx = parse_scx(open(annulus_path).read())
    assert cx.dim == 2


def test_generate_with_params(tmp_path):
    p = tmp_path / "m7.scx"
    assert main(["generate", "mobius", "--k", "7", "-o", str(p)]) == EXIT_OK
    assert len(parse_scx(open(p).read()).vertices) == 7


def test_link_check_single_edge(annulus_path, capsys):
    assert main(["link-check", annulus_path, "--edge", "0,4",
                 "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["edge"] == [0, 4]
    assert out["link_condition"] is True


def test_link_check_scan(annulus_path, capsys):
    assert main(["link-check", annulus_path, "--max-p", "1"]) == EXIT_OK
    assert "0 4" in capsys.readouterr().out


def test_contract_roundtrip(annulus_path, tmp_path, capsys):
    out = tmp_path / "small.scx"
    assert main(["contract", annulus_path, "--edge", "0,4",
                 "-o", str(out)]) == EXIT_OK
    cx = parse_scx(open(out).read())
    assert 7 in cx.vertices and len(cx.vertices) == 7


def test_contract_names_a_bad_edge(annulus_path, tmp_path, capsys):
    assert main(["contract", annulus_path, "--edge", "0,0",
                 "-o", str(tmp_path / "x.scx")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "duplicate vertices in (0, 0)" in err and "generator" not in err


def test_homology_json(mobius_path, capsys):
    assert main(["homology", mobius_path, "--p", "1", "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"p": 1, "betti": 1, "torsion": []}


def test_rel_homology(tmp_path, capsys):
    L = tmp_path / "L.scx"
    L0 = tmp_path / "L0.scx"
    main(["generate", "mobius", "-o", str(L)])
    main(["generate", "mobius-boundary", "-o", str(L0)])
    assert main(["rel-homology", str(L), str(L0), "--p", "1",
                 "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["torsion"] == [2]


def test_tu_check_exit_codes(mobius_path, annulus_path, capsys):
    assert main(["tu-check", mobius_path, "--p", "2"]) == EXIT_NEGATIVE
    assert main(["tu-check", annulus_path, "--p", "2"]) == EXIT_OK
    assert main(["tu-check", mobius_path, "--p", "2",
                 "--budget", "2"]) == EXIT_INCONCLUSIVE


def test_tu_check_witness_carries_entry_weights(tmp_path, capsys):
    p = tmp_path / "m9.scx"
    assert main(["generate", "mobius", "--k", "9", "-o", str(p)]) == EXIT_OK
    assert main(["tu-check", str(p), "--p", "2", "--json"]) == EXIT_NEGATIVE
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness and all(e["w"] in (1, -1) for e in witness)
    assert sum(e["w"] for e in witness) % 4 == 2


def test_tu_check_determinant_honours_budget(tmp_path, capsys):
    p = tmp_path / "m9.scx"
    assert main(["generate", "mobius", "--k", "9", "-o", str(p)]) == EXIT_OK
    start = time.perf_counter()
    assert main(["tu-check", str(p), "--p", "2", "--strategy", "determinant",
                 "--budget", "10", "--json"]) == EXIT_INCONCLUSIVE
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["status"] is None


def test_tu_check_strategies_agree(mobius_path, capsys):
    for strategy in ("circuit", "determinant"):
        assert main(["tu-check", mobius_path, "--p", "2", "--strategy",
                     strategy, "--json"]) == EXIT_NEGATIVE
        out = json.loads(capsys.readouterr().out)
        assert out["status"] is False
        assert out["witness"]


def test_rel_torsion_modes(mobius_path, annulus_path):
    assert main(["rel-torsion", mobius_path, "--p", "1"]) == EXIT_NEGATIVE
    assert main(["rel-torsion", annulus_path, "--p", "1"]) == EXIT_OK
    assert main(["rel-torsion", mobius_path, "--p", "1",
                 "--mode", "oracle"]) == EXIT_NEGATIVE


def test_rel_torsion_rejects_negative_p(mobius_path, capsys):
    for mode in ("oracle", "tu"):
        assert main(["rel-torsion", mobius_path, "--p", "-1",
                     "--mode", mode]) == EXIT_USAGE
        assert "p=-1 out of range" in capsys.readouterr().err


def test_rel_torsion_oracle_has_default_budget(annulus_path, capsys):
    # unbudgeted, the oracle walks annulus(4)'s pure pairs for minutes
    start = time.perf_counter()
    assert main(["rel-torsion", annulus_path, "--p", "1", "--mode", "oracle",
                 "--json"]) == EXIT_INCONCLUSIVE
    assert time.perf_counter() - start < 10.0
    assert json.loads(capsys.readouterr().out)["has_relative_torsion"] is None


def test_ohcp_integer_fractional_chain_is_infeasible(mobius_path, tmp_path,
                                                     capsys):
    chp = tmp_path / "half.chn"
    chp.write_text("1/2 1 2\n-1/2 1 4\n-1/2 2 4\n")
    assert main(["ohcp", mobius_path, str(chp), "--integer",
                 "--json"]) == EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_ohcp_lp_and_ilp(tmp_path, capsys):
    cxp = tmp_path / "k.scx"
    chp = tmp_path / "c.chn"
    main(["generate", "mobius-ohcp", "-o", str(cxp)])
    chp.write_text(serialize_chn(mobius_ohcp_chain()))
    assert main(["ohcp", str(cxp), str(chp), "--json"]) == EXIT_OK
    lp = json.loads(capsys.readouterr().out)
    assert lp["objective"] == "7/20"
    assert main(["ohcp", str(cxp), str(chp), "--integer",
                 "--json"]) == EXIT_OK
    ilp = json.loads(capsys.readouterr().out)
    assert ilp["objective"] == "13/10"
    # an LP optimum carries its dual cocycle, an ILP optimum none
    keys = {"status", "objective", "chain", "certificate", "cocycle"}
    assert set(lp) == set(ilp) == keys
    assert lp["cocycle"] and ilp["cocycle"] == []


def test_ohcp_negative_p_is_a_usage_error(annulus_path, tmp_path, capsys):
    chain = tmp_path / "empty.chn"
    chain.write_text("")
    assert main(["ohcp", annulus_path, str(chain), "--p", "-1"]) == EXIT_USAGE
    assert "p=-1 is negative" in capsys.readouterr().err


def test_reduce_with_log(annulus_path, tmp_path):
    out = tmp_path / "reduced.scx"
    log = tmp_path / "log.json"
    assert main(["reduce", annulus_path, "--gate", "full", "--max-steps", "2",
                 "-o", str(out), "--log", str(log),
                 "--snapshots"]) == EXIT_OK
    records = json.loads(log.read_text())
    contracted = [r for r in records if r["action"] == "contracted"]
    assert len(contracted) <= 2
    assert all(r["snapshot"] for r in contracted)


def test_reduce_gate_parsing(annulus_path, tmp_path):
    assert main(["reduce", annulus_path, "--gate", "p=1,2",
                 "-o", str(tmp_path / "o.scx")]) == EXIT_OK
    for gate in ("sideways", "p=a", "p=", "p=1,,2", "p=-1"):
        assert main(["reduce", annulus_path, "--gate", gate,
                     "-o", str(tmp_path / "o2.scx")]) == EXIT_USAGE


def test_generate_rejects_bad_mobius_sizes(tmp_path):
    for name in ("mobius", "mobius-boundary"):
        assert main(["generate", name, "--k", "4",
                     "-o", str(tmp_path / "x.scx")]) == EXIT_USAGE


def test_flags_out_of_range_are_usage_errors(tmp_path, annulus_path, capsys):
    # each of these exited 0: cone(4), no contraction, empty verdicts
    out = str(tmp_path / "x.scx")
    for argv, flag in ((["generate", "cone", "--k", "9", "-o", out],
                        "size parameter k"),
                       (["reduce", annulus_path, "--gate", "full",
                         "--max-steps", "-1", "-o", out], "--max-steps"),
                       (["link-check", annulus_path, "--max-p", "-3"],
                        "--max-p")):
        assert main(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err
    assert main(["reduce", annulus_path, "--gate", "full",
                 "--max-steps", "0", "-o", out]) == EXIT_OK
    assert main(["link-check", annulus_path, "--max-p", "0"]) == EXIT_OK


def test_usage_errors(tmp_path, annulus_path, capsys):
    assert main(["homology", str(tmp_path / "missing.scx"),
                 "--p", "0"]) == EXIT_USAGE
    assert main(["link-check", annulus_path, "--edge", "zebra"]) == EXIT_USAGE
    bad = tmp_path / "bad.scx"
    bad.write_text("0 1 w oops\n")
    assert main(["homology", str(bad), "--p", "0"]) == EXIT_USAGE
    chain = tmp_path / "edge.chn"
    edge = parse_scx(open(annulus_path).read()).p_simplices(1)[0]
    chain.write_text(serialize_chn({edge: 1}))
    for command in (["tu-check", annulus_path, "--p", "2"],
                    ["rel-torsion", annulus_path, "--p", "1"],
                    ["ohcp", annulus_path, str(chain), "--integer"]):
        assert main(command + ["--budget", "-1"]) == EXIT_USAGE
        assert main(command + ["--budget", "0"]) != EXIT_USAGE
