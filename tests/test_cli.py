import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubefree import cli
from cubefree.construction import construction_layers, layered_construction
from cubefree.counting import count_schur_triples
from cubefree.errors import CapacityError
from cubefree.groups import GroupContext, ResidueSet, layer_range_set
from cubefree.search import max_cube_free_exact


def run_cli(*argv):
    code, report = cli.run(list(argv))
    return code, report


def test_construct_command():
    code, report = run_cli("construct", "--d", "26", "--n", "12")
    assert code == 0 and report.status == "ok"
    assert report.result["block_vector"] == [5, 4, 3]
    assert report.result["size"] == 3958
    json.loads(report.to_json())


def test_find_cube_command(tmp_path):
    code, report = run_cli("find-cube", "--set", "2,3,4,5,7", "--n", "3", "--d", "3")
    assert code == 0
    assert report.result["found"] is True
    assert report.result["generators"] == [2, 2, 3]
    assert report.result["cube"] == [2, 3, 4, 5, 7]
    # file input form
    path = tmp_path / "set.json"
    path.write_text("[1, 3, 5, 7]")
    code, report = run_cli("find-cube", "--set", str(path), "--n", "3", "--d", "2")
    assert code == 0 and report.result["found"] is False


def test_find_cube_in_the_widest_group(tmp_path):
    # L2 | L3 of Z_{2^21}, 786,432 members: halved one member at a time it took minutes
    path = tmp_path / "set.json"
    path.write_text(json.dumps(layer_range_set(2, 3, GroupContext(21)).members()))
    start = time.process_time()
    code, report = run_cli("find-cube", "--n", "21", "--d", "3", "--set", str(path))
    assert code == 0 and report.result["generators"] == [2, 2, 2]
    assert time.process_time() - start < 10


def test_find_cube_decides_a_cube_free_set_at_its_root(tmp_path):
    # 677 of the 832 members of the d = 5 construction of Z_{2^10}: the caps
    # prove it 5-cube-free at the root; searching every member's child, which
    # keeps the root's layers, ran for minutes
    rng = random.Random(5)
    members = layered_construction(5, GroupContext(10)).members()
    path = tmp_path / "set.json"
    path.write_text(json.dumps([x for x in members if rng.random() < 0.8]))
    start = time.process_time()
    code, report = run_cli("find-cube", "--n", "10", "--d", "5", "--set", str(path))
    assert code == 0 and report.result["found"] is False
    assert time.process_time() - start < 5


def test_count_st_command():
    code, report = run_cli("count-st", "--set", "1,2,3,5,7", "--n", "3")
    assert code == 0
    assert report.result["st"] == 12
    assert report.result["f_lower_bound"] == 12
    assert report.result["by_layer"]["1"]["sum_above"] == 4


def test_count_st_reads_st_off_the_layer_table(rng):
    # ST is the layer totals plus (0, 0, 0), the one triple in no layer
    for n in (1, 3, 6, 9):
        ctx = GroupContext(n)
        for with_zero in (False, True):
            for _ in range(5):
                A = ResidueSet(ctx, rng.getrandbits(ctx.modulus) & ~1 | with_zero)
                code, report = run_cli("count-st", "--n", str(n), "--set",
                                       ",".join(map(str, A.members())))
                assert code == 0 and report.result["st"] == count_schur_triples(A)


def test_count_st_walks_sparse_sets_of_the_widest_group():
    code, report = run_cli("count-st", "--n", "21", "--set", "1,2,3,5")
    assert code == 0 and report.result["st"] == 5
    # 1 + 1 = 2 leaves L_1; 1 + 2 = 3 and 3 + 2 = 5 take y from L_2, and their mirrors x
    assert report.result["by_layer"] == {
        "1": {"sum_above": 1, "middle_above": 2, "first_above": 2}}
    # the 256 multiples of 2^13, spread over Z_{2^21}: the member loop takes well
    # under a second where the spread product, 2^21 fields of 22 bits, takes minutes
    subgroup = ",".join(map(str, range(0, 1 << 21, 1 << 13)))
    start = time.perf_counter()
    code, report = run_cli("count-st", "--n", "21", "--set", subgroup)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and report.result["st"] == 256 ** 2
    # L_a of the subgroup, 14 <= a <= 21, holds 2^(21 - a) members; every pair of
    # them sums above a, and every sum with a member above a stays in L_a
    assert report.result["by_layer"] == {
        str(a): dict.fromkeys(("sum_above", "middle_above", "first_above"), 4 ** (21 - a))
        for a in range(14, 22)}


def naive_schur_triples(members, modulus):
    chosen = set(members)
    return sum(1 for x in chosen for y in chosen if (x + y) % modulus in chosen)


def test_count_st_reads_inline_lists_longer_than_a_file_name(tmp_path):
    # 128 residues spell a 457-character spec, past the 255-byte name limit
    evens = list(range(0, 256, 2))
    code, report = run_cli("count-st", "--n", "8", "--set", ",".join(map(str, evens)))
    assert code == 0 and report.result["st"] == naive_schur_triples(evens, 256) == 128 ** 2
    spaced = [1, 3, 4, 250]
    code, report = run_cli("count-st", "--n", "8", "--set", " 1, 3 ,4, -6 ")
    assert code == 0 and report.result["st"] == naive_schur_triples(spaced, 256)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(evens))
    code, report = run_cli("count-st", "--n", "8", "--set", str(path))
    assert code == 0 and report.result["st"] == 128 ** 2


def test_min_schur_command_and_budget():
    code, report = run_cli("min-schur", "--n", "3", "--m", "5")
    assert code == 0 and report.result["minimum"] == 12
    code, report = run_cli("min-schur", "--n", "5", "--m", "17")
    assert code == 2 and report.status == "budget_exceeded"
    assert report.result["space_size"] == 565722720


def test_max_search_modes(tmp_path):
    code, report = run_cli("max-search", "--n", "3", "--d", "3")
    assert code == 0 and report.result["optimum"] == 5
    code, report = run_cli("max-search", "--n", "4", "--d", "2", "--mode", "layers")
    assert code == 0 and report.result["optimum"] == 8
    out = tmp_path / "model.lp"
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "lp",
                           "--out", str(out))
    assert code == 0 and out.read_text().startswith("\\ cube-free set model")
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "cnf",
                           "--target", "5")
    assert code == 0 and report.result["model"].splitlines()[2].startswith("p cnf")
    sol = tmp_path / "assignment.txt"
    sol.write_text("\n".join(f"x{v} 1" for v in (1, 3, 5, 7)) + "\n")
    code, report = run_cli("max-search", "--n", "3", "--d", "2", "--mode", "validate",
                           "--solution", str(sol))
    assert code == 0 and report.result["feasible"] and report.result["objective"] == 4


def test_max_search_reports_gathered_constraints():
    # the exact search reports the cube masks it asked find_cube for, orbits included
    code, report = run_cli("max-search", "--n", "5", "--d", "4", "--symmetry")
    assert code == 0
    assert [report.result[key] for key in ("optimum", "explored", "constraints")] == [24, 30, 105]
    code, report = run_cli("max-search", "--n", "4", "--d", "2", "--mode", "layers")
    assert code == 0 and "constraints" not in report.result


def test_layers_mode_reports_layers_not_members():
    # a union of layers is named by its layer indices: at (21, 21) its 2,020,352
    # members would print as 29 MB of JSON
    code, report = run_cli("max-search", "--n", "21", "--d", "21", "--mode", "layers")
    assert code == 0 and "witness" not in report.result
    assert report.result["layers"] == list(construction_layers(21))
    assert report.result["optimum"] == len(layered_construction(21, GroupContext(21)))
    code, report = run_cli("max-search", "--n", "5", "--d", "3", "--mode", "layers")
    assert report.result["layers"] == [1, 3] and report.result["explored"] == 12


def test_validate_reads_dimacs_solver_output(tmp_path):
    sol = tmp_path / "solver.out"
    sol.write_text("s SATISFIABLE\nv 1 -2 3 -4 5 0\n")
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "validate",
                           "--solution", str(sol))
    assert code == 0
    assert report.result["selected"] == [0, 2, 4] and not report.result["feasible"]
    # counter variables 9 and up lie past residue 7 and are ignored
    sol.write_text("s SATISFIABLE\nv 1 -2 3 -4 5 -6 7 -8 9 10 -11 0\n")
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "validate",
                           "--solution", str(sol))
    assert code == 0 and report.result["selected"] == [0, 2, 4, 6]
    sol.write_text("v 1 -2 0\ngarbage here now\n")
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "validate",
                           "--solution", str(sol))
    assert code == 2 and report is None


@pytest.mark.parametrize("content", ['[1, "a", 3]', "[1, true, 3]", "[1, 2.0]",
                                     "[1, null]", "[[1]]", '{"set": [1]}', "[1, 2"])
def test_json_set_rejects_non_integers(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, report = run_cli("find-cube", "--set", str(path), "--n", "3", "--d", "2")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors():
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "cnf")
    assert code == 2  # missing --target
    code, _ = run_cli("unknown-command")
    assert code == 2
    code, _ = run_cli("construct", "--d", "26", "--n", "5")
    assert code == 2  # capacity: construction does not fit


def test_group_exponent_above_cap_exits_two(capsys):
    # 2^34-bit masks would take 2 GiB each; the cap rejects n before any is built
    code, report = run_cli("construct", "--d", "26", "--n", "34")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: group exponent") and err.count("\n") == 1


def test_layer_sweep_budget_exits_two():
    # unbudgeted, explored is 2^14 - 10240 = 6144, the unions at least as large
    # as the optimum, which the budget of 10 does not cover
    code, report = run_cli("max-search", "--n", "14", "--d", "3", "--mode", "layers",
                           "--budget", "10")
    assert code == 2 and report.status == "budget_exceeded"
    assert report.result["error"] == "layer-union sweep exceeded the budget of 10 unions"


def test_degenerate_patterns_budget_exits_two():
    # 2^10 (2^10 + 1) patterns are counted, not built (building them took over 60 s)
    start = time.perf_counter()
    code, report = run_cli("max-search", "--n", "10", "--d", "3", "--mode", "lp",
                           "--patterns", "degenerate", "--budget", "1000")
    assert code == 2 and report.status == "budget_exceeded"
    assert report.result["space_size"] == 1049600
    assert time.perf_counter() - start < 1.0


def test_degenerate_validation_budget_exits_two(tmp_path, capsys):
    # the 2^12 (2^12 + 1) patterns are counted before any x is tried
    sol = tmp_path / "construction.txt"
    built = layered_construction(3, GroupContext(12))
    sol.write_text("".join(f"x{v} 1\n" for v in built.members()))
    argv = ["max-search", "--n", "12", "--d", "3", "--mode", "validate",
            "--patterns", "degenerate", "--solution", str(sol)]
    assert cli.main([*argv, "--budget", "10"]) == 2
    out, err = capsys.readouterr()
    assert err == "" and sum('"error":' in line for line in out.splitlines()) == 1
    assert json.loads(out)["result"]["error"] == (
        "16781312 degenerate 3-cube patterns exceed the budget of 10")
    code, report = run_cli(*argv)
    assert code == 0 and report.result["feasible"]
    assert report.result["objective"] == len(built)


def test_deep_cube_search_exits_two(capsys):
    # {1} x 1000 is a cube of {1, ..., 1023}, but its search recurses 1000 deep
    members = ",".join(str(x) for x in range(1, 1024))
    assert cli.main(["find-cube", "--n", "10", "--d", "1000", "--set", members]) == 2
    out, err = capsys.readouterr()
    assert err == "" and sum('"error":' in line for line in out.splitlines()) == 1
    assert json.loads(out)["result"]["error"].startswith(
        "the search for a 1000-cube ran out of depth")


def test_verify_claims_smoke_command(capsys):
    assert cli.main(["verify-claims", "--level", "smoke",
                     "--checks", "construction_table,max_cube_free_d2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    names = [c["name"] for c in payload["result"]["checks"]]
    assert names == ["construction_table", "max_cube_free_d2"]


@pytest.mark.parametrize("argv", [
    ("verify-lemma", "--k", "12", "--x", "0"),
    ("verify-lemma", "--k", "16", "--x", "0"),
    ("verify-lemma", "--k", "20", "--x", "0"),
    ("verify-lemma", "--k", "22", "--x", "0"),
    ("max-search", "--n", "21", "--d", "5000"),
    ("min-schur", "--n", "21", "--m", "5000"),
    ("min-schur", "--n", "21", "--m", "1000000"),
])
def test_astronomical_enumeration_space_exits_two_at_once(argv):
    # the space has thousands to millions of digits; it is never spelled out
    start = time.perf_counter()
    code, report = run_cli(*argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and report.status == "budget_exceeded"
    assert report.result["space_size"] is None
    assert report.result["error"].startswith("more than 2^64 ")
    assert len(report.to_json()) < 1000


def test_enumeration_space_exact_up_to_64_bits():
    # C(128, 15) < 2^64 < C(128, 16) subsets of Z_{2^7}
    code, report = run_cli("min-schur", "--n", "7", "--m", "15")
    assert code == 2 and report.result["space_size"] == 13216710966550396800
    assert report.result["error"] == \
        "13216710966550396800 subsets of size 15 exceed the budget of 1000000"
    for budget in ("1000000", "93343021201262177399"):  # C(128, 16) - 1
        code, report = run_cli("min-schur", "--n", "7", "--m", "16", "--budget", budget)
        assert code == 2 and report.result["space_size"] is None
    code, report = run_cli("min-schur", "--n", "3", "--m", "4", "--budget", "70")
    assert code == 0  # C(8, 4) = 70 sets are within the budget
    code, report = run_cli("min-schur", "--n", "3", "--m", "4", "--budget", "69")
    assert code == 2 and report.result["space_size"] == 70


@pytest.mark.parametrize("n, d, space", [(4, 3, 816), (5, 3, 5984), (4, 2, 136), (3, 4, 330)])
def test_max_search_budget_counts_every_generator_multiset(n, d, space):
    # only orbit representatives are folded, yet the budget still counts all
    # C(2^n + d - 1, d) generator multisets, at max-search's default and with --symmetry
    ctx = GroupContext(n)
    message = f"{space} generator multisets exceed the budget of {space - 1}"
    with pytest.raises(CapacityError, match=f"^{message}$") as err:
        max_cube_free_exact(ctx, d, budget=space - 1)
    assert err.value.space_size == space
    for flags in ((), ("--symmetry",)):
        argv = ("max-search", "--n", str(n), "--d", str(d), *flags)
        code, report = run_cli(*argv, "--budget", str(space - 1))
        assert code == 2 and report.result == {"error": message, "space_size": space}
        code, report = run_cli(*argv, "--budget", str(space))
        assert code == 0
        assert report.result["optimum"] == max_cube_free_exact(ctx, d, budget=space).optimum


def test_verify_lemma_command():
    code, report = run_cli("verify-lemma", "--k", "2", "--x", "0")
    assert code == 0
    assert report.result["space_size"] == 210
    assert report.result["counterexamples"] == []


def test_failed_check_exits_one(monkeypatch):
    from cubefree import verify

    def broken(level, rng):
        return verify.CheckResult("construction_table", False, 0.0,
                                  "forced failure", ["d=2: wrong layers"])

    monkeypatch.setitem(verify.CHECKS, "construction_table", broken)
    code, report = run_cli("verify-claims", "--level", "smoke",
                           "--checks", "construction_table")
    assert code == 1
    assert report.status == "counterexample"
    assert report.result["checks"][0]["failures"] == ["d=2: wrong layers"]


@pytest.mark.parametrize("content, named", [
    ("s UNSATISFIABLE\n", "line 1 reports 's UNSATISFIABLE'"),
    ("x1 1\nx99 1\n", "line 2 names residue 99 outside [0, 7]"),
    ("x1 1\nx-3 1\n", "line 2 names residue -3 outside [0, 7]"),
], ids=["unsat", "above", "negative"])
def test_validate_rejects_unsat_and_out_of_range_residues(tmp_path, capsys, content, named):
    sol = tmp_path / "solver.out"
    sol.write_text(content)
    code, report = run_cli("max-search", "--n", "3", "--d", "3", "--mode", "validate",
                           "--solution", str(sol))
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


def test_closed_stdout_keeps_exit_code_without_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the LP model at (5, 3) is about 100 kB, more than a pipe buffer holds
    with subprocess.Popen(
            [sys.executable, "-m", "cubefree.cli", "max-search", "--n", "5", "--d", "3",
             "--mode", "lp"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(args, budget):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "construct", exhausted)
    code, report = run_cli("construct", "--d", "26", "--n", "34")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err and err.count("\n") == 1


@pytest.mark.parametrize("exc", [RuntimeError("solver state lost"),
                                 AssertionError("search produced an invalid witness")])
def test_unexpected_error_exits_two_with_one_line(monkeypatch, capsys, exc):
    def failing(args, budget):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "max-search", failing)
    code, report = run_cli("max-search", "--n", "3", "--d", "3")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"
