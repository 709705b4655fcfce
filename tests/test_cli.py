import argparse
import json
import random
from pathlib import Path

import pytest

from bigrassmannian import checks, cli
from bigrassmannian.cli import main
from bigrassmannian.exactpoly import format_poly, qpow
from bigrassmannian.permstat import beta, enumerate_sn


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bn_all_methods(capsys):
    code, out, _ = run(capsys, "bn", "--n", "3", "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK"
    assert all("1 - 2*q + 2*q^3 - q^4" in line for line in lines[:-1])
    assert len(lines) == 5


def test_bn_single_method(capsys):
    code, out, _ = run(capsys, "bn", "--n", "4", "--method", "product")
    assert code == 0
    assert out.strip() == ("1 - 3*q + q^2 + 4*q^3 - 2*q^4 - 2*q^5 - 2*q^6"
                           " + 4*q^7 + q^8 - 3*q^9 + q^10")


def test_beta_output_format(capsys):
    code, out, _ = run(capsys, "beta", "--perm", "3412")
    assert code == 0
    assert out.strip() == "l=4 beta=8"


def test_reading_lists(capsys):
    code, out, _ = run(capsys, "reading", "--n", "3")
    assert code == 0
    # Reading's statistic by its definition, the sum of q^beta(w) over S_3
    definition = sum(qpow(2 * beta(w)) for w in enumerate_sn(3))
    assert out.strip() == format_poly(definition)


def test_expand_weighted(capsys):
    code, out, _ = run(capsys, "expand", "--n", "2", "--weighted")
    assert code == 0
    assert out.strip() == "x1 + q*l*x2"


def test_bdet_matrix_file(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    path.write_text("n=3\n1 ; 1 ; 1\n1 ; 1 ; 1\n1 ; 1 ; 1\n")
    for method in ("def", "deform", "condense"):
        code, out, _ = run(capsys, "bdet", "--matrix", str(path),
                           "--method", method)
        assert code == 0
        assert out.strip() == "1 - 2*q + 2*q^3 - q^4"


def test_bdet_missing_file(capsys):
    code, _, err = run(capsys, "bdet", "--matrix", "/nonexistent/m.txt")
    assert code == 2
    assert "error" in err


def test_verify_condensation_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "condensation",
                       "--n", "3", "--trials", "5", "--seed", "42")
    assert code == 0
    assert out.strip().splitlines()[-1] == "OK"
    assert "condensation identity" in out


def test_verify_all_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all",
                       "--max-n", "4", "--trials", "5")
    assert code == 0, out
    lines = out.strip().splitlines()
    assert lines[-1] == "OK"
    assert all(line.startswith("ok:") for line in lines[:-1])
    for suite in checks.SUITES:
        assert f"[{suite}]" in out


def test_verify_runs_the_checks_registry():
    assert cli._SUITE_FUNCS is checks.SUITES
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in subcommands.choices["verify"]._actions
                 if a.dest == "suite")
    assert suite.choices == [*checks.SUITES, "all"]
    for name, func in checks.SUITES.items():
        results = list(func(3, 2, random.Random(0)))
        assert results, name
        assert [r for r in results if not r[1]] == [], name


def test_bound_violation_exits_2(capsys):
    code, _, err = run(capsys, "bn", "--n", "99", "--method", "sum")
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize("argv", [
    ["bn", "--n", "-2", "--method", "det"],
    ["bn", "--n", "3", "--max-n", "-1"],
    ["bdet", "--matrix", "m.txt", "--max-n", "-1"],
    ["reading", "--n", "-1"],
    ["reading", "--n", "3", "--max-n", "-1"],
    ["expand", "--n", "-1"],
    ["expand", "--n", "2", "--max-n", "-1"],
    ["verify", "--suite", "condensation", "--n", "-3"],
    ["verify", "--max-n", "-1"],
    ["verify", "--suite", "condensation", "--trials", "-3", "--max-n", "3"],
    ["verify", "--trials", "0"],
    ["bench", "--method", "bdet-condense", "--n", "-1"],
    ["bench", "--method", "permanent", "--n", "3", "--max-n", "-1"],
])
def test_negative_sizes_and_no_trials_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be at least" in capsys.readouterr().err


# int() reads Arabic-Indic digits and '_' separators; the CLI does not
@pytest.mark.parametrize("argv", [
    ["bn", "--n", "\u0663"],
    ["bn", "--n", "3", "--max-n", "1_0"],
    ["verify", "--trials", "\u0665"],
    ["verify", "--seed", "\u0664\u0662"],
    ["beta", "--perm", "\u0662\u0661"],
])
def test_non_ascii_integers_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite", ["beta", "all"])
def test_verify_n_outside_condensation_exits_2(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "3",
                         "--max-n", "2")
    assert (code, out) == (2, "")
    assert "--n applies only to --suite condensation" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bn", "--method", "sum"])  # missing --n
    assert err.value.code == 2


def test_cached_parser_gives_the_output_of_a_fresh_one(capsys):
    commands = (("bn", "--n", "3", "--method", "product", "--json"),
                ("beta", "--perm", "3412"))

    def session(fresh):
        outputs = []
        for argv in (*commands, ("bn", "--method", "sum"), commands[0]):
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    cached = session(fresh=False)
    assert [code for code, _, _ in cached] == [0, 0, 2, 0]
    assert cached[3] == cached[0]
    assert cached == session(fresh=True)
    assert cli.build_parser() is cli.build_parser()


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "bn", "--n", "2", "--method", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "bn"
    assert payload["ok"] is True
    assert payload["inputs"]["n"] == 2
    assert [r["value"] for r in payload["results"]] == ["1 - q"] * 4


def test_json_beta(capsys):
    code, out, _ = run(capsys, "beta", "--perm", "4321", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [
        {"label": "l", "value": "6"}, {"label": "beta", "value": "10"}]


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "--suite", "condensation", "--n", "3",
                "--trials", "3", "--seed", "7")
    second = run(capsys, "verify", "--suite", "condensation", "--n", "3",
                 "--trials", "3", "--seed", "7")
    assert first == second


def test_bench_reports_degree(capsys):
    code, out, _ = run(capsys, "bench", "--method", "bdet-condense", "--n", "6")
    assert code == 0
    assert "degree: 35" in out           # C(7,3) = 35
    assert "seconds:" in out


def test_bench_permanent_small(capsys):
    code, out, _ = run(capsys, "bench", "--method", "permanent", "--n", "6")
    assert code == 0
    assert "agreement: checked against definition at n=5" in out


def test_bench_def_capped(capsys):
    code, _, err = run(capsys, "bench", "--method", "bdet-def", "--n", "12")
    assert code == 2
    assert "capped" in err


def test_bench_passes_a_raised_bound_to_the_route(capsys):
    code, _, err = run(capsys, "bench", "--method", "bdet-condense",
                       "--n", "6", "--max-n", "5")
    assert code == 2
    assert "capped" in err
    # n = 11 is above the permanent's default bound of 10; the raised bound
    # has to reach the route itself
    code, out, _ = run(capsys, "bench", "--method", "permanent",
                       "--n", "11", "--max-n", "11")
    assert code == 0
    assert "terms: 221" in out


def test_bdet_condense_bound_exits_2(tmp_path, capsys):
    from bigrassmannian.bdet import CONDENSE_BOUND
    n = CONDENSE_BOUND + 1
    path = tmp_path / "big.txt"
    path.write_text(f"n={n}\n" + "".join(" ; ".join(["1"] * n) + "\n"
                                         for _ in range(n)))
    code, _, err = run(capsys, "bdet", "--matrix", str(path),
                       "--method", "condense")
    assert code == 2
    assert "bound" in err


def test_verify_all_matches_golden_output(capsys):
    # every check of every suite, pinned byte for byte to a recorded run;
    # the file changes only when a check, its order or its text does
    golden = Path(__file__).parent / "data" / "verify_all_max5_seed5.json"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "5",
                       "--seed", "5", "--trials", "10", "--json")
    assert code == 0
    assert out.encode("ascii") == golden.read_bytes()


def test_method_choices_are_the_dispatch_tables():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    for command, table in (("bn", cli._BN_METHODS),
                           ("bdet", cli._BDET_METHODS),
                           ("bench", cli._BENCH_METHODS)):
        method = next(a for a in subcommands.choices[command]._actions
                      if a.dest == "method")
        assert method.choices is table


def test_bn_all_forwards_max_n_to_every_route(capsys):
    # the signed sum's own bound is 9, so only a forwarded bound stops n = 3
    code, _, err = run(capsys, "bn", "--n", "3", "--method", "all",
                       "--max-n", "2")
    assert code == 2
    assert "warning: bound raised to n=2" in err
    assert "signed sum above bound 2" in err


def test_bench_fails_when_the_reference_route_disagrees(capsys, monkeypatch):
    from bigrassmannian import bdet
    monkeypatch.setattr(bdet, "bdet_via_deformation",
                        lambda a, **bound: qpow(2))
    code, out, _ = run(capsys, "bench", "--method", "bdet-def", "--n", "3")
    assert code == 1
    assert out.startswith("FAIL: bdet-def disagrees with the deformation")


def test_bench_checks_agreement_at_n5_for_every_size(capsys, monkeypatch):
    from bigrassmannian import bdet
    sizes = []
    definition = bdet.bdet_definition

    def recorded(a, **bound):
        sizes.append(a.n)
        return definition(a, **bound)

    monkeypatch.setattr(bdet, "bdet_definition", recorded)
    for n in ("0", "1"):
        code, out, _ = run(capsys, "bench", "--method", "bdet-condense",
                           "--n", n)
        assert code == 0
        assert "agreement: checked against definition at n=5" in out
    assert sizes == [5, 5]


def test_bench_capped_names_the_route_bound(capsys):
    code, _, err = run(capsys, "bench", "--method", "bdet-def", "--n", "9")
    assert code == 2
    assert "bdet-def is capped: signed sum above bound 8" in err


def _matching_results(monkeypatch, tamper):
    from bigrassmannian import tournament
    matching = tournament.perfect_matching
    monkeypatch.setattr(tournament, "perfect_matching",
                        lambda n: tamper(n, matching(n)))
    return {desc: (ok, detail) for desc, ok, detail
            in checks.check_tournament(5, 1, random.Random(0))}


def test_matching_check_fails_on_a_repeated_pair(monkeypatch):
    # the right number of pairs, each with equal beta and odd length
    # difference, but covering only two tournaments
    results = _matching_results(monkeypatch,
                                lambda n, pairs: [pairs[0]] * len(pairs))
    assert results["perfect matching covers T_5 minus S_5"] == (
        False, "452 pairs, expected 452")
    assert results["perfect matching covers T_4 minus S_4"][0] is False
    assert all(ok for desc, (ok, _) in results.items()
               if not desc.startswith("perfect matching"))


def test_matching_check_fails_on_a_transitive_end(monkeypatch):
    from bigrassmannian.permstat import length
    from bigrassmannian.tournament import to_tournament
    # two permutations of equal beta and lengths of opposite parity pass
    # the per-pair test; as tournaments they are transitive
    u, w = next((u, w) for u in enumerate_sn(5) for w in enumerate_sn(5)
                if beta(u) == beta(w) and (length(u) - length(w)) % 2)

    def tamper(n, pairs):
        if n == 5:
            pairs[0] = (to_tournament(u), to_tournament(w))
        return pairs

    results = _matching_results(monkeypatch, tamper)
    assert results["perfect matching covers T_5 minus S_5"] == (
        False, "452 pairs, expected 452")
    assert results["perfect matching covers T_4 minus S_4"][0] is True
