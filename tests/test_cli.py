import argparse
import dataclasses
import doctest
import heapq
import json
import multiprocessing
import os
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest

import oracles
from oracles import edge_list_text, path_graph
from conftest import call_bounded
from pairdom import characterizations, generate, harness
from pairdom.characterizations import Verdict, hunt_c3free_counterexamples
from pairdom.cli import build_parser, main
from pairdom.domination import GuardError, invariants
from pairdom.generate import girth_at_least, nonisomorphic_graphs, positioned_stream
from pairdom.graph import GraphError, build_graph, encode_graph6, parse_graph6
from pairdom.families import (classify, every_block_edge_or_cycle, make_cycle,
                              recognize_family)
from pairdom.harness import (
    ALL_CHECK_IDS,
    CHECKS,
    RunConfig,
    load_source,
    run,
    run_checks,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loaded_graphs(source):
    """The graphs of a source in source order, from its one shard of one,
    and the errors of its unreadable lines."""
    shards, _, errors = load_source(source)
    return [g for _, g in shards((0, 1))], errors


class TestSources:
    def test_enum(self):
        shards, bound, errors = load_source("enum:4")
        # the 11 classes of order 4 have the 4 classes of order 3 as
        # parents, bounded by the 2^C(3, 2) = 8 labelled graphs on 3 vertices
        assert len(list(shards((0, 1)))) == 11 and bound == 8 and errors == []

    def test_enum_is_generated_as_taken(self, monkeypatch):
        calls = []
        original = generate._augmenting_masks

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(generate, "_augmenting_masks", counting)
        shards, _, _ = load_source("enum:8")
        assert calls == []
        assert next(shards((0, 1)))[1].n == 8
        assert calls

    def test_enum_guards(self):
        with pytest.raises(GuardError, match=r"^enum order limited to N <= 9, got 'enum:10'$"):
            load_source("enum:10")
        with pytest.raises(GuardError,
                           match=r"^c3free order limited to N <= 11, got 'c3free:12'$"):
            load_source("c3free:12")
        with pytest.raises(ValueError, match="must be an integer") as info:
            load_source("enum:x")
        assert not isinstance(info.value, GuardError)

    def test_family_spec(self):
        graphs, errors = loaded_graphs("mK2:2")
        assert [g.n for g in graphs] == [4] and errors == []

    def test_graph6_file(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(
            encode_graph6(make_cycle(5)) + "\n" + encode_graph6(path_graph(3)) + "\n"
        )
        graphs, errors = loaded_graphs(str(p))
        assert [g.n for g in graphs] == [5, 3] and errors == []

    def test_graph6_file_with_bad_line(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(make_cycle(5)) + "\nDq\n")
        graphs, errors = loaded_graphs(str(p))
        assert [g.n for g in graphs] == [5]
        assert len(errors) == 1 and errors[0].startswith("line 2: ")

    def test_graph6_file_blank_lines_are_no_lines(self, tmp_path):
        # a blank line is neither a graph nor an unreadable line, and the
        # lines after it keep their numbers
        p = tmp_path / "graphs.g6"
        p.write_text("Dhc\n\n  \nBg\nDq\n")
        graphs, errors = loaded_graphs(str(p))
        assert [encode_graph6(g) for g in graphs] == ["Dhc", "Bg"]
        assert errors == ["line 5: graph6 payload has 1 bytes, expected 2 for n=5"]
        report, code = run(RunConfig("hunt", str(p)))
        assert (code, report.hunt["scanned"], report.hunt["skipped"]) == (0, 3, 1)

    def test_edge_list_file(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(edge_list_text(make_cycle(5)))
        graphs, errors = loaded_graphs(str(p))
        assert [g.edge_count for g in graphs] == [5] and errors == []

    # a non-ASCII digit (Arabic-Indic three), a sign, an underscore
    @pytest.mark.parametrize("number", ["\u0663", "+3", "1_0"])
    def test_edge_list_numbers_are_ascii_digits(self, capsys, tmp_path, number):
        # A bad number in the header or in an edge line loads no graph, and
        # fails as the same file with "x" in its place does.
        def outcome(text):
            p = tmp_path / "g.edges"
            p.write_text(text, encoding="utf-8")
            code, out, _ = run_cli(capsys, "invariants", str(p))
            rec = json.loads(out)
            return code, "results" in rec, len(rec.get("errors", []))

        for template in ("{} 1\n0 1\n", "3 {}\n0 1\n", "3 1\n0 {}\n"):
            got = outcome(template.format(number))
            assert got == outcome(template.format("x")), template
            assert got[1] is False


    @pytest.mark.parametrize("command", ["invariants", "verify", "hunt"])
    def test_edge_list_header_typo_is_input_error(self, capsys, tmp_path, command):
        # A graph6 line holds no whitespace, so a first line of two fields
        # makes the file an edge list, whose bad header ends the run.
        p = tmp_path / "g.edges"
        p.write_text("x 1\n0 1\n")
        code, out, _ = run_cli(capsys, command, str(p))
        rec = json.loads(out)
        assert code == 2
        assert rec["errors"] == ["bad edge-list header 'x 1'"]
        assert "results" not in rec and "hunt" not in rec


class TestCommands:
    def test_invariants_json(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "C5")
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["gamma"] == 2 and rec["upper_gamma"] == 2
        assert rec["gamma_pr"] == 4 and rec["upper_gamma_pr"] == 4
        assert rec["witnesses"]["upper_gamma_pr"] == [0, 1, 2, 3]

    def test_classify(self, capsys):
        # The class flags and family of the deleted classify command are
        # the first fields of the invariants record.
        code, out, _ = run_cli(capsys, "invariants", "star:t=2,d=1")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["family"] == "star:t=2,d=1"
        assert rec["cactus"] and not rec["bipartite"]

    def test_decide_modes(self, capsys, tmp_path):
        # The fast-path and brute-force sides of the deleted decide command
        # are the record's votes and equality; agree compares them.
        code, out, _ = run_cli(capsys, "invariants", "star:t=2,d=1")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["votes"] == {"unicyclic": True}
        assert (rec["equality"], rec["deficit"], rec["agree"]) == (True, 0, True)

        code, out, _ = run_cli(capsys, "invariants", "C5")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["votes"] == {"c3-free-cactus": True, "unicyclic": True}
        assert (rec["alpha"], rec["equality"], rec["agree"]) == (2, True, True)

        # Agreement is null unless both sides decided: no class applies to
        # K4, and K2 + K1 has an isolated vertex, so neither side decides.
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        k2_k1 = build_graph(3, [(0, 1)])
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(k4) + "\n" + encode_graph6(k2_k1) + "\n")
        code, out, _ = run_cli(capsys, "invariants", str(p))
        assert code == 0
        no_class, isolated = json.loads(out)["results"]
        assert (no_class["votes"], no_class["equality"], no_class["agree"]) == (
            {}, True, None)
        assert (isolated["votes"], isolated["equality"], isolated["agree"]) == (
            {}, None, None)

    @pytest.mark.parametrize("argv", [["classify", "C5"], ["decide", "C5"],
                                      ["decide", "C5", "--both"],
                                      ["invariants", "C5", "--fastpath"]])
    def test_folded_commands_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "usage:" in err

    def test_readme_command_lines_parse(self):
        # Every example of README's "Command line" block names a command
        # and options that the parser still takes.
        readme = Path(__file__).parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = [ln.split("#", 1)[0].split()
                 for ln in block.split("```", 1)[0].splitlines()]
        assert len(lines) >= 5
        parser = build_parser()
        for argv in lines:
            assert argv[0] == "pairdom"
            parser.parse_args(argv[1:])

    def test_readme_library_example_runs(self):
        # README's ">>>" example runs as a doctest, so the import path it
        # documents still holds.
        readme = Path(__file__).parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        head, _, rest = text.partition("```python\n")
        test = doctest.DocTestParser().get_doctest(
            rest.split("```", 1)[0], {}, "README.md", str(readme), head.count("\n") + 1)
        report = []
        failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
        assert attempted >= 4 and failed == 0, "".join(report)

    def test_verify_all_holds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "enum:4", "--checks", "all")
        assert code == 0
        report = json.loads(out)
        for cid in ALL_CHECK_IDS:
            assert report["totals"][cid]["fails"] == 0
            assert report["totals"][cid]["scanned"] == 11
        assert report["failures"] == []

    def test_verify_subset_of_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "enum:4", "--checks", "gpr-at-most-2gamma"
        )
        assert code == 0
        assert list(json.loads(out)["totals"]) == ["gpr-at-most-2gamma"]

    def test_verify_repeated_check_runs_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C5", "--checks",
                               "gpr-equals-n,gpr-equals-n", "--format", "text")
        assert code == 0
        assert "gpr-equals-n: scanned=1 holds=1 " in out

    def test_verify_unknown_check(self, capsys):
        # harness.run refuses it, with the message in the report
        code, out, err = run_cli(capsys, "verify", "enum:4", "--checks", "bogus")
        assert (code, err) == (2, "")
        assert json.loads(out)["errors"] == ["unknown checks: bogus"]

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_verify_empty_check_list_is_usage_error(self, capsys, checks):
        code, out, err = run_cli(capsys, "verify", "C5", "--checks", checks)
        assert code == 2
        assert out == ""
        assert f"--checks names no check: {checks!r}" in err

    def test_bad_source_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "/no/such/file")
        assert code == 2
        assert json.loads(out)["errors"]

    def test_negative_enum_order_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(generate, "_augmenting_masks", None)  # no work
        for source in ("enum:-1", "enum:-3:labeled", "enum:abc", "c3free:-1",
                       "c3free:x", "c3free:", "enum:²", "c3free:²",
                       "enum:\u0663", "c3free:\u0663",  # Arabic-Indic three
                       "enum:3:labeled", "enum:3:labeled:x", "enum:3:bogus",
                       "enum:3:", "c3free:3:labeled"):
            code, out, _ = run_cli(capsys, "verify", source)
            assert code == 2
            kind = source.split(":")[0]
            assert json.loads(out)["errors"] == [
                f"{kind} order must be an integer >= 0, got {source!r}"
            ]

    def test_order_past_guard_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(generate, "_augmenting_masks", None)  # no work
        for source, guard in (("enum:10", 9), ("c3free:12", 11)):
            code, out, err = run_cli(capsys, "hunt", source)
            assert (code, err) == (2, "")
            kind = source.split(":")[0]
            assert json.loads(out)["errors"] == [
                f"{kind} order limited to N <= {guard}, got {source!r}"
            ]

    def test_5000_digit_order_is_past_the_guard(self, monkeypatch, capsys):
        # int() refuses a run of more than 4,300 digits with its own error.
        monkeypatch.setattr(generate, "_augmenting_masks", None)  # no work
        for kind, guard in (("enum", 9), ("c3free", 11)):
            source = f"{kind}:{'9' * 5000}"
            code, out, err = run_cli(capsys, "hunt", source)
            assert (code, err) == (2, "")
            assert json.loads(out)["errors"] == [
                f"{kind} order limited to N <= {guard}, got {source!r}"
            ]

    def test_hunt_c3free_matches_hunt_enum(self, capsys):
        reports = {}
        for source in ("c3free:7", "enum:7"):
            code, out, _ = run_cli(capsys, "hunt", source)
            assert code == 0
            reports[source] = json.loads(out)["hunt"]
        for key in ("satisfiers", "exceptions", "non_cactus_satisfiers"):
            assert reports["c3free:7"][key] == reports["enum:7"][key]
        assert reports["c3free:7"]["satisfier_count"] == 1
        # the 38 triangle-free graphs of order 6, each plus an isolated vertex
        assert reports["c3free:7"]["skipped_by_reason"] == {
            "out_of_scope": 38, "too_large": 0, "unreadable": 0}

    def test_malformed_graph6_line_counts_skipped(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(make_cycle(5)) + "\n???garbage\n")
        code, out, _ = run_cli(
            capsys, "verify", str(p), "--checks", "gpr-at-most-2gamma"
        )
        assert code == 0
        t = json.loads(out)["totals"]["gpr-at-most-2gamma"]
        assert t["scanned"] == 2 and t["skipped"] == 1 and t["holds"] == 1

    def test_hunt_empty_and_c5(self, capsys):
        code, out, _ = run_cli(capsys, "hunt", "C5")
        assert code == 0
        h = json.loads(out)["hunt"]
        assert h["satisfier_count"] == 1 and h["exception_count"] == 0

        code, out, _ = run_cli(capsys, "hunt", "enum:5")
        assert code == 0
        assert json.loads(out)["hunt"]["exception_count"] == 0

    def test_hunt_skips_graph_too_large_to_scan(self, capsys, tmp_path):
        graphs = [make_cycle(25), make_cycle(5)]
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        code, out, _ = run_cli(capsys, "hunt", str(p))
        assert code == 0
        h = json.loads(out)["hunt"]
        assert h["skipped"] == 1 and h["satisfier_count"] == 1
        assert h == hunt_c3free_counterexamples(graphs).to_record()

    def test_hunt_skip_reasons(self, capsys, tmp_path):
        # K3 has a triangle and K2 + K1 an isolated vertex: out of scope.
        # C25 is past the exact scans' guard: too large.
        graphs = [make_cycle(5), make_cycle(3), build_graph(3, [(0, 1)]),
                  make_cycle(25)]
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in graphs)
                     + "???garbage\n")
        code, out, _ = run_cli(capsys, "hunt", str(p))
        assert code == 0
        h = json.loads(out)["hunt"]
        assert h["skipped_by_reason"] == {
            "out_of_scope": 2, "too_large": 1, "unreadable": 1}
        assert (h["scanned"], h["skipped"], h["satisfier_count"]) == (5, 4, 1)

    def test_orders_up_to_the_guard_are_scanned(self, capsys, tmp_path):
        # C22 and C24 lie within the one guard of the exact scans, so no
        # check skips them, the Γ-only ones included, and nor does the hunt.
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(make_cycle(n)) + "\n" for n in (22, 24)))
        code, out, _ = run_cli(capsys, "verify", str(p))
        assert code == 0
        totals = json.loads(out)["totals"]
        assert {cid: t["skipped"] for cid, t in totals.items()} == dict.fromkeys(
            ALL_CHECK_IDS, 0)
        for cid in ("gamma-ge-independence", "unicyclic-gamma-bound",
                    "gpr-at-most-2gamma"):
            assert totals[cid]["holds"] == 2, cid
        code, out, _ = run_cli(capsys, "hunt", str(p))
        assert code == 0
        h = json.loads(out)["hunt"]
        assert (h["scanned"], h["skipped"], h["satisfier_count"]) == (2, 0, 0)

    @pytest.mark.parametrize("part", ["invariants", "decide", "verify"])
    def test_graph_too_large_is_skipped_not_fatal(self, capsys, tmp_path, part):
        # C25 is past the exact scans' guard; the run must go on to C5.
        # "decide" checks the record's fast-path votes and brute-force
        # equality, "invariants" its flags and the four invariants.
        big, c5 = make_cycle(25), make_cycle(5)
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(big) + "\n" + encode_graph6(c5) + "\n")
        command = "verify" if part == "verify" else "invariants"
        code, out, _ = run_cli(capsys, command, str(p))
        assert code == 0
        guard = "exact scans limited to n <= 24"
        if command == "verify":
            # C5 is neither bipartite nor of girth >= 6. C25 is odd, so
            # equality-bipartite is na on it with no scan; every other
            # check is skipped with the one guard message.
            off_class = {"equality-bipartite", "equality-girth6"}
            assert json.loads(out)["totals"] == {
                cid: {"scanned": 2, "holds": int(cid not in off_class),
                      "fails": 0,
                      "na": int(cid in off_class) + (cid == "equality-bipartite"),
                      "skipped": int(cid != "equality-bipartite")}
                for cid in ALL_CHECK_IDS}
            verdicts = run_checks(big, ALL_CHECK_IDS)
            assert [(v.check_id, v.status, v.witness) for v in verdicts] == [
                (cid, "na", None) if cid == "equality-bipartite"
                else (cid, "skipped", {"skipped": guard}) for cid in ALL_CHECK_IDS]
            assert verdicts[0].to_record() == {
                "check_id": ALL_CHECK_IDS[0], "graph6": encode_graph6(big),
                "holds": None, "witness": {"skipped": guard}}
            return
        first, rec = json.loads(out)["results"]
        _, alone, _ = run_cli(capsys, command, "C5")
        assert rec == json.loads(alone)["results"][0]
        if part == "invariants":
            assert first == {
                "graph6": encode_graph6(big), "n": 25, "connected": True,
                "bipartite": False, "unicyclic": True, "cactus": True,
                "c3_free": True, "girth": 25, "family": None,
                "votes": first["votes"], "skipped": guard, "agree": None}
            r = invariants(c5)
            assert [rec["gamma"], rec["upper_gamma"], rec["gamma_pr"],
                    rec["upper_gamma_pr"]] == [r.gamma, r.upper_gamma,
                                               r.gamma_pr, r.upper_gamma_pr]
        else:
            # The fast path needs no 2^n scan, so it still votes on C25;
            # only the brute side is skipped. Nothing was compared, so
            # agreement is unknown, not a failure.
            assert first["votes"] == {"girth-at-least-6": False,
                                      "c3-free-cactus": False,
                                      "unicyclic": False}
            assert "equality" not in first
            assert (first["skipped"], first["agree"]) == (guard, None)
            assert rec["equality"] is True and rec["agree"] is True

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "enum:4", "--jobs", jobs)
        assert (code, err) == (2, "")
        assert json.loads(out)["errors"] == [f"--jobs must be 1 to 64, got {jobs}"]

    def test_verify_failure_streams_before_next_graph(
        self, capsys, monkeypatch, tmp_path
    ):
        first = encode_graph6(make_cycle(5))
        p = tmp_path / "graphs.g6"
        p.write_text(first + "\n" + encode_graph6(path_graph(3)) + "\n")
        stderr_at_second_graph = []

        def fails_on_first(facts):
            if facts.graph6 == first:
                return Verdict("gpr-at-most-2gamma", first, "fails", {})
            stderr_at_second_graph.append(capsys.readouterr().err)
            return Verdict("gpr-at-most-2gamma", facts.graph6, "holds")

        monkeypatch.setitem(CHECKS, "gpr-at-most-2gamma", fails_on_first)
        code = main(["verify", str(p), "--checks", "gpr-at-most-2gamma"])
        assert code == 1
        (err,) = stderr_at_second_graph
        assert json.loads(err) == {
            "check_id": "gpr-at-most-2gamma", "graph6": first,
            "holds": False, "witness": {}}

    def test_empty_graph_has_no_paired_domination(self, capsys):
        # K0, like a graph with an isolated vertex, is outside every check
        # that needs Γ_pr; only gamma-ge-independence applies to it, and
        # invariants gives its paired fields, equality and deficit as null.
        code, out, _ = run_cli(capsys, "verify", "enum:0")
        assert code == 0
        totals = json.loads(out)["totals"]
        assert {cid for cid, t in totals.items() if t["na"] == 0} == {
            "gamma-ge-independence"}
        code, out, _ = run_cli(capsys, "invariants", "enum:0")
        assert code == 0
        assert json.loads(out)["results"] == [{
            "graph6": "?", "n": 0, "connected": False, "bipartite": True,
            "unicyclic": False, "cactus": False, "c3_free": True,
            "girth": None, "family": None, "votes": {}, "alpha": 0,
            "gamma": 0, "upper_gamma": 0, "gamma_pr": None,
            "upper_gamma_pr": None,
            "witnesses": {"gamma": [], "upper_gamma": [],
                          "gamma_pr": None, "upper_gamma_pr": None},
            "equality": None, "deficit": None, "agree": None}]

    def test_gen(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "union:K2*2+C5*1", "--format", "json")
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["n"] == 9 and len(rec["edges"]) == 7

    def test_gen_bad_spec(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "parrot")
        assert code == 2
        # a number that is not ASCII decimal digits names the spec
        for command in ("gen", "invariants"):
            for spec, what in (("union:K2*x", "multiplicity"),
                               ("union:K2*", "multiplicity"),
                               ("union:K2*\u0663", "multiplicity"),
                               ("mK2:1_0", "multiplicity"),
                               ("mK2:+2", "multiplicity"),
                               ("mK2: 2", "multiplicity"),
                               ("mK2:\u0663", "multiplicity"),
                               ("star:t=1_0", "star parameters"),
                               ("star:t=\u0663", "star parameters")):
                code, out, _ = run_cli(capsys, command, spec)
                assert code == 2
                assert json.loads(out)["errors"] == [f"bad {what} in {spec!r}"]
            # so does a union of no component, mK2:0 included
            for spec in ("union:K2*0", "union:K2*0+C5*0", "mK2:0"):
                code, out, _ = run_cli(capsys, command, spec)
                assert code == 2
                assert json.loads(out)["errors"] == [f"no component in {spec!r}"]

    def test_gen_lists_each_graph_of_a_generated_source(self):
        graphs, _ = loaded_graphs("enum:5")
        report, code = run(RunConfig("gen", "enum:5"))
        assert code == 0
        assert report.results == [{"graph6": encode_graph6(g), "n": g.n,
                                   "edges": g.edges()} for g in graphs]

    def test_a_string_result_is_a_result(self, monkeypatch):
        # A worker may return any value: the map tags each entry with its
        # kind, so a string is a result, not the message of a broken stream.
        graphs, _ = loaded_graphs("enum:4")
        monkeypatch.setattr(harness, "_gen_worker", encode_graph6)
        reports = []
        for jobs in (1, 2):
            report, code = call_bounded(run, RunConfig("gen", "enum:4", jobs=jobs),
                                        timeout=60)
            assert code == 0
            rec = report.to_record()
            del rec["elapsed_ms"], rec["config"]["jobs"]
            reports.append(rec)
        assert reports[0] == reports[1]
        assert reports[0]["results"] == [encode_graph6(g) for g in graphs]
        assert len(graphs) == 11 and "errors" not in reports[0]

    def test_parser_has_one_subcommand_per_command(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(harness.COMMANDS)
        assert {name for name, p in sub.choices.items()
                if "--checks" in p._option_string_actions} == {"verify"}

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C5", "--format", "text")
        assert code == 0
        # C5 misses the bipartite and girth >= 6 hypotheses and holds the rest
        na = {"equality-bipartite", "equality-girth6"}
        *totals, elapsed = out.splitlines()
        assert totals == [f"{cid}: scanned=1 holds={int(cid not in na)} fails=0 "
                          f"na={int(cid in na)} skipped=0" for cid in ALL_CHECK_IDS]
        assert elapsed.startswith("elapsed_ms=")
        code, out, _ = run_cli(capsys, "verify", "C5")
        totals = json.loads(out)["totals"]
        assert list(totals) == list(ALL_CHECK_IDS)
        assert {tuple(t) for t in totals.values()} == {
            ("scanned", "holds", "fails", "na", "skipped")}

    def test_text_format_of_each_report_part(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)

        def text(*argv):
            code, out, err = run_cli(capsys, *argv, "--format", "text")
            *lines, elapsed = out.splitlines()
            assert elapsed.startswith("elapsed_ms=")
            return code, lines, err

        assert text("hunt", "c3free:6") == (0, [
            "hunt: scanned=38 skipped=14 satisfiers=1 exceptions=0",
            "satisfier ECO_ family=mK2:3 cactus=True"], "")
        _, out, _ = run_cli(capsys, "invariants", "C5")
        (rec,) = json.loads(out)["results"]
        assert text("invariants", "C5") == (0, [json.dumps(rec)], "")
        assert text("verify", "missing.g6") == (2, [
            "error: [Errno 2] No such file or directory: 'missing.g6'"], "")
        # an exception is a failure without a check id, printed once
        monkeypatch.setattr(characterizations, "_edges_and_5_cycles", lambda fam: False)
        assert text("hunt", "C5") == (1, [
            "FAIL - Dhc",
            "hunt: scanned=1 skipped=0 satisfiers=1 exceptions=1",
            "satisfier Dhc family=C5 cactus=True"],
            '{"graph6": "Dhc", "family": "C5", "expected_form": false, "cactus": true}\n')

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_hunt_exceptions_stream_to_stderr(self, capsys, monkeypatch, tmp_path,
                                              jobs):
        # With no family of the expected form, each satisfier is an
        # exception, and its record goes to stderr as one JSON line, in
        # file order; the forked workers inherit the patch.
        monkeypatch.setattr(characterizations, "_edges_and_5_cycles", lambda fam: False)
        p = tmp_path / "graphs.g6"
        p.write_text("Dhc\nA_\n")
        code, out, err = run_cli(capsys, "hunt", str(p), "--jobs", jobs)
        records = [{"graph6": "Dhc", "family": "C5", "expected_form": False,
                    "cactus": True},
                   {"graph6": "A_", "family": "mK2:1", "expected_form": False,
                    "cactus": True}]
        assert code == 1
        assert err.splitlines() == [json.dumps(rec) for rec in records]
        assert json.loads(out)["hunt"]["exceptions"] == records

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invariants_disagreement_streams_to_stderr(self, capsys, monkeypatch,
                                                       tmp_path, jobs):
        # Under the patch of test_disagreement_is_a_failure the votes on C6
        # split; C5's do not.
        table = characterizations.EQUALITY_CLASSES
        wrong = dataclasses.replace(table[0], expected=lambda fam: True)
        monkeypatch.setattr(characterizations, "EQUALITY_CLASSES", (wrong,) + table[1:])
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(make_cycle(6)) + "\n" + encode_graph6(make_cycle(5)) + "\n")
        code, out, err = run_cli(capsys, "invariants", str(p), "--jobs", jobs)
        c6, c5 = json.loads(out)["results"]
        assert (code, c6["agree"], c5["agree"]) == (1, False, True)
        assert err.splitlines() == [json.dumps(c6)]
        assert json.loads(out)["failures"] == [c6]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "invariants", "C5", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"][0]["gamma"] == 2

    def test_unopenable_output_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr("pairdom.cli.run", no_run)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "C5", "--output", str(target))
        assert (code, out) == (2, "")
        assert "cannot open --output" in err and str(target) in err

    @pytest.mark.parametrize("command", ["invariants", "verify", "hunt", "gen"])
    def test_output_naming_the_source_is_usage_error(self, capsys, tmp_path,
                                                     monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        text = encode_graph6(make_cycle(5)) + "\n" + encode_graph6(path_graph(4)) + "\n"
        Path("g.g6").write_text(text)
        code, out, err = run_cli(capsys, command, "g.g6",
                                 "--output", str(tmp_path / "g.g6"))
        assert (code, out) == (2, "")
        assert "--output names the source file 'g.g6'" in err
        assert Path("g.g6").read_text() == text

    def test_output_beside_a_missing_source(self, capsys, tmp_path, monkeypatch):
        # a source that is missing is not overwritten; the run reports it
        monkeypatch.chdir(tmp_path)
        assert not harness.overwrites_source(
            RunConfig("verify", "missing.g6", output="report.json"))
        code, out, _ = run_cli(capsys, "verify", "missing.g6", "--output", "report.json")
        assert (code, out) == (2, "")
        assert json.loads(Path("report.json").read_text())["errors"] == [
            "[Errno 2] No such file or directory: 'missing.g6'"]

    def test_usage_error(self, capsys):
        assert main(["frobnicate", "C5"]) == 2


class TestDeterminismAcrossJobs:
    def test_verify_results_independent_of_jobs(self, capsys, tmp_path):
        # Each worker generates its own shard of enum:7; the same graphs
        # read from a graph6 file, sharded by line, must give the same report.
        p = tmp_path / "enum7.g6"
        p.write_text("".join(encode_graph6(g) + "\n"
                             for g in nonisomorphic_graphs(7, min_n=7)))
        reports = []
        for source, jobs in (("enum:7", "1"), ("enum:7", "2"), ("enum:7", "3"),
                             (str(p), "2")):
            code, out, _ = call_bounded(run_cli, capsys, "verify", source,
                                        "--jobs", jobs)
            assert code == 0
            rec = json.loads(out)
            rec["config"].pop("jobs")
            rec["config"].pop("source")
            rec.pop("elapsed_ms")
            reports.append(rec)
        assert reports[0]["totals"]["gpr-at-most-2gamma"]["scanned"] == 1044
        assert all(rec == reports[0] for rec in reports)

    def test_invariants_order_matches_input(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        # five graphs, so that two worker processes share them
        lines = [encode_graph6(g) for g in (make_cycle(5), path_graph(4), make_cycle(6),
                                            path_graph(6), make_cycle(7))]
        p.write_text("\n".join(lines) + "\n")
        code, out, _ = call_bounded(run_cli, capsys, "invariants", str(p),
                                    "--jobs", "2")
        assert code == 0
        got = [r["graph6"] for r in json.loads(out)["results"]]
        assert got == lines


    def test_invariants_results_independent_of_jobs(self, capsys):
        results = []
        for jobs in ("1", "2"):
            code, out, _ = call_bounded(run_cli, capsys, "invariants", "enum:6",
                                        "--jobs", jobs)
            assert code == 0
            results.append(json.loads(out)["results"])
        assert len(results[0]) == 156
        assert all(set(RECORD_FIELDS) <= rec.keys() for rec in results[0])
        assert results[1] == results[0]


# Every field of a record within the guard, in order.
RECORD_FIELDS = ("graph6", "n", "connected", "bipartite", "unicyclic", "cactus",
                 "c3_free", "girth", "family", "votes", "alpha", "gamma",
                 "upper_gamma", "gamma_pr", "upper_gamma_pr", "witnesses",
                 "equality", "deficit", "agree")


class TestRecord:
    def test_fields_match_their_sources(self, capsys, tmp_path):
        # Flags and family come from the families module, α, the equality
        # and the deficit from the literal oracles. Each applicable class
        # votes the oracle's equality (the four characterizations are
        # theorems), so no vote splits and agree is true wherever both
        # sides decide; it is null on K4, where no class applies, and on
        # K2 + K1, where Γ_pr is undefined.
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        extra = [make_cycle(25), k4, build_graph(3, [(0, 1)]), make_cycle(5)]
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in extra))
        graphs = list(nonisomorphic_graphs(6, min_n=6)) + extra
        records = []
        for source in ("enum:6", str(p)):
            code, out, _ = run_cli(capsys, "invariants", source)
            assert code == 0
            records += json.loads(out)["results"]
        assert len(records) == len(graphs) == 160
        for g, rec in zip(graphs, records):
            flags = classify(g)
            fam = recognize_family(g)
            cactus = flags.c3_free and every_block_edge_or_cycle(g)
            applies = {"girth-at-least-6": flags.girth >= 6,
                       "c3-free-cactus": cactus,
                       "unicyclic": flags.unicyclic,
                       "bipartite": flags.connected and flags.bipartite}
            paired = g.n > 0 and all(g.adj[v].bit_count() for v in range(g.n))
            assert rec["graph6"] == encode_graph6(g)
            assert [rec[k] for k in ("connected", "bipartite", "unicyclic",
                                     "cactus", "c3_free")] == [
                flags.connected, flags.bipartite, flags.unicyclic,
                flags.cactus, flags.c3_free]
            assert rec["girth"] == (None if flags.girth == float("inf")
                                    else flags.girth)
            assert rec["family"] == fam
            if g.n > 24:
                assert list(rec) == list(RECORD_FIELDS[:10]) + ["skipped", "agree"]
                assert rec["skipped"] == "exact scans limited to n <= 24"
                # no family, so every applicable class votes a miss
                assert rec["votes"] == {m: False for m, a in applies.items() if a}
                assert rec["agree"] is None
                continue
            assert list(rec) == list(RECORD_FIELDS)
            assert rec["alpha"] == oracles.independence_number(g)
            upper_pr = oracles.upper_gamma_pr(g)
            equality = None if upper_pr is None else (
                upper_pr == 2 * oracles.upper_gamma(g))
            assert rec["equality"] == equality
            assert rec["deficit"] == (None if upper_pr is None
                                      else 2 * oracles.upper_gamma(g) - upper_pr)
            votes = {m: equality for m, a in applies.items() if a and paired}
            assert rec["votes"] == votes
            assert rec["agree"] == (None if not votes or equality is None else True)

    def test_deficit_of_connected_triangle_free_graphs(self, capsys):
        # The deficit 2Γ - Γ_pr over the connected triangle-free graphs of
        # order 3..7: deficit 2 on 1, 2, 1, 7 and 9 graphs, 0 only on C5.
        by_order = {}
        zero = []
        for n in range(3, 8):
            code, out, _ = run_cli(capsys, "invariants", f"c3free:{n}")
            assert code == 0
            records = json.loads(out)["results"]
            for rec in records:
                g = parse_graph6(rec["graph6"])
                upper_pr = oracles.upper_gamma_pr(g)
                assert rec["deficit"] == (None if upper_pr is None
                                          else 2 * oracles.upper_gamma(g) - upper_pr)
            connected = [r for r in records if r["connected"]]
            by_order[n] = Counter(r["deficit"] for r in connected)
            zero += [r["family"] for r in connected if r["deficit"] == 0]
        assert [by_order[n][2] for n in range(3, 8)] == [1, 2, 1, 7, 9]
        assert zero == ["C5"]
        assert by_order[5] == {0: 1, 2: 1, 4: 3, 6: 1}
        assert by_order[7] == {2: 9, 4: 30, 6: 13, 8: 6, 10: 1}


class TestRunApi:
    def test_run_config_round_trip(self):
        report, code = run(RunConfig(command="verify", source="C3"))
        assert code == 0
        assert report.to_record()["totals"]["gpr-equals-n-minus-1"]["holds"] == 1

    def test_unknown_command(self):
        report, code = run(RunConfig("bogus", "C5"))
        assert (code, report.errors) == (2, ["unknown command 'bogus'"])


class TestStreaming:
    def test_one_item_list_runs_in_process(self, monkeypatch, tmp_path):
        class ProcessStarted(Exception):
            pass

        def get_context(method):
            raise ProcessStarted(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        # A source of one graph, or of none, caps --jobs 2 at one job or
        # none, and so runs here.
        report, code = run(RunConfig("invariants", "C5", jobs=2))
        assert code == 0
        assert [r["graph6"] for r in report.results] == [encode_graph6(make_cycle(5))]
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        report, code = run(RunConfig("invariants", str(empty), jobs=2))
        assert code == 0 and report.results == [] and report.errors == []

    @pytest.mark.parametrize("command", ["verify", "hunt", "invariants", "gen"])
    def test_unreadable_lines_are_counted_alike_at_every_job_count(
            self, capsys, tmp_path, command):
        # The 2nd and the last line are unreadable. The shards split the
        # readable graphs, and the unreadable lines are counted once, as the
        # file is read, so every job count gives the same report.
        lines = [encode_graph6(g) for g in nonisomorphic_graphs(5)]
        lines[1:1] = ["Dq"]
        lines.append("!!")
        p = tmp_path / "graphs.g6"
        p.write_text("\n".join(lines) + "\n")
        outcomes = []
        for jobs in (1, 2, 3):
            code, out, err = run_cli(capsys, command, str(p), "--jobs", str(jobs))
            rec = json.loads(out)
            del rec["elapsed_ms"], rec["config"]["jobs"]
            outcomes.append((rec, err, code))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        rec, err, code = outcomes[0]
        assert (err, code) == ("", 0)
        assert [e.split(":")[0] for e in rec["errors"]] == ["line 2", f"line {len(lines)}"]
        if command == "verify":
            assert {t["skipped"] for t in rec["totals"].values()} == {2}
            assert {t["scanned"] for t in rec["totals"].values()} == {len(lines)}
        elif command == "hunt":
            assert rec["hunt"]["skipped_by_reason"]["unreadable"] == 2
        else:  # one record per readable line, in file order
            assert [r["graph6"] for r in rec["results"]] == lines[:1] + lines[2:-1]

    @staticmethod
    def graph6_file(tmp_path, graphs) -> str:
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        return str(p)

    @staticmethod
    def processes_started(monkeypatch) -> list:
        """The list to which each process a run starts from now on is added."""
        started = []
        get_context = multiprocessing.get_context

        class CountingContext:
            def __init__(self, method):
                self.ctx = get_context(method)

            def __getattr__(self, name):
                return getattr(self.ctx, name)

            def Process(self, *args, **kwargs):
                started.append(self.ctx.Process(*args, **kwargs))
                return started[-1]

        monkeypatch.setattr(multiprocessing, "get_context", CountingContext)
        return started

    @staticmethod
    def workers_started(monkeypatch, capsys, source, jobs):
        """How many worker processes ``verify`` of the source starts at
        ``--jobs jobs``; its output must be that of one job."""
        serial = run_cli(capsys, "verify", source, "--jobs", "1")
        started = TestStreaming.processes_started(monkeypatch)
        sharded = call_bounded(run_cli, capsys, "verify", source, "--jobs", str(jobs))

        def without_elapsed(out):
            rec = json.loads(out)
            rec.pop("elapsed_ms")
            rec["config"].pop("jobs")
            return rec

        assert sharded[0] == serial[0] == 0
        assert without_elapsed(sharded[1]) == without_elapsed(serial[1])
        assert sharded[2] == serial[2]
        return len(started)

    def test_list_source_gets_one_worker_per_item(self, monkeypatch, capsys, tmp_path):
        graphs = (make_cycle(5), path_graph(4), make_cycle(6), path_graph(6), make_cycle(7))
        source = self.graph6_file(tmp_path, graphs)
        assert self.workers_started(monkeypatch, capsys, source, 16) == 5

    def test_two_line_file_gets_two_workers(self, monkeypatch, capsys, tmp_path):
        source = self.graph6_file(tmp_path, (make_cycle(5), path_graph(4)))
        assert self.workers_started(monkeypatch, capsys, source, 2) == 2

    @pytest.mark.parametrize("jobs", ["65", "1000000"])
    def test_jobs_past_64_is_usage_error_before_any_process(
            self, monkeypatch, capsys, tmp_path, jobs):
        # Unbounded, the two lines would get two workers, never more.
        source = self.graph6_file(tmp_path, (make_cycle(5), path_graph(4)))
        started = self.processes_started(monkeypatch)
        code, out, err = call_bounded(run_cli, capsys, "verify", source, "--jobs", jobs)
        assert (code, err) == (2, "")
        assert json.loads(out)["errors"] == [f"--jobs must be 1 to 64, got {jobs}"]
        assert started == []

    @pytest.mark.parametrize("config, error", [
        (RunConfig("verify", "", checks=("bogus", "gpr-equals-n"), jobs=2),
         "unknown checks: bogus"),
        (RunConfig("bogus", "", jobs=2), "unknown command 'bogus'"),
        *((RunConfig("verify", "", jobs=jobs), f"--jobs must be 1 to 64, got {jobs}")
          for jobs in (0, -3, 65, 1000000)),
    ], ids=["checks", "command", "jobs0", "jobs-3", "jobs65", "jobs1000000"])
    def test_run_refuses_before_loading_or_forking(self, monkeypatch, tmp_path,
                                                   config, error):
        # The two lines would get two workers past the gate.
        source = self.graph6_file(tmp_path, (make_cycle(5), path_graph(4)))
        config = dataclasses.replace(config, source=source)
        loaded, load = [], harness.load_source
        monkeypatch.setattr(harness, "load_source",
                            lambda source: loaded.append(source) or load(source))
        started = self.processes_started(monkeypatch)
        report, code = call_bounded(run, config)
        assert (code, report.errors, report.failures) == (2, [error], [])
        assert loaded == [] and started == []

    @pytest.mark.parametrize("source, workers",
                             [("enum:1", 0), ("enum:2", 0), ("enum:3", 2)])
    def test_generated_source_gets_at_most_one_worker_per_parent(
            self, monkeypatch, capsys, source, workers):
        # order n has at most 2^C(n-1, 2) parents, 1, 1 and 2 here, and
        # a shard past them is empty
        assert self.workers_started(monkeypatch, capsys, source, 4) == workers

    @pytest.mark.parametrize("exc", [GraphError("bad graph"),
                                     ValueError("bad value"),
                                     GuardError("over budget"),
                                     TypeError("bad type")],
                             ids=["graph", "value", "guard", "type"])
    @pytest.mark.parametrize("jobs,k", [(1, 2), (1, 10), (1, 40), (2, 2), (2, 40)])
    def test_source_raising_partway_is_an_error(self, monkeypatch, exc, jobs, k):
        # The failure sits at global position k: every shard yields its
        # graphs before it, then raises, as a failure below the last level
        # would make it do.
        graphs = nonisomorphic_graphs(6, min_n=6)[:k]

        def failing_stream(n, predicate=None, min_n=0, shard=(0, 1)):
            index, count = shard
            for p in range(index, k, count):
                yield (6, 0, p), graphs[p]
            raise exc

        monkeypatch.setattr(harness, "positioned_stream", failing_stream)
        report, code = call_bounded(run, RunConfig("verify", "enum:6", jobs=jobs),
                                    timeout=60)
        assert code == 2
        assert report.errors == [str(exc)]
        assert {t["scanned"] for t in report.totals.values()} == {k}

    def test_worker_exit_ends_run_with_error(self, monkeypatch):
        order7 = list(positioned_stream(7, min_n=7))
        victim = encode_graph6(order7[500][1])
        shard = order7[500][0][1] % 2  # the victim's parent index mod 2
        original = harness._verify_worker

        def exits_on_victim(g, check_ids):
            if encode_graph6(g) == victim:
                os._exit(3)
            return original(g, check_ids)

        monkeypatch.setattr(harness, "_verify_worker", exits_on_victim)
        report, code = call_bounded(run, RunConfig("verify", "enum:7", jobs=2),
                                    timeout=60)
        assert code == 2
        assert report.errors == [
            f"worker for shard {shard} of 2 exited with code 3 before finishing"]
        # The other shard finished; the victim and what follows it are lost.
        other = sum(p % 2 != shard for (_, p, _), _ in order7)
        scanned = {t["scanned"] for t in report.totals.values()}
        assert len(scanned) == 1 and other <= scanned.pop() < 500 + other
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_a_failure_record(self, monkeypatch, capsys):
        # The graph is counted as skipped in every check, as an unreadable
        # line is, and the run goes on; no exception crosses the pipe.
        victim = encode_graph6(nonisomorphic_graphs(7, min_n=7)[500])
        original = harness._verify_worker

        def raises_on_victim(g, check_ids):
            if encode_graph6(g) == victim:
                raise ArithmeticError(f"no checks for {victim}")
            return original(g, check_ids)

        monkeypatch.setattr(harness, "_verify_worker", raises_on_victim)
        record = {"graph6": victim, "error": f"ArithmeticError: no checks for {victim}"}
        reports = []
        for jobs in (1, 2):
            report, code = call_bounded(run, RunConfig("verify", "enum:7", jobs=jobs),
                                        timeout=60)
            assert code == 1
            assert capsys.readouterr().err == json.dumps(record) + "\n"
            rec = report.to_record()
            del rec["elapsed_ms"], rec["config"]["jobs"]
            reports.append(rec)
        assert reports[0] == reports[1]
        assert reports[0]["failures"] == [record] and "errors" not in reports[0]
        assert {(t["scanned"], t["skipped"]) for t in reports[0]["totals"].values()} == {
            (1044, 1)}
        assert multiprocessing.active_children() == []

    def test_check_raising_is_the_graphs_error_record(self, monkeypatch, capsys,
                                                      tmp_path):
        # Only the guard makes a check skip a graph. Any other exception in
        # a check, a GraphError included, is the graph's error record.
        graphs = (make_cycle(5), path_graph(4))
        source = self.graph6_file(tmp_path, graphs)
        victim = encode_graph6(graphs[1])
        original = CHECKS["gpr-upper-bound"]

        def raises_on_victim(facts):
            if facts.graph6 == victim:
                raise GraphError("x")
            return original(facts)

        monkeypatch.setitem(CHECKS, "gpr-upper-bound", raises_on_victim)
        record = {"graph6": victim, "error": "GraphError: x"}
        reports = []
        for jobs in (1, 2):
            report, code = call_bounded(run, RunConfig("verify", source, jobs=jobs),
                                        timeout=60)
            assert code == 1
            assert capsys.readouterr().err == json.dumps(record) + "\n"
            rec = report.to_record()
            del rec["elapsed_ms"], rec["config"]["jobs"]
            reports.append(rec)
        assert reports[0] == reports[1]
        assert reports[0]["failures"] == [record]
        assert {(t["scanned"], t["skipped"]) for t in reports[0]["totals"].values()} == {
            (2, 1)}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command, worker", [
        ("verify", (harness, "_verify_worker")),
        ("hunt", (characterizations, "hunt_record")),
        ("invariants", (characterizations, "invariants_record")),
    ], ids=["verify", "hunt", "invariants"])
    def test_worker_raising_on_a_graph_is_a_failure_at_every_job_count(
            self, monkeypatch, capsys, tmp_path, command, worker):
        # The worker raises on the 2nd and 4th graph. Each one's error
        # record goes to stderr in source order, the run goes on and exits
        # 1, and the --output file holds the report.
        graphs = (make_cycle(5), path_graph(4), make_cycle(6), path_graph(5))
        source = self.graph6_file(tmp_path, graphs)
        victims = [encode_graph6(graphs[1]), encode_graph6(graphs[3])]
        module, name = worker
        original = getattr(module, name)

        def raises_on_victims(g, *args, **kwargs):
            if encode_graph6(g) in victims:
                raise ArithmeticError(f"bad {encode_graph6(g)}")
            return original(g, *args, **kwargs)

        monkeypatch.setattr(module, name, raises_on_victims)
        records = [{"graph6": v, "error": f"ArithmeticError: bad {v}"} for v in victims]
        reports = []
        for jobs in ("1", "2"):
            target = tmp_path / f"report{jobs}.json"
            code, out, err = call_bounded(run_cli, capsys, command, source,
                                          "--jobs", jobs, "--output", str(target))
            assert (code, out) == (1, "")
            assert err.splitlines() == [json.dumps(rec) for rec in records]
            rec = json.loads(target.read_text())
            del rec["elapsed_ms"], rec["config"]["jobs"], rec["config"]["output"]
            reports.append(rec)
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]
        rec = reports[0]
        assert rec["failures"] == records and "errors" not in rec
        if command == "verify":
            assert {(t["scanned"], t["skipped"], t["fails"])
                    for t in rec["totals"].values()} == {(4, 2, 0)}
        elif command == "hunt":
            assert (rec["hunt"]["scanned"], rec["hunt"]["skipped"]) == (4, 0)
        else:
            assert [r["graph6"] for r in rec["results"]] == [
                encode_graph6(graphs[0]), encode_graph6(graphs[2])]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_shards_merge_into_the_serial_stream(self, tmp_path, jobs,
                                                 c3free_up_to_9):
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in nonisomorphic_graphs(4))
                     + "Dq\n" + encode_graph6(make_cycle(5)) + "\n")
        edges = tmp_path / "g.edges"
        edges.write_text(edge_list_text(make_cycle(5)))

        generated = [f"enum:{n}" for n in range(8)] + ["c3free:9"]
        for source in generated + ["mK2:2", str(edges), str(p)]:
            shards, bound, _ = load_source(source)
            if source == "c3free:9":  # the serial stream, already generated
                graphs = [g for g in c3free_up_to_9 if g.n == 9]
            else:
                graphs = [g for _, g in shards((0, 1))]
            split = [list(shards((i, jobs))) for i in range(jobs)]
            merged = heapq.merge(*split, key=itemgetter(0))
            assert [encode_graph6(g) for _, g in merged] == [
                encode_graph6(g) for g in graphs]
            for i, shard in enumerate(split):
                if source in generated:  # by parent index
                    assert all(pos[1] % jobs == i for pos, _ in shard)
                else:  # every J-th readable graph
                    assert all(pos[0] % jobs == i for pos, _ in shard)
            if source not in generated:
                assert bound == len(graphs)
            if source in generated[1:5] or source == str(p):
                # no graph past the bound: enum:1 to enum:4 and the file
                assert list(shards((bound, bound + 1))) == []
        # Every order up to 10, positions and labels alike.
        girth5 = girth_at_least(5)
        shards = [list(positioned_stream(10, girth5, shard=(i, jobs)))
                  for i in range(jobs)]
        merged = heapq.merge(*shards, key=itemgetter(0))
        assert [(pos, encode_graph6(g)) for pos, g in merged] == [
            (pos, encode_graph6(g)) for pos, g in positioned_stream(10, girth5)]
        for i, shard in enumerate(shards):
            assert all(pos[1] % jobs == i for pos, _ in shard)
