import heapq
import json
import multiprocessing
import os
from operator import itemgetter

import pytest

from conftest import call_bounded
from pairdom import generate, harness
from pairdom.characterizations import Verdict, hunt_c3free_counterexamples
from pairdom.cli import main
from pairdom.domination import GuardError, invariants
from pairdom.generate import girth_at_least, nonisomorphic_graphs, positioned_stream
from pairdom.graph import GraphError, build_graph, encode_graph6, format_edge_list
from pairdom.families import make_cycle, make_path
from pairdom.harness import (
    ALL_CHECK_IDS,
    CHECKS,
    RunConfig,
    SourceItem,
    _map_source,
    _shard,
    load_source,
    run,
    run_checks,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSources:
    def test_enum(self):
        assert len(list(load_source("enum:4"))) == 11
        assert len(list(load_source("enum:3:labeled"))) == 8

    def test_enum_is_generated_as_taken(self, monkeypatch):
        calls = []
        original = generate._augmenting_masks

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(generate, "_augmenting_masks", counting)
        items = load_source("enum:8")
        assert calls == []
        assert next(iter(items)).graph.n == 8
        assert calls

    def test_enum_guards(self):
        with pytest.raises(Exception):
            load_source("enum:10")
        with pytest.raises(Exception):
            load_source("enum:8:labeled")

    def test_family_spec(self):
        items = load_source("mK2:2")
        assert len(items) == 1 and items[0].graph.n == 4

    def test_graph6_file(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(
            encode_graph6(make_cycle(5)) + "\n" + encode_graph6(make_path(3)) + "\n"
        )
        items = load_source(str(p))
        assert len(items) == 2
        assert all(it.graph is not None for it in items)

    def test_graph6_file_with_bad_line(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(make_cycle(5)) + "\nDq\n")
        items = load_source(str(p))
        assert items[0].graph is not None
        assert items[1].graph is None and "2" in items[1].error

    def test_edge_list_file(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(format_edge_list(make_cycle(5)))
        items = load_source(str(p))
        assert len(items) == 1 and items[0].graph.edge_count == 5


class TestCommands:
    def test_invariants_json(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "C5")
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["gamma"] == 2 and rec["upper_gamma"] == 2
        assert rec["gamma_pr"] == 4 and rec["upper_gamma_pr"] == 4
        assert rec["witnesses"]["upper_gamma_pr"] == [0, 1, 2, 3]

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "star:t=2,d=1")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["family"] == "star:t=2,d=1"
        assert rec["cactus"] and not rec["bipartite"]

    def test_decide_modes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "decide", "C5", "--both")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["fastpath"]["equality_holds"] is True
        assert rec["brute"]["equality_holds"] is True
        assert rec["agree"] is True

        code, out, _ = run_cli(capsys, "decide", "C5", "--fastpath")
        rec = json.loads(out)["results"][0]
        assert "brute" not in rec and rec["fastpath"]["method"] == "c3-free-cactus"

        # Agreement is null unless both sides decided: no class applies to
        # K4, and K2 + K1 has an isolated vertex, so neither side decides.
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        k2_k1 = encode_graph6(build_graph(3, [(0, 1)]))
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(k4) + "\n" + k2_k1 + "\n")
        code, out, _ = run_cli(capsys, "decide", str(p), "--both")
        assert code == 0
        no_class, isolated = json.loads(out)["results"]
        assert no_class["fastpath"] is None
        assert no_class["brute"]["method"] == "brute-force"
        assert no_class["agree"] is None
        assert isolated == {"graph6": k2_k1, "fastpath": None, "brute": None,
                            "agree": None}

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
        code, _, err = run_cli(capsys, "verify", "enum:4", "--checks", "bogus")
        assert code == 2
        assert "bogus" in err

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

    def test_negative_enum_order_is_usage_error(self, capsys):
        for source in ("enum:-1", "enum:-3:labeled", "enum:abc", "c3free:-1",
                       "c3free:x", "c3free:", "enum:²", "c3free:²"):
            code, out, _ = run_cli(capsys, "verify", source)
            assert code == 2
            kind = source.split(":")[0]
            assert json.loads(out)["errors"] == [
                f"{kind} order must be an integer >= 0, got {source!r}"
            ]

    def test_unknown_enum_field_is_usage_error(self, capsys):
        for source in ("enum:3:bogus", "enum:3:labeled:x", "enum:3:"):
            code, out, _ = run_cli(capsys, "verify", source)
            assert code == 2
            assert json.loads(out)["errors"] == [
                f"unknown enum source {source!r}: expected enum:N or enum:N:labeled"
            ]
        code, out, _ = run_cli(capsys, "hunt", "c3free:3:labeled")
        assert code == 2
        assert json.loads(out)["errors"] == [
            "unknown c3free source 'c3free:3:labeled': expected c3free:N"
        ]

    def test_order_past_guard_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(generate, "_augmenting_masks", None)  # no work
        for source, guard in (("enum:10", 9), ("enum:8:labeled", 7),
                              ("c3free:12", 11)):
            code, out, err = run_cli(capsys, "hunt", source)
            assert (code, err) == (2, "")
            kind = source.split(":")[0]
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
        # C21 is past the paired-dominating guard: too large.
        graphs = [make_cycle(5), make_cycle(3), build_graph(3, [(0, 1)]),
                  make_cycle(21)]
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in graphs)
                     + "???garbage\n")
        code, out, _ = run_cli(capsys, "hunt", str(p))
        assert code == 0
        h = json.loads(out)["hunt"]
        assert h["skipped_by_reason"] == {
            "out_of_scope": 2, "too_large": 1, "unreadable": 1}
        assert (h["scanned"], h["skipped"], h["satisfier_count"]) == (5, 4, 1)

    @pytest.mark.parametrize("command", ["invariants", "decide", "verify"])
    def test_graph_too_large_is_skipped_not_fatal(self, capsys, tmp_path, command):
        # C22 is past the paired-dominating guard; the run must go on to C5.
        big, c5 = make_cycle(22), make_cycle(5)
        p = tmp_path / "graphs.g6"
        p.write_text(encode_graph6(big) + "\n" + encode_graph6(c5) + "\n")
        code, out, _ = run_cli(capsys, command, str(p))
        assert code == 0
        guard = "paired-dominating scan limited to n <= 20"
        if command == "verify":
            # C5 is neither bipartite nor of girth >= 6.
            off_class = {"equality-bipartite", "equality-girth6"}
            assert json.loads(out)["totals"] == {
                cid: {"scanned": 2, "holds": int(cid not in off_class),
                      "fails": 0, "na": int(cid in off_class), "skipped": 1}
                for cid in ALL_CHECK_IDS}
            verdicts = run_checks(big, ALL_CHECK_IDS)
            assert [(v.status, v.witness) for v in verdicts] == (
                [("skipped", {"skipped": guard})] * len(ALL_CHECK_IDS))
            assert verdicts[0].to_record() == {
                "check_id": ALL_CHECK_IDS[0], "graph6": encode_graph6(big),
                "holds": None, "witness": {"skipped": guard}}
            return
        first, rec = json.loads(out)["results"]
        _, alone, _ = run_cli(capsys, command, "C5")
        assert rec == json.loads(alone)["results"][0]
        if command == "invariants":
            assert first == {"graph6": encode_graph6(big), "n": 22, "skipped": guard}
            r = invariants(c5)
            assert [rec["gamma"], rec["upper_gamma"], rec["gamma_pr"],
                    rec["upper_gamma_pr"]] == [r.gamma, r.upper_gamma,
                                               r.gamma_pr, r.upper_gamma_pr]
        else:
            # The fast path needs no 2^n scan, so it still decides C22;
            # only the brute side is skipped.
            fast = {"equality_holds": False, "method": "girth-at-least-6"}
            # Nothing was compared, so agreement is unknown, not a failure.
            assert first == {"graph6": encode_graph6(big), "fastpath": fast,
                             "brute": {"skipped": guard}, "agree": None}
            assert rec["brute"]["equality_holds"] is True
            _, out, _ = run_cli(capsys, command, str(p), "--fastpath")
            assert json.loads(out)["results"][0]["fastpath"] == fast
            _, out, _ = run_cli(capsys, command, str(p), "--brute")
            assert json.loads(out)["results"][0] == {
                "graph6": encode_graph6(big), "brute": {"skipped": guard}}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "enum:4", "--jobs", jobs)
        assert code == 2 and out == ""
        assert "--jobs" in err

    def test_verify_failure_streams_before_next_graph(
        self, capsys, monkeypatch, tmp_path
    ):
        first = encode_graph6(make_cycle(5))
        p = tmp_path / "graphs.g6"
        p.write_text(first + "\n" + encode_graph6(make_path(3)) + "\n")
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

    def test_gen(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "union:K2*2+C5*1", "--format", "json")
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["n"] == 9 and len(rec["edges"]) == 7

    def test_gen_bad_spec(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "parrot")
        assert code == 2
        # a number that is not decimal digits names the spec
        for command in ("gen", "invariants"):
            for spec, what in (("union:K2*x", "multiplicity"),
                               ("union:K2*", "multiplicity"),
                               ("mK2:1_0", "multiplicity"),
                               ("mK2:+2", "multiplicity"),
                               ("mK2: 2", "multiplicity"),
                               ("star:t=1_0", "star parameters")):
                code, out, _ = run_cli(capsys, command, spec)
                assert code == 2
                assert json.loads(out)["errors"] == [f"bad {what} in {spec!r}"]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C5", "--format", "text")
        assert code == 0
        assert "gpr-at-most-2gamma: scanned=1" in out
        assert "elapsed_ms=" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "invariants", "C5", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"][0]["gamma"] == 2

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
        lines = [encode_graph6(g) for g in (make_cycle(5), make_path(4), make_cycle(6),
                                            make_path(6), make_cycle(7))]
        p.write_text("\n".join(lines) + "\n")
        code, out, _ = call_bounded(run_cli, capsys, "invariants", str(p),
                                    "--jobs", "2")
        assert code == 0
        got = [r["graph6"] for r in json.loads(out)["results"]]
        assert got == lines


class TestRunApi:
    def test_run_config_round_trip(self):
        report, code = run(RunConfig(command="verify", source="C3"))
        assert code == 0
        assert report.to_record()["totals"]["gpr-equals-n-minus-1"]["holds"] == 1


class TestStreaming:
    def test_no_pool_below_four_graphs(self, monkeypatch):
        class ProcessStarted(Exception):
            pass

        def get_context(method):
            raise ProcessStarted(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        three = [SourceItem(g) for g in (make_cycle(3), make_cycle(4), make_cycle(5))]
        unreadable = SourceItem(None, "line 4: bad")
        expect = [encode_graph6(it.graph) for it in three]
        assert list(_map_source(encode_graph6, three, 2)) == expect
        assert list(_map_source(encode_graph6, three + [unreadable], 2)) == (
            expect + [unreadable])
        # 1, 2, 3 and 2 graphs
        for source in ("enum:1", "enum:2", "c3free:3", "enum:2:labeled"):
            assert len(list(_map_source(encode_graph6, load_source(source), 2))) < 4
        # 4 graphs and more
        for source in ("enum:3", "c3free:4", "enum:3:labeled", "enum:8"):
            with pytest.raises(ProcessStarted, match="fork"):
                list(_map_source(encode_graph6, load_source(source), 2))
        with pytest.raises(ProcessStarted):
            list(_map_source(encode_graph6, three + three[:1], 2))

    @pytest.mark.parametrize("exc", [GraphError("bad graph"),
                                     ValueError("bad value"),
                                     GuardError("over budget")],
                             ids=["graph", "value", "guard"])
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
        assert {t.scanned for t in report.totals.values()} == {k}

    def test_worker_exit_ends_run_with_error(self, monkeypatch):
        order7 = nonisomorphic_graphs(7, min_n=7)
        victim = encode_graph6(order7[500])
        shard = order7[500].edge_count % 2
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
        other = sum(g.edge_count % 2 != shard for g in order7)
        scanned = {t.scanned for t in report.totals.values()}
        assert len(scanned) == 1 and other <= scanned.pop() < 500 + other
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_raised_here(self, monkeypatch):
        victim = encode_graph6(nonisomorphic_graphs(7, min_n=7)[500])
        original = harness._verify_worker

        def raises_on_victim(g, check_ids):
            if encode_graph6(g) == victim:
                raise ArithmeticError(f"no checks for {victim}")
            return original(g, check_ids)

        monkeypatch.setattr(harness, "_verify_worker", raises_on_victim)
        with pytest.raises(ArithmeticError, match=f"no checks for {victim}"):
            call_bounded(run, RunConfig("verify", "enum:7", jobs=2), timeout=60)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_shards_merge_into_the_serial_stream(self, tmp_path, jobs,
                                                 c3free_up_to_9):
        p = tmp_path / "graphs.g6"
        p.write_text("".join(encode_graph6(g) + "\n" for g in nonisomorphic_graphs(4))
                     + "Dq\n" + encode_graph6(make_cycle(5)) + "\n")

        def label(item):
            return item.error if item.graph is None else encode_graph6(item.graph)

        sources = [f"enum:{n}" for n in range(8)] + ["c3free:9", "enum:5:labeled",
                                                     str(p)]
        for source in sources:
            items = load_source(source)
            if source == "c3free:9":  # the serial stream, already generated
                items = [SourceItem(g) for g in c3free_up_to_9 if g.n == 9]
            shards = [list(_shard(load_source(source), (i, jobs)))
                      for i in range(jobs)]
            merged = heapq.merge(*shards, key=itemgetter(0))
            assert [label(it) for _, it in merged] == [label(it) for it in items]
            for i, shard in enumerate(shards):
                if source in sources[:9]:  # by edge count
                    assert all(it.graph.edge_count % jobs == i for _, it in shard)
                else:  # by line or pair mask
                    assert all(pos[0] % jobs == i for pos, _ in shard)
        girth5 = girth_at_least(5)
        shards = [list(positioned_stream(8, girth5, shard=(i, jobs)))
                  for i in range(jobs)]
        merged = heapq.merge(*shards, key=itemgetter(0))
        assert [encode_graph6(g) for _, g in merged] == [
            encode_graph6(g) for g in nonisomorphic_graphs(8, girth5)]
        for i, shard in enumerate(shards):
            assert all(g.edge_count % jobs == i for _, g in shard)
