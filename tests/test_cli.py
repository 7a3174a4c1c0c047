import json

import pytest

from pairdom.characterizations import Verdict, hunt_c3free_counterexamples
from pairdom.cli import main
from pairdom.graph import encode_graph6, format_edge_list
from pairdom.families import make_cycle, make_path
from pairdom.harness import (
    ALL_CHECK_IDS,
    CHECKS,
    RunConfig,
    load_source,
    run,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSources:
    def test_enum(self):
        assert len(load_source("enum:4")) == 11
        assert len(load_source("enum:3:labeled")) == 8

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

    def test_decide_modes(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "C5", "--both")
        rec = json.loads(out)["results"][0]
        assert code == 0
        assert rec["fastpath"]["equality_holds"] is True
        assert rec["brute"]["equality_holds"] is True
        assert rec["agree"] is True

        code, out, _ = run_cli(capsys, "decide", "C5", "--fastpath")
        rec = json.loads(out)["results"][0]
        assert "brute" not in rec and rec["fastpath"]["method"] == "c3-free-cactus"

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

    def test_verify_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "enum:4", "--checks", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_bad_source_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "/no/such/file")
        assert code == 2
        assert json.loads(out)["errors"]

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
    def test_verify_results_independent_of_jobs(self, capsys):
        reports = []
        for jobs in ("1", "3"):
            code, out, _ = run_cli(
                capsys, "verify", "enum:5", "--jobs", jobs
            )
            assert code == 0
            rec = json.loads(out)
            rec["config"].pop("jobs")
            rec.pop("elapsed_ms")
            reports.append(rec)
        assert reports[0] == reports[1]

    def test_invariants_order_matches_input(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        lines = [encode_graph6(g) for g in (make_cycle(5), make_path(4), make_cycle(6))]
        p.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "invariants", str(p), "--jobs", "2")
        assert code == 0
        got = [r["graph6"] for r in json.loads(out)["results"]]
        assert got == lines


class TestRunApi:
    def test_run_config_round_trip(self):
        report, code = run(RunConfig(command="verify", source="C3"))
        assert code == 0
        assert report.to_record()["totals"]["gpr-equals-n-minus-1"]["holds"] == 1
