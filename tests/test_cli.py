"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.io import load_csv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestGenerate:
    def test_generate_monotone_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["generate", str(out), "--kind", "monotone",
                     "--n", "50", "--dim", "2", "--seed", "1"])
        assert code == 0
        points = load_csv(out)
        assert points.n == 50 and points.dim == 2

    def test_generate_width_json(self, tmp_path):
        out = tmp_path / "data.json"
        code = main(["generate", str(out), "--kind", "width",
                     "--n", "40", "--width", "4"])
        assert code == 0
        from repro import dominance_width
        from repro.io import load_json

        assert dominance_width(load_json(out)) == 4

    def test_generate_entity(self, tmp_path):
        out = tmp_path / "pairs.csv"
        assert main(["generate", str(out), "--kind", "entity", "--n", "30"]) == 0
        assert load_csv(out).n == 30


class TestSolveCommands:
    @pytest.fixture
    def data_file(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["generate", str(out), "--kind", "threshold1d",
              "--n", "200", "--noise", "0.1", "--seed", "3"])
        return out

    def test_passive(self, data_file, capsys):
        assert main(["passive", str(data_file)]) == 0
        out = capsys.readouterr().out
        assert "optimal_weighted_error" in out

    def test_active(self, data_file, capsys):
        assert main(["active", str(data_file), "--epsilon", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "probes" in out and "ratio" in out

    def test_width(self, data_file, capsys):
        assert main(["width", str(data_file)]) == 0
        assert "width_w" in capsys.readouterr().out


class TestAuditCommand:
    def test_audit_passes_on_valid_data(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["generate", str(out), "--kind", "monotone", "--n", "80",
              "--noise", "0.1", "--seed", "5"])
        assert main(["audit", str(out)]) == 0
        output = capsys.readouterr().out
        assert "pass" in output
        assert "FAIL" not in output
        assert "matching lower bound" in output


class TestRepairCommand:
    def test_repair_reports_and_writes(self, tmp_path, capsys):
        src = tmp_path / "dirty.csv"
        dst = tmp_path / "clean.csv"
        main(["generate", str(src), "--kind", "monotone", "--n", "80",
              "--noise", "0.2", "--seed", "8"])
        assert main(["repair", str(src), str(dst)]) == 0
        out = capsys.readouterr().out
        assert "consistent_after" in out and "True" in out
        from repro.io import load_csv

        assert load_csv(dst).is_monotone_labeling()


class TestVizCommand:
    def test_renders_scatter(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["generate", str(out), "--kind", "width", "--n", "60",
              "--width", "3", "--seed", "6"])
        assert main(["viz", str(out)]) == 0
        output = capsys.readouterr().out
        assert "label 0/1" in output

    def test_renders_solved_region(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["generate", str(out), "--kind", "monotone", "--n", "60",
              "--dim", "2", "--seed", "6"])
        assert main(["viz", str(out), "--solve", "--width", "30",
                     "--height", "12"]) == 0
        output = capsys.readouterr().out
        assert "#" in output and "optimal weighted error" in output


class TestErrorHandling:
    def test_missing_input_exits_cleanly(self, tmp_path, capsys):
        code = main(["passive", str(tmp_path / "nope.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_missing_input_every_reading_command(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        for argv in (["passive", missing], ["active", missing],
                     ["width", missing], ["audit", missing],
                     ["repair", missing], ["viz", missing]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error:")

    def test_malformed_input_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,label\n1,2\n")
        assert main(["passive", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "expected columns" in captured.err


class TestMetricsFlags:
    @pytest.fixture
    def data_file(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["generate", str(out), "--kind", "width", "--n", "120",
              "--width", "3", "--seed", "2"])
        return out

    def test_metrics_prints_report(self, data_file, capsys):
        assert main(["passive", str(data_file), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "passive/min_cut" in out
        assert "flow.dinic_array.calls" in out

    def test_metrics_out_writes_json(self, data_file, tmp_path, capsys):
        import json

        metrics_file = tmp_path / "m.json"
        assert main(["active", str(data_file), "--epsilon", "0.8",
                     "--seed", "4", "--metrics-out", str(metrics_file)]) == 0
        doc = json.loads(metrics_file.read_text())
        assert doc["counters"]["oracle.probes"] > 0
        assert doc["gauges"]["active.chain_width"] == 3
        assert doc["gauges"]["active.recursion_depth"] >= 1
        assert "active/chain_decompose" in doc["spans"]
        # Probe count in the document equals the table's probe column.
        table = capsys.readouterr().out
        assert str(doc["counters"]["oracle.probes"]) in table

    def test_metrics_out_writes_csv(self, data_file, tmp_path):
        metrics_file = tmp_path / "m.csv"
        assert main(["width", str(data_file),
                     "--metrics-out", str(metrics_file)]) == 0
        text = metrics_file.read_text()
        assert text.startswith("kind,name,field,value")
        assert "gauge,poset.num_chains,value,3" in text

    def test_no_flags_no_metrics_output(self, data_file, capsys):
        assert main(["passive", str(data_file)]) == 0
        out = capsys.readouterr().out
        assert "flow.dinic" not in out


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "lowerbound" in out

    def test_run_figure1(self, capsys):
        assert main(["experiment", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "dominance width w" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2


class TestMalformedInputs:
    """User mistakes are one-line exit-2 errors, not tracebacks."""

    def test_missing_file_exits_2(self, capsys):
        assert main(["passive", "/no/such/file.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,label,weight\nfoo,0,1.0\n")
        assert main(["passive", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.csv" in err

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"dim": 2, "coords": [[0.0, 1.')
        assert main(["audit", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_binary_garbage_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "noise.json"
        bad.write_bytes(bytes(range(256)))
        assert main(["width", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestFuzzCommand:
    def test_small_clean_campaign(self, capsys):
        assert main(["fuzz", "--runs", "9", "--seed", "11",
                     "--size", "12"]) == 0
        out = capsys.readouterr().out
        assert "disagreements" in out and "ok" in out

    def test_family_restriction_and_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--runs", "2", "--seed", "4", "--size", "10",
                     "--family", "chain", "--corpus", str(corpus)]) == 0
        assert "disagreements" in capsys.readouterr().out

    def test_mutant_self_test_detects_and_exits_0(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--runs", "4", "--seed", "3", "--size", "24",
                     "--family", "duplicates", "--corpus", str(corpus),
                     "--mutant", "duplicate_edges_dropped"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert list(corpus.glob("repro-*.json"))

    def test_undetected_mutant_exits_1(self, capsys):
        # One antichain instance has no duplicate coordinates to drop, so
        # the self-test must report failure.
        assert main(["fuzz", "--runs", "1", "--seed", "0", "--size", "6",
                     "--family", "antichain",
                     "--mutant", "duplicate_edges_dropped"]) == 1
        assert "NOT detected" in capsys.readouterr().err

    def test_replay_clean_corpus_exits_0(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_family_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--family", "nope"])
