"""Tests for model I/O (JSON, PNML, DOT), visualization helpers and the CLI."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.cli import main
from repro.engine.query import find_deadlock
from repro.exceptions import BuildInterruptedError, NetDefinitionError
from repro.petri import coverability_graph, reachability_graph
from repro.petri.io import (
    dumps,
    load,
    load_pnml,
    loads,
    net_from_pnml,
    net_to_dot,
    net_to_pnml,
    parse_value,
    save,
    save_pnml,
)
from repro.protocols import go_back_n_net, simple_protocol_net, simple_protocol_symbolic
from repro.reachability import decision_graph, timed_reachability_graph
from repro.stochastic import GSPNAnalysis
from repro.symbolic import LinExpr, time_symbol
from repro.viz import (
    ComparisonRow,
    ExperimentReport,
    decision_to_dot,
    format_kv,
    format_table,
    indent,
    reachability_to_dot,
    save_decision_dot,
    save_reachability_dot,
    write_reports,
)


class TestJsonIo:
    def test_round_trip_preserves_structure_and_timing(self, paper_net):
        restored = loads(dumps(paper_net))
        assert restored.place_order == paper_net.place_order
        assert restored.transition_order == paper_net.transition_order
        assert restored.initial_marking == paper_net.initial_marking
        for name in paper_net.transition_order:
            assert restored.transition(name).firing_time == paper_net.transition(name).firing_time
            assert restored.transition(name).firing_frequency == paper_net.transition(name).firing_frequency

    def test_round_trip_preserves_behaviour(self, paper_net, paper_trg):
        restored = loads(dumps(paper_net))
        assert timed_reachability_graph(restored).state_count == paper_trg.state_count

    def test_symbolic_round_trip(self, symbolic_protocol):
        net, _constraints, symbols = symbolic_protocol
        restored = loads(dumps(net))
        assert restored.is_symbolic
        assert restored.transition("t3").enabling_time == LinExpr.from_symbol(symbols["E3"])

    def test_file_round_trip(self, tmp_path, paper_net):
        path = save(paper_net, tmp_path / "net.json")
        assert load(path).transition_order == paper_net.transition_order

    def test_parse_value_numbers_and_expressions(self):
        assert parse_value("106.7") == Fraction(1067, 10)
        assert parse_value("1067/10") == Fraction(1067, 10)
        assert parse_value(3) == 3
        expression = parse_value("E_t3 - F_t4 - 2*F_t6")
        assert expression.coefficient(time_symbol("F_t6")) == -2

    def test_parse_value_rejects_garbage(self):
        with pytest.raises(NetDefinitionError):
            parse_value("??")
        with pytest.raises(NetDefinitionError):
            parse_value("")

    def test_missing_field_rejected(self):
        with pytest.raises(NetDefinitionError):
            loads('{"name": "x", "places": []}')


class TestPnml:
    def test_round_trip(self, paper_net):
        restored = net_from_pnml(net_to_pnml(paper_net))
        assert set(restored.place_order) == set(paper_net.place_order)
        assert set(restored.transition_order) == set(paper_net.transition_order)
        assert restored.initial_marking == paper_net.initial_marking
        assert restored.transition("t4").firing_time == Fraction("106.7")
        assert restored.transition("t3").enabling_time == 1000
        assert timed_reachability_graph(restored).state_count == 18

    def test_file_round_trip(self, tmp_path, paper_net):
        path = save_pnml(paper_net, tmp_path / "net.pnml")
        assert load_pnml(path).initial_marking == paper_net.initial_marking

    def test_invalid_document_rejected(self):
        with pytest.raises(NetDefinitionError):
            net_from_pnml("<not-pnml/>")
        with pytest.raises(NetDefinitionError):
            net_from_pnml("garbage <<")


class TestDotExports:
    def test_net_dot_contains_every_node(self, paper_net):
        dot = net_to_dot(paper_net, include_descriptions=True)
        for name in list(paper_net.place_order) + list(paper_net.transition_order):
            assert f'"{name}"' in dot
        assert dot.startswith("digraph")

    def test_reachability_dot(self, paper_trg, tmp_path):
        dot = reachability_to_dot(paper_trg)
        assert dot.count("->") == paper_trg.edge_count
        assert "doublecircle" in dot  # decision nodes stand out
        path = save_reachability_dot(paper_trg, tmp_path / "trg.dot")
        assert path.read_text().startswith("digraph")

    def test_decision_dot(self, paper_decision, tmp_path):
        dot = decision_to_dot(paper_decision)
        assert dot.count("->") == paper_decision.edge_count
        path = save_decision_dot(paper_decision, tmp_path / "decision.dot")
        assert "a1" in path.read_text()

    def test_decision_dot_marks_folded_cycles(self):
        from repro.protocols import sliding_window_net

        graph = decision_graph(timed_reachability_graph(sliding_window_net(2)))
        dot = decision_to_dot(graph)
        # Folded cycles: dashed self-loops, synthetic anchors as plain circles.
        assert dot.count("style=dashed") == 2
        assert "cycle, d=10" in dot
        assert "shape=circle" in dot


class TestFoldedCycleTables:
    def test_format_folded_cycles_empty_for_classical_graphs(self, paper_decision):
        from repro.viz import format_decision_edges, format_folded_cycles

        assert format_folded_cycles(paper_decision) == ""
        # Without folded cycles the edge table keeps its classical five columns.
        assert "kind" not in format_decision_edges(paper_decision)

    def test_format_folded_cycles_rows(self):
        from repro.protocols import sliding_window_net
        from repro.viz import format_decision_edges, format_folded_cycles

        graph = decision_graph(timed_reachability_graph(sliding_window_net(2)))
        text = format_folded_cycles(graph)
        assert "time/traversal" in text
        assert "c1" in text and "c2" in text
        edges = format_decision_edges(graph)
        assert "kind" in edges and "(cycle)" in edges


class TestVizHelpers:
    def test_format_table_alignment(self):
        table = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")

    def test_format_kv_and_indent(self):
        block = format_kv([("key", 1), ("longer key", 2)])
        assert "key       " in block
        assert indent("x\ny", "> ") == "> x\n> y"

    def test_experiment_report_markdown(self, tmp_path):
        report = ExperimentReport("E1", "demo")
        report.add("states", 18, 18)
        report.add("delay", "120.2", "120.3", matches=False, note="off by 0.1")
        report.note("free-form note")
        markdown = report.to_markdown()
        assert "| states | 18 | 18 | yes |" in markdown
        assert not report.all_match
        assert "paper" in report.to_text()
        path = write_reports([report], tmp_path / "reports.md")
        assert path.read_text().startswith("### E1")

    def test_comparison_row_cells(self):
        row = ComparisonRow("q", "1", "2", False, "note")
        assert row.as_cells()[3] == "NO"


class TestCli:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        assert "simple-protocol" in capsys.readouterr().out

    def test_analyze_command(self, capsys):
        assert main(["analyze", "--model", "simple-protocol", "--transition", "t2"]) == 0
        output = capsys.readouterr().out
        assert "0.00285185" in output

    def test_reachability_command_with_table_and_dot(self, capsys, tmp_path):
        dot_path = tmp_path / "graph.dot"
        assert main(["reachability", "--table", "--dot", str(dot_path)]) == 0
        output = capsys.readouterr().out
        assert "states=18" in output
        assert dot_path.exists()

    def test_decision_command(self, capsys):
        assert main(["decision"]) == 0
        assert "1002" in capsys.readouterr().out

    def test_untimed_command(self, capsys):
        assert main(["untimed", "--model", "sliding-window"]) == 0
        output = capsys.readouterr().out
        assert "markings" in output
        assert "deadlock-free" in output

    def test_untimed_command_reports_unbounded(self, capsys):
        assert main(["untimed", "--model", "simple-protocol", "--max-states", "500"]) == 1
        assert "untimed reachability exceeded" in capsys.readouterr().out

    def test_untimed_command_batched_engine_with_stats(self, capsys):
        assert main(
            ["untimed", "--model", "sliding-window", "--engine", "batched", "--stats"]
        ) == 0
        output = capsys.readouterr().out
        assert "engine" in output and "batched" in output
        assert "build stats:" in output
        assert "states/s" in output
        assert "mean batch width" in output
        assert "dedup hit rate" in output

    def test_untimed_stats_not_recorded_for_reference_engine(self, capsys):
        assert main(
            ["untimed", "--model", "sliding-window", "--engine", "reference", "--stats"]
        ) == 0
        assert "build stats: not recorded by this engine" in capsys.readouterr().out

    def test_reachability_rejects_batched_engine(self, capsys):
        # The timed builders have no batched backend; argparse rejects the
        # value up front (exit code 2).
        with pytest.raises(SystemExit) as exit_info:
            main(["reachability", "--engine", "batched"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'batched'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["untimed", "reachability"])
    def test_parallel_engine_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--engine", "parallel"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    def test_reachability_max_states_reported(self, capsys):
        exit_code = main(["reachability", "--model", "selective-repeat", "--max-states", "5"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "cannot enumerate" in output

    def test_analyze_handles_folded_committed_cycles(self, capsys):
        # The lossless sliding window has decision-free cycles off the anchor
        # path; the generalized collapse folds them, so analysis succeeds with
        # the closed-form 1/10 ms⁻¹ per-slot throughput.
        assert main(["analyze", "--model", "sliding-window"]) == 0
        output = capsys.readouterr().out
        assert "cycle time: 10 ms" in output

    def test_decision_renders_folded_cycles(self, capsys):
        assert main(["decision", "--model", "sliding-window"]) == 0
        output = capsys.readouterr().out
        assert "folded committed cycles" in output
        assert "(cycle)" in output
        assert "kind" in output

    def test_decision_no_fold_reports_unsupported_collapse(self, capsys):
        # --no-fold recovers the strict paper-shaped collapse and its
        # rejection diagnosis naming every committed cycle.
        assert main(["decision", "--model", "sliding-window", "--no-fold"]) == 1
        assert "decision-free cycle" in capsys.readouterr().out

    def test_performance_command_on_cyclic_protocol(self, capsys):
        assert main(["performance", "--model", "sliding-window",
                     "--transition", "w0_ack_return"]) == 0
        output = capsys.readouterr().out
        assert "terminal classes: 2" in output
        assert "settling probability" in output
        assert "1/10" in output
        assert "cycle time: 10 ms" in output

    def test_performance_command_on_paper_protocol(self, capsys):
        assert main(["performance", "--transition", "t2"]) == 0
        output = capsys.readouterr().out
        assert "terminal classes: 1 (ergodic)" in output
        assert "1805/632922" in output

    def test_performance_command_rejects_zero_time_cycles(self, capsys, tmp_path):
        from repro.petri.io import jsonio
        from test_decision_collapse import zero_time_cycle_net

        path = tmp_path / "zero-cycle.json"
        path.write_text(jsonio.dumps(zero_time_cycle_net()), encoding="utf-8")
        assert main(["performance", "--file", str(path)]) == 1
        assert "zero per-traversal time" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--model", "token-ring", "--horizon", "500"]) == 0
        assert "transmit_0" in capsys.readouterr().out

    def test_export_json_to_file_and_back(self, tmp_path, capsys):
        target = tmp_path / "exported.json"
        assert main(["export", "--format", "json", "--output", str(target)]) == 0
        net = load(target)
        assert len(net.transitions) == 9
        assert main(["export", "--format", "pnml"]) == 0
        assert "<pnml" in capsys.readouterr().out

    def test_export_dot(self, capsys):
        assert main(["export", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_paper_command(self, capsys):
        assert main(["paper"]) == 0
        output = capsys.readouterr().out
        assert "exact match: True" in output
        assert "1002" in output

    def test_analyze_file_input(self, tmp_path, capsys):
        path = save(simple_protocol_net(), tmp_path / "model.json")
        assert main(["analyze", "--file", str(path), "--transition", "t2"]) == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--model", "no-such-model"])


def _go_back_n():
    return go_back_n_net(2, loss_probability=Fraction(1, 10))


def _summary(output: str) -> dict:
    """The ``key: value`` lines of a CLI summary block."""
    pairs = (line.split(":", 1) for line in output.splitlines() if ":" in line)
    return {key.strip(): value.strip() for key, value in pairs}


class TestCliResume:
    """``repro-tpn resume`` completes a checkpoint of every kind."""

    #: Every checkpoint kind, built through the API on go-back-n.
    BUILDS = {
        "untimed": lambda net, control: reachability_graph(net, control=control),
        "batched-untimed": lambda net, control: reachability_graph(
            net, engine="batched", control=control
        ),
        "coverability": lambda net, control: coverability_graph(net, control=control),
        "gspn": lambda net, control: GSPNAnalysis(
            net, engine="compiled", control=control
        )._explore(),
        "batched-gspn": lambda net, control: GSPNAnalysis(
            net, engine="batched", control=control
        )._explore(),
        "query": lambda net, control: find_deadlock(net, control=control),
    }

    @staticmethod
    def _interrupt(tmp_path, kind) -> str:
        from repro.engine.faults import SteppingClock
        from repro.engine.runtime import RunControl

        checkpoint_dir = str(tmp_path / "ckpt")
        control = RunControl(
            deadline=2.0, checkpoint_dir=checkpoint_dir, clock=SteppingClock()
        )
        with pytest.raises(BuildInterruptedError):
            TestCliResume.BUILDS[kind](_go_back_n(), control)
        return checkpoint_dir

    @staticmethod
    def _assert_cold_output(kind, output):
        if kind == "query":
            cold = find_deadlock(_go_back_n())
            assert not cold.found
            assert (
                f"answer: no (exhausted all {cold.states_explored} reachable markings)"
                in output
            )
            return
        summary = _summary(output)
        assert summary["kind"] == kind
        assert summary.get("states", summary.get("markings")) == "38"
        assert summary["edges"] == "82"

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_resume_prints_cold_result(self, tmp_path, capsys, kind):
        checkpoint_dir = self._interrupt(tmp_path, kind)
        assert main(["resume", checkpoint_dir]) == 0
        self._assert_cold_output(kind, capsys.readouterr().out)

    def test_deadline_resume_checkpoints_in_place(self, tmp_path, capsys, monkeypatch):
        # An expired `resume --deadline` must re-checkpoint into the
        # directory it came from, or every later resume redoes the same work.
        import repro.engine
        from repro.engine.faults import SteppingClock
        from repro.engine.runtime import Checkpoint, RunControl

        checkpoint_dir = self._interrupt(tmp_path, "untimed")
        cursor = Checkpoint.load(checkpoint_dir).cursor
        monkeypatch.setattr(
            repro.engine,
            "RunControl",
            lambda **options: RunControl(clock=SteppingClock(), **options),
        )
        for _ in range(3):
            assert main(["resume", checkpoint_dir, "--deadline", "2"]) == 2
            assert f"resume with: repro-tpn resume {checkpoint_dir}" in (
                capsys.readouterr().out
            )
            advanced = Checkpoint.load(checkpoint_dir).cursor
            assert advanced > cursor
            cursor = advanced
        monkeypatch.undo()
        assert main(["resume", checkpoint_dir]) == 0
        self._assert_cold_output("untimed", capsys.readouterr().out)
