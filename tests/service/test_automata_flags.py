"""The automata observability surface: the ``--stats`` "tree automata:"
line, the daemon ``health`` automata block, and the runtime gauges — plus
the one engine configuration: no entry point takes an engine flag."""

import importlib

import pytest

from repro import obs
from repro.service.daemon import CheckService
from repro.workloads import APPEND


def test_tlp_check_stats_reports_automata_state(tmp_path, capsys):
    from repro.checker.cli import main

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    assert main([str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "tree automata:" in out and "compiled scope(s)" in out


def test_runtime_stats_lines_cover_automata():
    lines = obs.runtime_stats_lines()
    assert any(line.startswith("tree automata:") for line in lines)


def test_publish_runtime_gauges_exports_automaton_gauges():
    obs.METRICS.enable()
    try:
        from repro.core import SubtypeEngine
        from repro.workloads import paper_universe

        SubtypeEngine(paper_universe())  # ensure at least one scope compiled
        obs.publish_runtime_gauges()
        exposition = obs.prometheus_text()
        assert "tlp_subtype_automaton_states" in exposition
    finally:
        obs.METRICS.disable()


def test_daemon_health_embeds_automata_stats():
    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    health = service.handle({"op": "health"})["health"]
    automata = health["automata"]
    assert set(automata) >= {
        "scopes",
        "states",
        "transitions",
        "cache_entries",
        "attachments",
    }
    assert automata["scopes"] >= 1
    assert "enabled" not in automata


def test_daemon_runtime_gauges_include_automata():
    gauges = CheckService()._runtime_gauges()
    assert "subtype.automaton.scopes" in gauges


@pytest.mark.parametrize(
    "module",
    [
        "repro.checker.cli",
        "repro.service.batch",
        "repro.analysis.cli",
        "repro.service.daemon",
        "repro.service.aserver.server",
    ],
)
@pytest.mark.parametrize("flag", ["--no-intern", "--no-shared-memo", "--no-automata"])
def test_no_entry_point_takes_an_engine_flag(module, flag, capsys):
    main = importlib.import_module(module).main
    with pytest.raises(SystemExit) as exit_info:
        main([flag, "unread.tlp"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
