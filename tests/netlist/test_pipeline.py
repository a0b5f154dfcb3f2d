"""The shared parse -> transform -> extract -> analyze pipeline."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.errors import FormatError, NotSemiModularError
from repro.io import json_io
from repro.netlist import (
    analyze_network,
    analyze_source,
    corpus,
    corpus_names,
    corpus_path,
    detect_format,
    load_corpus,
    parse_source,
    pipeline,
    write_bench,
    write_verilog,
)

C17_TEXT = open(corpus_path("c17"), encoding="utf-8").read()


class TestDetectFormat:
    def test_by_extension(self):
        assert detect_format("", path="x.bench") == "bench"
        assert detect_format("", path="x.v") == "verilog"
        assert detect_format("", path="x.sv") == "verilog"
        assert detect_format("", path="x.json") == "json"

    def test_by_content(self):
        assert detect_format(C17_TEXT) == "bench"
        assert detect_format("module m (a); input a; endmodule") == "verilog"
        assert detect_format('{"kind": "logic-network"}') == "json"


class TestParseSource:
    def test_all_three_formats_agree(self):
        network = load_corpus("c17")
        via_bench = parse_source(write_bench(network), fmt="bench")
        via_verilog = parse_source(write_verilog(network), fmt="verilog")
        via_json = parse_source(json_io.dumps(network), fmt="json")
        assert via_bench == via_verilog == via_json

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError):
            parse_source(C17_TEXT, fmt="edif")

    def test_wrong_json_kind_rejected(self):
        from repro.circuits.library import oscillator_tsg

        with pytest.raises(FormatError):
            parse_source(json_io.dumps(oscillator_tsg()), fmt="json")


class TestLogicNetworkJson:
    def test_round_trip(self):
        network = load_corpus("rca8")
        again = json_io.loads(json_io.dumps(network))
        assert again == network

    def test_kind_tag(self):
        import json

        document = json.loads(json_io.dumps(load_corpus("c17")))
        assert document["kind"] == "logic-network"
        assert len(document["gates"]) == 6


class TestCorpus:
    def test_shipped_names(self):
        assert set(corpus_names()) >= {"c17", "rca8", "sreg16", "mult16"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            corpus_path("c9999")

    def test_generators_reproduce_shipped_files(self):
        from repro.netlist.corpus import GENERATORS

        for name, build in GENERATORS.items():
            assert build() == load_corpus(name), name


class TestAnalyze:
    def test_c17_cycle_time(self):
        graph, report = analyze_source(C17_TEXT, name="c17")
        assert report["cycle_time"] == 8
        assert report["extraction"] == "oracle"
        assert report["method"] == "timing"
        assert graph.num_events == report["graph"]["events"]
        assert report["critical_cycles"]

    def test_structural_and_oracle_agree(self):
        network = load_corpus("c17")
        _, via_oracle = analyze_network(network, extraction="oracle")
        _, via_structural = analyze_network(network, extraction="structural")
        assert via_oracle["cycle_time"] == via_structural["cycle_time"]

    def test_interval_delays_exact(self):
        _, report = analyze_network(
            load_corpus("c17"), delay=(2, 5), seed=3
        )
        assert isinstance(report["cycle_time"], (int, Fraction))

    def test_method_auto_switches_on_border_size(self):
        _, small = analyze_network(load_corpus("c17"))
        assert small["method"] == "timing"
        _, big = analyze_network(load_corpus("rca8"))
        assert big["method"] == "howard-ratio"

    def test_explicit_method_honoured(self):
        _, report = analyze_network(load_corpus("c17"), method="howard-ratio")
        assert report["method"] == "howard-ratio"
        assert report["cycle_time"] == 8

    def test_bad_method_rejected(self):
        with pytest.raises(FormatError):
            analyze_network(load_corpus("c17"), method="magic")

    def test_timings_reported(self):
        _, report = analyze_source(C17_TEXT)
        for key in ("parse_ms", "transform_ms", "extract_ms", "analyze_ms"):
            assert report["timings_ms"][key] >= 0


class TestAutoExtraction:
    """``extraction="auto"`` bounds the oracle by state count too."""

    def test_large_state_space_falls_back_to_structural(self):
        # Wrapped rca2 passes the signal limit but has 1,369,984
        # reachable configurations.
        network = corpus.ripple_carry_adder(2)
        _, auto = analyze_network(network)
        _, structural = analyze_network(network, extraction="structural")
        assert auto["wrapped"]["signals"] <= pipeline.AUTO_ORACLE_SIGNAL_LIMIT
        assert auto["extraction"] == "structural"
        assert auto["cycle_time"] == structural["cycle_time"]
        assert auto["critical_cycles"] == structural["critical_cycles"]

    @pytest.mark.parametrize(
        "circuit, width",
        [("rca", 1)] + [("sreg", width) for width in range(2, 9)],
    )
    def test_small_state_spaces_stay_on_the_oracle(self, circuit, width):
        factory = {"rca": corpus.ripple_carry_adder, "sreg": corpus.shift_register}
        _, report = analyze_network(factory[circuit](width))
        assert report["extraction"] == "oracle"

    def test_explicit_oracle_ignores_the_auto_budget(self, monkeypatch):
        monkeypatch.setattr(pipeline, "AUTO_ORACLE_STATE_LIMIT", 10)
        _, auto = analyze_network(load_corpus("c17"))
        _, oracle = analyze_network(load_corpus("c17"), extraction="oracle")
        assert auto["extraction"] == "structural"
        assert oracle["extraction"] == "oracle"
        assert auto["cycle_time"] == oracle["cycle_time"] == 8

    def test_violation_propagates_instead_of_falling_back(self, monkeypatch):
        def reject(netlist, **options):
            raise NotSemiModularError("race", state={}, signal="x")

        monkeypatch.setattr(pipeline, "extract_signal_graph", reject)
        with pytest.raises(NotSemiModularError):
            analyze_network(load_corpus("c17"))
