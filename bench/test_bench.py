"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest bench
"""

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402
import run  # noqa: E402
from tracing import Patches, Tracer, covered, ratio, self_times, summarise  # noqa: E402

codec = run.load_codec()
from bch6351 import channel_sim, cli, decoder  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_child_union_within_parent():
    # span 0 is [0, 10]; children [1, 4] and [3, 6] overlap; [8, 12] sticks out.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert self_times(parent, start, end) == [10 - 7, 3 - 1, 3, 4, 1]


def test_span_tree_parents_requests_and_self_time():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle_fn():
        leaf()
        leaf()

    middle = tracer.wrap(middle_fn, "middle")
    top = tracer.wrap(lambda: middle(), "top")
    top()
    top()
    spans = tracer.spans()
    assert [spans["names"][n] for n in spans["name"]] == ["top", "middle", "leaf", "leaf"] * 2
    assert spans["parent"] == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert spans["request"] == [0, 0, 0, 0, 4, 4, 4, 4]
    # Clock ticks: top 0..7, middle 1..6, leaves 2..3 and 4..5.
    stats = summarise(tracer)
    assert stats["top"] == {"calls": 2, "total_s": 14.0, "self_s": 4.0}
    assert stats["middle"] == {"calls": 2, "total_s": 10.0, "self_s": 6.0}
    assert stats["leaf"] == {"calls": 4, "total_s": 4.0, "self_s": 4.0}


def test_wrapper_closes_span_and_skips_observer_when_call_raises():
    seen = []
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom", lambda t, args, result: seen.append(result))
    with pytest.raises(KeyError):
        wrapped()
    assert seen == [] and list(tracer.end) == [1.0]
    tracer.wrap(lambda x: x * 2, "ok", lambda t, args, result: seen.append((args, result)))(3)
    assert seen == [((3,), 6)] and tracer.parent[-1] == -1


def test_ratio_reports_value_with_its_base():
    assert ratio(3, 4) == {"value": 0.75, "numerator": 3, "base": 4}
    assert ratio(0, 0) == {"value": 0.0, "numerator": 0, "base": 0}


def test_patches_restore_originals_even_when_the_block_raises():
    module = types.SimpleNamespace(f=len, g=abs)
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            assert patches.replace(module, "f", lambda fn: "wrapped f")
            assert patches.replace(module, "g", lambda fn: "wrapped g")
            assert not patches.replace(module, "missing", lambda fn: "never")
            assert (module.f, module.g) == ("wrapped f", "wrapped g")
            raise RuntimeError
    assert (module.f, module.g) == (len, abs)
    assert not hasattr(module, "missing")


def _attributes():
    modules = {m: sys.modules[f"bch6351.{m}"]
               for m in ("cli", "decoder", "channel_sim", "reference_oracle")}
    sites = [site for sites in run.TRACE_POINTS.values() for site in sites]
    sites.append(("decoder", "gf_mul_table"))
    return {(m, a): getattr(modules[m], a) for m, a in sites}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CLI_FRAMES", 40)
    monkeypatch.setattr(run, "BER_FRAMES", 60)
    return str(tmp_path)


@pytest.mark.parametrize("workload", ["cli-w2", "ber-p1e-3", "ber-p1e-1"])
def test_traced_run_reports_every_per_layer_metric_and_restores(small, workload):
    before = _attributes()
    tally, rows, trace = run.traced(workload, 7, small)
    assert _attributes() == before
    assert tally.failed == 0 and tally.attempted > 0
    assert [name for name, *_ in rows] == list(run.per_layer_units())
    values = {name: value for name, value, *_ in rows}
    assert values["cli.main.calls"] == (3 if workload == "cli-w2" else 1)
    assert values["trace.spans"] == len(trace["spans"]["name"])
    if workload == "cli-w2":
        assert values["decoder.corrected"] == values["decoder.chien_search.calls"] == 40
        assert values["decoder.chien_useful_ratio"] == 1.0
        assert values["channel_sim.bernoulli_mask.calls"] == 0
    else:
        assert values["channel_sim.bernoulli_mask.calls"] == 60
        assert values["cli.parse_frame_file.calls"] == 0


def test_traced_run_restores_attributes_when_a_command_raises(small, monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(decoder, "chien_search", broken)
    before = _attributes()
    tally, _, _ = run.traced("cli-w2", 7, small)
    assert _attributes() == before
    assert tally.failed > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    assert refs.random_messages(5, 100) == refs.random_messages(5, 100)
    assert refs.random_messages(5, 100) != refs.random_messages(6, 100)
    assert all(m >> 51 == 0 for m in refs.random_messages(5, 100))
    built = []
    for name in ("first", "second"):
        work = tmp_path / name
        work.mkdir()
        _, main = run.WORKLOADS["cli-w2"](11, str(work), codec)
        built.append(((work / "main-msg.hex").read_bytes(),
                      [a for c in main.commands for a in c if not a.startswith(str(work))]))
    assert built[0] == built[1]
    run.WORKLOADS["cli-w2"](12, str(tmp_path / "first"), codec)
    assert (tmp_path / "first" / "main-msg.hex").read_bytes() != built[0][0]


def test_reference_generator_matches_the_codec_contract():
    for seed in (0, 1, 2**64 - 1):
        for p in (0.0, 1e-3, 0.5, 1.0):
            assert refs.bernoulli_mask(p, seed, 63) == channel_sim.bernoulli_mask(p, seed, 63)
        assert refs.random_messages(seed, 3)[2] == channel_sim.SplitMix64(
            channel_sim.substream_seed(seed, 2)).next_bits(51)


@pytest.mark.parametrize("p", [1e-3, 1e-1])
def test_ber_recomputation_matches_the_cli(p, tmp_path):
    out = tmp_path / "ber.csv"
    assert cli.main(["ber", "--p", str(p), "--frames", "300", "--seed", "9",
                     "--csv", str(out)]) == 0
    assert out.read_text() == refs.ber_csv(p, 300, 9, codec)


def test_antilog_text_matches_tables_command(capsys):
    assert cli.main(["tables"]) == 0
    assert capsys.readouterr().out == refs.antilog_text()


def test_cli_check_counts_failed_frames(small):
    _, job = run.WORKLOADS["cli-w2"](3, small, codec)
    tally = run.Tally()
    run.run_in_process(job, cli.main, tally)
    assert (tally.attempted, tally.failed) == (40, 0)
    decoded = job.commands[2][-1]
    lines = open(decoded).read().splitlines()
    lines[5] = "0" * 16
    with open(decoded, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert job.check([0, 0, 0]) == (40, 1)
    assert job.check([0, 0, 1]) == (40, 40)


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
