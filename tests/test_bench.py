"""CLI-level tests: CSV schema, sweep shapes, speedup pairing, verify mode,
usage errors, and equivalence fault injection; and the `init` / `step` batch
protocol that every engine runs through."""

import contextlib
import copy
import csv
import io
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convgen import (
    ConvWeights,
    ImageSpec,
    InvalidParameterError,
    NetworkSpec,
    ShapeError,
    build_image_network,
    build_network,
    build_strided_network,
    generate,
)
from convgen import bench, dilated, strided
from convgen.bench import (
    CSV_COLUMNS,
    _sample_networks,
    check_golden_trace,
    compare,
    init,
    main,
    speedup_report,
    step,
    time_engine,
)
from convgen.dilated import DilatedNetwork
from convgen.tensor import CEILINGS


ROOT = Path(__file__).resolve().parent.parent


def test_module_runs_without_warnings():
    # `python -m convgen.bench` must not find convgen.bench imported by the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "convgen.bench", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_emits_schema_and_rows(capsys):
    code, out, err = run_cli(
        capsys,
        ["run", "--model", "dilated", "--layers", "1..2", "--stacks", "1",
         "--channels", "2", "--steps", "16", "--repeats", "2", "--mode", "both"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = parse_csv(out)
    assert len(rows) == 4  # 2 layer counts x 2 modes
    for row in rows:
        assert row["model"] == "dilated"
        assert row["mode"] in ("naive", "cached")
        assert float(row["wall_us_per_step"]) > 0
        assert int(row["macs_per_step"]) > 0
        assert float(row["max_abs_diff"]) <= 1e-5  # both mode carries the diff
    assert "speedup=" in err
    # the summary shows each engine's set-up: init and the first step
    assert len(re.findall(r"(naive|cached): median=\S+ mean=\S+ setup=\d+\.\dus", err)) == 4


def test_run_without_subcommand_token(capsys):
    code, out, _ = run_cli(
        capsys,
        ["--model", "dilated", "--layers", "2", "--stacks", "1", "--channels", "2",
         "--steps", "8", "--repeats", "1", "--mode", "cached"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["mode"] == "cached"
    assert rows[0]["max_abs_diff"] == ""  # single-engine rows have no diff


def test_run_macs_column_is_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", "dilated", "--layers", "3", "--stacks", "2", "--channels", "4",
         "--steps", "16", "--repeats", "2", "--mode", "cached"],
    )
    assert code == 0
    row = parse_csv(out)[0]
    net = build_network(NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=4, seed=0))
    want = sum(l.weights.out_channels * l.weights.in_channels * 2 for l in net.layers) + 4
    assert int(row["macs_per_step"]) == want


# macs_per_step of `run --layers 3 --channels 4 --image-size 8 --steps 16
# --repeats 2 --batch 1,2 --mode both`: naive b1, naive b2, cached b1, cached b2
GOLDEN_MACS = {
    "dilated": (356, 712, 172, 344),
    "strided": (192, 384, 24, 48),
    "image2d": (21760, 43520, 340, 680),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_MACS))
def test_run_op_counts_are_pinned(capsys, model):
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", model, "--layers", "3", "--channels", "4", "--image-size", "8",
         "--steps", "16", "--repeats", "2", "--batch", "1,2", "--mode", "both"],
    )
    assert code == 0
    rows = parse_csv(out)
    got = {(r["mode"], int(r["batch"])): int(r["macs_per_step"]) for r in rows}
    keys = [("naive", 1), ("naive", 2), ("cached", 1), ("cached", 2)]
    assert got == dict(zip(keys, GOLDEN_MACS[model]))
    for r in rows:
        diff = float(r["max_abs_diff"])
        assert diff <= 1e-5
        assert model == "image2d" or diff == 0.0


def test_run_depth_sweep_row_count(capsys):
    # the canonical depth sweep shape: 10 layer counts x 2 modes = 20 rows
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", "dilated", "--stacks", "2", "--layers", "1..10",
         "--channels", "1", "--steps", "4", "--repeats", "1", "--mode", "both", "--quick"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 20
    assert sorted({int(r["L"]) for r in rows}) == list(range(1, 11))


def test_run_image_batch_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", "image2d", "--layers", "2", "--channels", "2",
         "--image-size", "6", "--batch", "1,2", "--repeats", "1", "--mode", "both"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4  # 2 batches x 2 modes
    assert sorted({int(r["batch"]) for r in rows}) == [1, 2]
    assert all(int(r["steps"]) == 36 for r in rows)


def test_run_strided_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", "strided", "--channels", "2", "--steps", "16",
         "--repeats", "1", "--mode", "both"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert all(int(r["L"]) == 4 for r in rows)


def test_run_csv_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys,
        ["run", "--model", "dilated", "--layers", "1", "--stacks", "1", "--channels", "1",
         "--steps", "4", "--repeats", "1", "--mode", "cached", "--csv", str(target)],
    )
    assert code == 0
    rows = parse_csv(target.read_text())
    assert len(rows) == 1


def test_usage_errors_exit_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", "rnn"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["run", "--model", "dilated", "--layers", "3..x"])
    with pytest.raises(SystemExit):
        main(["run", "--model", "dilated", "--layers", "0"])
    with pytest.raises(SystemExit):
        main(["run", "--model", "dilated", "--batch", "0,2"])
    with pytest.raises(SystemExit):
        main(["run", "--model", "dilated", "--steps", "0"])
    with pytest.raises(SystemExit):
        main([])  # no --model


def test_layers_accepts_a_comma_list(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--model", "dilated", "--layers", "3,1..2,5", "--stacks", "1",
         "--channels", "1", "--steps", "4", "--repeats", "1", "--mode", "cached"],
    )
    assert code == 0
    assert [int(row["L"]) for row in parse_csv(out)] == [3, 1, 2, 5]


@pytest.mark.parametrize(
    "text",
    ["", ",", "3,,5", "3,", "x", "3.5", "2,a", "0", "1,0", "-1", "5..3", "2,5..3", "1..", "..4"],
)
def test_layers_rejects_bad_input(capsys, text):
    # --batch takes the same counts as --layers, so it refuses the same input
    for flag in ("--layers", "--batch"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--model", "dilated", flag, text])
        assert exc.value.code == 2
        assert f"error: bad {flag} {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--model", "image2d", "--seed", "-1"], 2),
        (["speedup", "{tmp}/missing.csv"], 2),
        (["run", "--model", "dilated", "--csv", "{tmp}/no/such/dir/x.csv"], 2),
        (["speedup", "{tmp}/no_schema.csv"], 2),
        (["speedup", "{tmp}/text_time.csv"], 2),
        (["speedup", "{tmp}/zero_time.csv"], 2),
        (["speedup", "{tmp}/nan_time.csv"], 2),
        (["run", "--model", "image2d", "--image-size", "0", "--csv", "{tmp}/out.csv"], 2),
        (["run", "--model", "dilated", "--channels", "0", "--csv", "{tmp}/out.csv"], 2),
        (["run", "--model", "strided", "--seed", "-1", "--csv", "{tmp}/out.csv"], 2),
        (["speedup", "{tmp}/not_utf8.csv"], 2),
    ],
)
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, capsys, argv, code):
    (tmp_path / "no_schema.csv").write_text("model,L\ndilated,3\n")
    (tmp_path / "not_utf8.csv").write_bytes(HEADER.encode() + b"\ndilated,4,2,1,naive,\xff\xfe\n")
    for name, cached_us in (("text", "fast"), ("zero", "0"), ("nan", "nan")):
        (tmp_path / f"{name}_time.csv").write_text(
            "\n".join([
                ",".join(CSV_COLUMNS),
                "dilated,4,2,1,naive,32,3,100.0,500,",
                f"dilated,4,2,1,cached,32,3,{cached_us},50,",
            ])
        )
    try:
        got = main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert "error:" in captured.err
    if argv[0] == "run":  # a bad spec writes no CSV, not even its header
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--layers", "30", "--quick", "--mode", "cached"],  # a 64 GiB ring
    ["--layers", "64", "--quick", "--mode", "cached"],  # past numpy's largest dimension
    ["--layers", "99999", "--quick"],  # the naive engine's windows of 2**99999 inputs
], ids=lambda argv: argv[1])
def test_unbuildable_dilated_network_is_an_error_line(argv):
    # refused when built, in closed form, before the engines allocate or recurse
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "convgen.bench", "run", "--model", "dilated", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "too large" in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# speedup report
# ---------------------------------------------------------------------------


HEADER = ",".join(CSV_COLUMNS)


def test_speedup_identical_times_is_one(capsys):
    rows = [
        HEADER,
        "dilated,4,2,1,naive,32,3,100.0,500,",
        "dilated,4,2,1,cached,32,3,100.0,50,",
    ]
    code = speedup_report(io.StringIO("\n".join(rows)))
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].endswith(",1.000")


def test_speedup_computes_ratio(capsys):
    rows = [
        HEADER,
        "dilated,4,2,1,naive,32,3,300.0,500,",
        "dilated,4,2,1,cached,32,3,100.0,50,",
        "dilated,6,2,1,naive,32,3,900.0,900,",
        "dilated,6,2,1,cached,32,3,100.0,60,",
    ]
    code = speedup_report(io.StringIO("\n".join(rows)))
    out = capsys.readouterr().out
    assert code == 0
    body = out.splitlines()[1:]
    assert body[0].endswith(",3.000")
    assert body[1].endswith(",9.000")


def test_speedup_missing_pair_errors(capsys):
    rows = [HEADER, "dilated,4,2,1,naive,32,3,300.0,500,"]
    code = speedup_report(io.StringIO("\n".join(rows)))
    captured = capsys.readouterr()
    assert code == 2
    assert "unmatched pair" in captured.err and "L=4" in captured.err


def test_speedup_empty_csv_errors(capsys):
    assert speedup_report(io.StringIO("")) == 2


def test_speedup_cli_from_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    target.write_text(
        "\n".join([HEADER, "dilated,4,2,1,naive,32,3,200.0,500,",
                   "dilated,4,2,1,cached,32,3,100.0,50,"]) + "\n"
    )
    code, out, _ = run_cli(capsys, ["speedup", str(target)])
    assert code == 0
    assert out.splitlines()[0] == "model,L,stacks,batch,naive_us,cached_us,speedup"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_quick_passes_and_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, ["verify", "--quick"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verify passed"
    assert all(line.startswith("check=") and "status=pass" in line for line in lines[:-1])
    assert len(lines) - 1 == 7  # one summary line per check
    assert elapsed < 60.0


def test_verify_samples_image_networks_at_one_four_and_eight_channels():
    # block 0's folded weights take the link as C one-channel taps, later
    # blocks' as one C-channel tap, and at C=1 the two coincide: every
    # shape and row-pair choice is drawn at each of the three channel counts
    nets = _sample_networks("image2d", 3, shapes=((8, 8, 3), (8, 7, 1)))
    drawn = {}
    for net in nets:
        s = net.spec
        drawn.setdefault((s.width, s.n_layers, s.row_pair), set()).add(s.channels)
    assert len(drawn) == 4 and all(c == {1, 4, 8} for c in drawn.values())


def test_verify_samples_image_networks_at_kh_one_two_and_three():
    # the quick sample of `verify`: every shape and row-pair choice is drawn
    # at kh 1, 2 and 3, and not always with the same channel count
    nets = _sample_networks("image2d", 3, shapes=((8, 8, 3), (8, 7, 3), (8, 8, 1)))
    drawn = {}
    for net in nets:
        s = net.spec
        drawn.setdefault((s.width, s.n_layers, s.row_pair), set()).add(s.kh)
    assert len(drawn) == 6 and all(kh == {1, 2, 3} for kh in drawn.values())
    assert {(net.spec.channels, net.spec.kh) for net in nets} == {
        (c, kh) for c in (1, 4, 8) for kh in (1, 2, 3)}


def test_verify_samples_odd_heights_without_the_row_pair():
    # `verify`'s image shapes include an odd height, which ends with a row
    # alone; the row pair needs an even height, so only even heights get it
    shapes = ((8, 8, 3), (8, 7, 3), (8, 8, 1), (7, 8, 3))
    nets = _sample_networks("image2d", 3, shapes=shapes)
    drawn = {(net.spec.height, net.spec.width, net.spec.n_layers, net.spec.row_pair)
             for net in nets}
    assert drawn == {(*shape, pair) for shape in shapes for pair in (False, True)} - {
        (7, 8, 3, True)}
    assert len(nets) == 3 * len(drawn)
    assert {net.spec.kh for net in nets if net.spec.height == 7} == {1, 2, 3}


def test_fault_injection_breaks_equivalence():
    # corrupting one cached-engine weight must blow the equivalence check
    spec = NetworkSpec("dilated", stacks=1, layers_per_stack=3, channels=2, seed=5)
    net = build_network(spec)
    corrupt_kernel = net.layers[1].weights.kernel.copy()
    corrupt_kernel[0, 0, 0] += 0.25
    bad_layer = type(net.layers[1])(
        ConvWeights(corrupt_kernel, net.layers[1].weights.bias), net.layers[1].dilation
    )
    layers = list(net.layers)
    layers[1] = bad_layer
    corrupted = DilatedNetwork(net.spec, tuple(layers), net.head)
    assert compare(net, net, 32) == 0.0
    assert compare(net, corrupted, 32) > 1e-5


@pytest.mark.parametrize(
    "prime",
    [("x",), 5, 0.5, None, [float("nan")], [1.0, float("inf")], [1e39], [[0.5, 0.25]],
     [[0.5], [0.25, 1.0]], [True, False], [1 + 2j], np.zeros((2, 1)), "05",
     range(CEILINGS["prime"][0] + 1)],
    ids=repr,
)
def test_prime_validation(prime):
    # a prime is a 1-D sequence of at most its ceiling's numbers, finite in float32
    net = build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=2, seed=1))
    with pytest.raises(InvalidParameterError):
        generate(net, 3, prime=prime)


def test_prime_accepts_sequences_of_real_numbers():
    net = build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=2, seed=1))
    want = generate(net, 3, prime=np.array([1.0, -0.5, 0.25], np.float32))
    for prime in ([1, -0.5, 0.25], (1.0, -0.5, 0.25), np.array([1.0, -0.5, 0.25])):
        assert np.array_equal(generate(net, 3, prime=prime), want)
    assert np.array_equal(generate(net, 3, prime=[]), generate(net, 3))


def test_golden_trace_check():
    ok, detail = check_golden_trace()
    assert ok, detail


def test_time_engine_reports_positive_and_exact_macs():
    net = build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=2, seed=1))
    res = time_engine(net, "cached", steps=8, repeats=2)
    assert res["median_us"] > 0 and res["mean_us"] > 0
    assert 0 < res["min_us"] <= res["median_us"]
    want = sum(l.weights.out_channels * l.weights.in_channels * 2 for l in net.layers) + 2
    assert res["macs_per_step"] == want


@pytest.mark.parametrize("network", [
    build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=2, seed=1)),
    build_strided_network(NetworkSpec("strided", channels=2, strides=("down2", "up2"), seed=1)),
    build_image_network(ImageSpec(4, 3, channels=2, n_layers=2, row_pair=True, seed=1)),
], ids=["dilated", "strided", "image2d"])
def test_time_engine_reports_per_position_percentiles(network):
    # p50 and p99 are taken over the steps, each counted as the median at
    # its position in the schedule period, as perfbench does
    res = time_engine(network, "cached", steps=None if network.spec.family == "image2d" else 8,
                      repeats=2)
    assert {"min_us", "median_us", "mean_us", "macs_per_step"} <= set(res)
    assert 0 < res["p50_us"] <= res["p99_us"]


@pytest.mark.parametrize("engine", ["naive", "cached"])
@pytest.mark.parametrize("network", [
    build_network(NetworkSpec("dilated", stacks=1, layers_per_stack=2, channels=2, seed=1)),
    build_strided_network(NetworkSpec("strided", channels=2, strides=("down2", "up2"), seed=1)),
    build_image_network(ImageSpec(4, 3, channels=2, n_layers=2, row_pair=True, seed=1)),
], ids=["dilated", "strided", "image2d"])
def test_time_engine_reports_setup(network, engine):
    # setup_us times init and the first step together, apart from the steps
    res = time_engine(network, engine, steps=4, repeats=1, batch=2)
    assert res["setup_us"] > 0


def test_step_percentiles_take_the_median_per_position():
    from convgen.bench import _step_percentiles

    # position 1 is slow in every period, and one position-0 step is an outlier
    step_us = np.array([1.0, 10.0, 1.0, 10.0, 100.0, 10.0, 1.0, 10.0])
    position = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    assert _step_percentiles(step_us, position) == {"p50_us": 1.0, "p99_us": 10.0}
    assert build_image_network(ImageSpec(4, 3, channels=2, row_pair=True)).period == 6
    assert build_image_network(ImageSpec(4, 3, channels=2)).period == 6  # rows in pairs


@pytest.mark.parametrize("row_pair", [False, True])
def test_period_is_the_compiled_image_schedule_period(row_pair):
    # time_engine groups image steps by their position in a row pair: `period`
    # is the pair's compiled steps, 2W, with or without the row pair
    from convgen.image2d import _schedule

    for width, layers in ((1, 1), (3, 2), (8, 3), (11, 3), (32, 3)):
        net = build_image_network(ImageSpec(4, width, channels=2, n_layers=layers,
                                            kw=min(3, width), h_kw=min(2, width),
                                            row_pair=row_pair))
        lead, lag = _schedule(width, layers, row_pair)[1][:2]
        assert net.period == len(lead) + len(lag) == 2 * width


# ---------------------------------------------------------------------------
# the batch protocol: init / step
# ---------------------------------------------------------------------------


NETWORKS = {
    "dilated": lambda: build_network(
        NetworkSpec("dilated", stacks=2, layers_per_stack=3, channels=3, seed=4)),
    # k > s windows, period 6
    "strided": lambda: build_strided_network(NetworkSpec(
        "strided", kernel_size=3, channels=3, strides=("down3", "up3", "down2", "up2"), seed=4)),
    "image2d": lambda: build_image_network(
        ImageSpec(4, 5, channels=3, n_layers=2, row_pair=True, seed=4)),
}
ENGINE_CASES = [(f, e) for f in NETWORKS for e in ("naive", "cached")]


@pytest.mark.parametrize("family", ["dilated", "strided"])
@pytest.mark.parametrize(
    "xs", [0.5, [0.5, 0.25], [0.5, 0.25, 1.0, 2.0], np.zeros((3, 1)), np.zeros((1, 3)),
           np.zeros(0), [[0.5], [0.25, 1.0], [0.0]], ["a", "b", "c"], "abc"],
    ids=repr,
)
def test_step_refuses_xs_that_is_not_one_input_per_sequence(family, xs):
    # never a silent truncation to the first len(xs) sequences, nor a broadcast
    net = NETWORKS[family]()
    state = init(net, batch=3)
    with pytest.raises(ShapeError):
        step(net, state, xs)
    assert state.counter.snapshot() == (0, 0)  # nothing was stepped
    assert np.array_equal(step(net, state), generate(net, 1, batch=3)[0])


@pytest.mark.parametrize("family, engine", [(f, e) for f in ("dilated", "strided")
                                             for e in ("naive", "cached")])
@pytest.mark.parametrize(
    "xs", [[np.nan], [np.inf], [-np.inf], [1e300], [True], np.array([False]), [1 + 2j]],
    ids=repr,
)
def test_step_refuses_xs_that_is_not_finite_real_numbers(family, engine, xs):
    # as a prime is refused: before any state or counter changes
    net = NETWORKS[family]()
    state = init(net, engine)
    with pytest.raises(InvalidParameterError):
        step(net, state, xs)
    assert state.counter.snapshot() == (0, 0)
    assert step(net, state).tobytes() == generate(net, 1, engine=engine)[0].tobytes()


ONE_STEPS = {  # the 1D per-sequence steps: (init, step)
    ("dilated", "naive"): (dilated.naive_init, dilated.naive_step),
    ("dilated", "cached"): (dilated.incremental_init, dilated.incremental_step),
    ("strided", "naive"): (strided.strided_naive_init, strided.strided_naive_step),
    ("strided", "cached"): (strided.strided_incremental_init, strided.strided_incremental_step),
}


@pytest.mark.parametrize("family, engine", ONE_STEPS)
@pytest.mark.parametrize("x", [None, "a", [1.0], np.zeros(2)], ids=repr)
def test_a_refused_step_leaves_its_state_as_it_was(family, engine, x):
    # refused with ShapeError before the state changes: the next valid steps
    # return, bit for bit, what a never-refused state returns
    start, advance = ONE_STEPS[family, engine]
    net = NETWORKS[family]()
    refused, clean = start(net), start(net)
    inputs = np.float32([0.25, -0.5, 0.125, 1.0, -0.75, 0.5, 0.0, 0.375, -0.25])
    for v in inputs[:4]:
        advance(net, refused, v)
        advance(net, clean, v)
    with pytest.raises(ShapeError):
        advance(net, refused, x)
    for v in inputs[4:]:
        assert advance(net, refused, v).tobytes() == advance(net, clean, v).tobytes()
    assert refused.counter.snapshot() == clean.counter.snapshot()


@pytest.mark.parametrize("x", [np.nan, -np.inf], ids=repr)
def test_a_naive_strided_step_refuses_what_its_pass_would(x):
    # the window's whole-sequence pass refuses a value not finite in float32,
    # so the step refuses it first, and its state stays as it was
    net = NETWORKS["strided"]()
    refused, clean = strided.strided_naive_init(net), strided.strided_naive_init(net)
    with pytest.raises(InvalidParameterError, match="finite"):
        strided.strided_naive_step(net, refused, x)
    for v in (0.25, -0.5, 0.125):
        assert (strided.strided_naive_step(net, refused, v).tobytes()
                == strided.strided_naive_step(net, clean, v).tobytes())


@pytest.mark.parametrize("engine", ["naive", "cached"])
@pytest.mark.parametrize("xs", [[0.5, 0.25], np.zeros(2, np.float32), [0.5]], ids=repr)
def test_image_step_takes_no_xs(engine, xs):
    net = NETWORKS["image2d"]()
    state = init(net, engine, batch=2)
    with pytest.raises(InvalidParameterError):
        step(net, state, xs)
    assert state.counter.snapshot() == (0, 0)


@pytest.mark.parametrize("engine", ["naive", "cached"])
def test_image_step_refuses_xs_at_the_end_before_it_restarts(engine):
    # the refusal comes before the restart: the finished image stays as it was
    net = NETWORKS["image2d"]()  # 4x5
    state = init(net, engine, batch=2)
    for _ in range(20):
        step(net, state)
    engine_state, counts = state.engine, state.counter.snapshot()
    with pytest.raises(InvalidParameterError):
        step(net, state, np.zeros(2))
    assert state.engine is engine_state
    assert state.t == 20 and state.counter.snapshot() == counts
    assert np.array_equal(step(net, state), generate(net, 1, engine=engine, batch=2)[0])
    assert state.t == 1 and state.engine is not engine_state


@pytest.mark.parametrize("family, engine", ENGINE_CASES)
def test_step_returns_a_fresh_array_per_step(family, engine):
    net = NETWORKS[family]()
    state = init(net, engine, batch=3)
    first = step(net, state)
    assert first.dtype == np.float32 and first.shape == (3,)
    kept = first.copy()
    second = step(net, state)
    assert not np.shares_memory(first, second)
    first[:] = 99.0  # the caller owns it: the next step does not read it
    assert np.array_equal(np.stack([kept, second, step(net, state)]),
                          generate(net, 3, engine=engine, batch=3))


@pytest.mark.parametrize("family", ["dilated", "strided"])
@pytest.mark.parametrize("engine", ["naive", "cached"])
def test_batch_columns_equal_single_runs_on_their_own_inputs(family, engine):
    # each of 3 sequences is forced through its own inputs, then fed back
    net = NETWORKS[family]()
    xs = np.random.default_rng(7).uniform(-1, 1, (15, 3)).astype(np.float32)
    state = init(net, engine, batch=3)
    got = np.stack([step(net, state, row) for row in xs] + [step(net, state) for _ in range(10)])
    for j in range(3):
        single = init(net, engine)
        want = [step(net, single, xs[i, j : j + 1]) for i in range(15)]
        want += [step(net, single) for _ in range(10)]
        assert np.array_equal(got[:, j], np.concatenate(want)), j
    assert len(set(got[-1].tolist())) == 3  # the sequences are distinct


@pytest.mark.parametrize("family, engine", ENGINE_CASES)
def test_forked_batch_continues_as_the_whole_run(family, engine):
    # fork mid-period (strided period 6) or mid-row (image width 5) by a
    # deep copy and by a pickle, and run past the image's end so that every
    # copy also restarts
    net = NETWORKS[family]()
    n, fork_at = 23, 2 * 5 + 3
    whole = init(net, engine, batch=2)
    want = np.stack([step(net, whole) for _ in range(n)])
    state = init(net, engine, batch=2)
    for _ in range(fork_at):
        step(net, state)
    states = {"state": state, "deepcopy": copy.deepcopy(state),
              "pickle": pickle.loads(pickle.dumps(state))}
    assert len({id(st.counter) for st in states.values()}) == 3
    outs = {name: [] for name in states}
    for _ in range(n - fork_at):
        for name, st in states.items():  # interleaved
            outs[name].append(step(net, st))
    for name, got in outs.items():
        assert np.array_equal(np.stack(got), want[fork_at:]), name
        assert states[name].counter.snapshot() == whole.counter.snapshot(), name


@pytest.mark.parametrize("family, period, length", [
    ("dilated", 1, None), ("strided", 6, None), ("image2d", 10, 20)])
@pytest.mark.parametrize("engine", ["naive", "cached"])
def test_network_forward_reproduces_a_generate_run(family, period, length, engine):
    # `forward` over the inputs a run fed itself gives the run's outputs:
    # bit for bit for 1D, within float32 noise for an image
    net = NETWORKS[family]()
    assert (net.period, net.length) == (period, length)
    ys = generate(net, 20, engine=engine, batch=3)
    if length is None:  # a 1D sequence reads 0.0, then its own outputs
        for j in range(3):
            inputs = np.concatenate([[0.0], ys[:-1, j]]).astype(np.float32)
            assert np.array_equal(net.forward(inputs), ys[:, j]), j
    else:  # an image's pixels are its own outputs, in raster order
        images = ys.T.reshape(1, 3, 4, 5).transpose(0, 2, 3, 1)
        pred = net.forward(images).reshape(20, 3)
        assert np.max(np.abs(pred.astype(np.float64) - ys)) <= 1e-5


# ---------------------------------------------------------------------------
# ceilings: what a batch, a run and a sweep may allocate
# ---------------------------------------------------------------------------


def _peak(fn, *args, **kwargs):
    """`fn`'s tracemalloc peak in bytes, and the exception it raised (None if none)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        raised = None
    except (ValueError, SystemExit) as exc:  # InvalidParameterError is a ValueError
        raised = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, raised


@pytest.mark.parametrize("family, engine", ENGINE_CASES)
def test_init_ceiling_is_the_batchs_state_floats(monkeypatch, family, engine):
    # at a ceiling equal to the batch's closed-form floats it starts; one below, it is refused
    net = NETWORKS[family]()
    floats = bench._floats(net, engine)
    assert floats >= 1
    monkeypatch.setitem(CEILINGS, "batch_floats", (3 * floats, CEILINGS["batch_floats"][1]))
    init(net, engine, 3)
    monkeypatch.setitem(CEILINGS, "batch_floats", (3 * floats - 1, CEILINGS["batch_floats"][1]))
    with pytest.raises(InvalidParameterError, match="state floats"):
        init(net, engine, 3)


@pytest.mark.parametrize("family, engine", ENGINE_CASES)
def test_state_floats_cover_a_batchs_states(family, engine):
    # the closed form is at least what the states hold: exactly the arrays an
    # image (its scratch aside) or cached dilated state allocates; for a lifted
    # sequence, with its objects, at most what tracemalloc sees of a warm batch of 8
    net = NETWORKS[family]()
    floats = bench._floats(net, engine)
    warm = 2**net.spec.layers_per_stack + 2 if family == "dilated" else 7
    state = init(net, engine, 8)
    for _ in range(warm):
        step(net, state)
    if family == "image2d":
        engine_state = state.engine
        arrays = ([engine_state.image] if engine == "naive" else
                  [rc.ring for rc in engine_state.row_caches] + [engine_state.last, engine_state.buf])
        held = sum(a.size for a in arrays) // 8
        assert held == net.spec.sizes()["state_floats"] if engine == "cached" else held <= floats
        assert held <= floats
        return
    if engine == "cached" and family == "dilated":
        assert floats == CEILINGS["sequence_floats"][0] + state.engine.states[0].cached_values()
    if engine == "naive" and family == "dilated":
        windows = state.engine.states[0].windows
        assert floats == CEILINGS["sequence_floats"][0] + sum(window.size for window in windows)

    def batch_of_8(held):  # kept in `held`, so the peak counts the whole batch's states
        held.append(init(net, engine, 8))
        for _ in range(warm):
            step(net, held[0])

    peak, _ = _peak(batch_of_8, [])
    assert peak <= 4 * 8 * floats


def test_generate_refuses_more_outputs_than_the_ceiling():
    net = NETWORKS["dilated"]()
    generate(net, 1)  # warm
    for n, batch in ((2**40, 1), (2**20, 2**10), (2**64 - 1, 2**64 - 1)):
        peak, raised = _peak(generate, net, n, batch=batch)
        assert isinstance(raised, InvalidParameterError) and "outputs" in str(raised)
        assert peak < 64 * 1024


def test_time_engine_refuses_more_timed_steps_than_the_ceiling():
    net = NETWORKS["dilated"]()
    for steps, repeats in ((2**20, 2), (2**64 - 1, 1), (1, 2**21)):
        peak, raised = _peak(time_engine, net, "cached", steps, repeats)
        assert isinstance(raised, InvalidParameterError) and "timed steps" in str(raised)
        assert peak < 64 * 1024


def test_sweep_counts_are_refused_before_a_range_is_expanded():
    limit = CEILINGS["sweep_values"][0]
    assert bench._parse_counts("--layers", f"1..{limit}") == list(range(1, limit + 1))
    for text in (f"1..{limit + 1}", "1..1000000000", f"1..{limit},7", f"1..{2**64}"):
        peak, raised = _peak(bench._parse_counts, "--layers", text)
        assert isinstance(raised, ValueError) and f"more than {limit} values" in str(raised)
        assert peak < 64 * 1024


@pytest.mark.parametrize("argv", [
    ["--model", "image2d", "--image-size", "1000000"],
    ["--model", "image2d", "--channels", "100000"],
    ["--model", "image2d", "--image-size", "1000", "--quick"],  # 3 million timed steps
    ["--model", "dilated", "--channels", "100000"],
    ["--model", "dilated", "--layers", "1..1000000000"],
    ["--model", "dilated", "--batch", "100000000", "--mode", "cached"],  # the states
    ["--model", "dilated", "--batch", "100000000", "--mode", "naive"],
    ["--model", "strided", "--batch", "1000000", "--mode", "both"],  # the outputs
    ["--model", "dilated", "--steps", "100000000", "--mode", "cached"],  # the timings
    ["--model", "image2d", "--batch", "100000", "--mode", "cached"],
], ids=lambda argv: "-".join(argv[1:4]))
def test_oversized_runs_are_one_error_line(capsys, argv):
    # refused while the sweep is built, before any output
    _peak(main, ["run", *argv])  # warm
    capsys.readouterr()
    peak, raised = _peak(main, ["run", *argv])
    assert isinstance(raised, SystemExit) and raised.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        captured.err.splitlines()[-1]]
    assert peak < 64 * 1024


def _fuzz_vectors(tmp: Path, rng: np.random.Generator, n: int) -> list:
    """n seeded argument vectors for `main`: a small valid run, speedup or
    verify, with one to three values replaced from pools of bad, huge,
    malformed, empty, non-UTF-8 and unwritable inputs."""
    (tmp / "empty.csv").write_text("")
    (tmp / "binary.csv").write_bytes(bytes(range(256)))
    (tmp / "not_csv.csv").write_text('{"model": "dilated", "L": [1, 2]}\n"unterminated\n')
    (tmp / "one_row.csv").write_text(HEADER + "\ndilated,1,1,1,naive,2,1,5.0,10,\n")
    (tmp / "good.csv").write_text(HEADER + "\ndilated,1,1,1,naive,2,1,5.0,10,\n"
                                  "dilated,1,1,1,cached,2,1,2.5,4,\n")
    ints = ["0", "-1", "1", "2", "3", str(2**31), str(2**63), str(2**64), "9" * 30, "1" * 5000,
            "1e3", "0x10", "1.5", "", " ", "x", "\udcff", "٣"]
    counts = ints + ["1..2", "2..1", "..", "1..", "..3", "1...3", "1..2..3", "1,,2", ",",
                     "1..1000000000", f"1..{2**64}", "0..3", "-1..2", "1,3", "3,1..2"]
    paths = [str(tmp / name) for name in ("empty.csv", "binary.csv", "not_csv.csv",
                                          "one_row.csv", "good.csv", "missing.csv", "")] + [
        str(tmp), str(tmp / "no" / "dir" / "x.csv"), str(tmp / "\udcff.csv"), "", "-"]
    pools = {"--layers": counts, "--batch": counts, "--stacks": ints, "--channels": ints,
             "--steps": ints, "--repeats": ints, "--seed": ints, "--image-size": ints,
             "--mode": ["naive", "cached", "both", "bogus", ""],
             "--model": ["dilated", "strided", "image2d", "bogus", "\udcff"],
             "--csv": paths[6:-1]}
    vectors = []
    for _ in range(n):
        command = rng.choice(["run", "run", "run", "speedup", "verify"])
        if command == "speedup":
            vectors.append(["speedup", str(rng.choice(paths[:-1]))] + ["x"] * (rng.random() < 0.1))
            continue
        if command == "verify":
            vectors.append(["verify", *rng.choice(["--bogus", "x", "\udcff", "--quick=1"],
                                                  int(rng.integers(1, 3)))])
            continue
        args = {"--model": str(rng.choice(["dilated", "strided", "image2d"])), "--layers": "1",
                "--stacks": "1", "--channels": "1", "--steps": "2", "--repeats": "1",
                "--image-size": "3", "--csv": str(tmp / "out.csv")}
        for flag in rng.choice(sorted(pools), int(rng.integers(1, 4)), replace=False):
            args[flag] = str(rng.choice(pools[flag]))
        argv = ["run", *(x for kv in args.items() for x in kv)]
        vectors.append(argv + ["--quick"] * bool(rng.integers(2)) + ["--bogus"] * (rng.random() < 0.05))
    return vectors


def test_cli_fuzz_exits_0_or_2_without_a_traceback(tmp_path):
    # every vector exits 0 or 2; an oversized one is refused before it allocates,
    # so the whole run stays within a small time and memory budget.  The streams
    # are StringIOs: a real stderr writes a non-UTF-8 argument's surrogate escaped
    vectors = _fuzz_vectors(tmp_path, np.random.default_rng(29), 120)
    codes = []
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        for argv in vectors:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 2), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
            codes.append(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 60
    assert peak < 16 * 2**20
    assert codes.count(0) >= 5 and codes.count(2) >= 60  # both kinds are exercised
