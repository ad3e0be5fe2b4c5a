"""CLI-level tests: CSV schema, sweep shapes, speedup pairing, verify mode,
usage errors, and equivalence fault injection; and the `init` / `step` batch
protocol that every engine runs through."""

import copy
import csv
import io
import os
import subprocess
import sys
import time
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
from convgen.bench import (
    CSV_COLUMNS,
    MAX_PRIME,
    check_golden_trace,
    compare,
    init,
    main,
    speedup_report,
    step,
    time_engine,
)
from convgen.dilated import DilatedNetwork


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
    "strided": (528, 1056, 24, 48),
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
        (["speedup", "{tmp}/no_schema.csv"], 1),
        (["speedup", "{tmp}/text_time.csv"], 1),
        (["speedup", "{tmp}/zero_time.csv"], 1),
        (["speedup", "{tmp}/nan_time.csv"], 1),
        (["run", "--model", "image2d", "--image-size", "0", "--csv", "{tmp}/out.csv"], 2),
        (["run", "--model", "dilated", "--channels", "0", "--csv", "{tmp}/out.csv"], 2),
        (["run", "--model", "strided", "--seed", "-1", "--csv", "{tmp}/out.csv"], 2),
    ],
)
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, capsys, argv, code):
    (tmp_path / "no_schema.csv").write_text("model,L\ndilated,3\n")
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
    assert code == 1
    assert "unmatched pair" in captured.err and "L=4" in captured.err


def test_speedup_empty_csv_errors(capsys):
    assert speedup_report(io.StringIO("")) == 1


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
     range(MAX_PRIME + 1)],
    ids=repr,
)
def test_prime_validation(prime):
    # a prime is a 1-D sequence of at most MAX_PRIME numbers finite in float32
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


@pytest.mark.parametrize("engine", ["naive", "cached"])
@pytest.mark.parametrize("xs", [[0.5, 0.25], np.zeros(2, np.float32), [0.5]], ids=repr)
def test_image_step_takes_no_xs(engine, xs):
    net = NETWORKS["image2d"]()
    state = init(net, engine, batch=2)
    with pytest.raises(InvalidParameterError):
        step(net, state, xs)
    assert state.counter.snapshot() == (0, 0)


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
    # fork mid-period (strided period 6) or mid-row (image width 5), and run
    # past the image's end so that both copies also restart
    net = NETWORKS[family]()
    n, fork_at = 23, 2 * 5 + 3
    whole = init(net, engine, batch=2)
    want = np.stack([step(net, whole) for _ in range(n)])
    state = init(net, engine, batch=2)
    for _ in range(fork_at):
        step(net, state)
    fork = copy.deepcopy(state)
    assert fork.counter is not state.counter
    outs = {"state": [], "fork": []}
    for _ in range(n - fork_at):
        for name, st in (("state", state), ("fork", fork)):  # interleaved
            outs[name].append(step(net, st))
    for name, got in outs.items():
        assert np.array_equal(np.stack(got), want[fork_at:]), name
    assert fork.counter.snapshot() == state.counter.snapshot() == whole.counter.snapshot()
