"""The one ceiling table, `tensor.CEILINGS`: one case per entry, and an audit
that no other module defines a ceiling."""

import ast
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from convgen import InvalidParameterError, NetworkSpec, StridedPlan, UnsupportedTopologyError
from convgen import bench, build_network, dilated, generate, image2d, strided
from convgen.tensor import CEILINGS
from test_bench import NETWORKS, _peak
from test_image2d import CEILING_SPEC, IMAGES

SRC = Path(__file__).resolve().parent.parent / "src" / "convgen"
DILATED = NetworkSpec("dilated", stacks=2, layers_per_stack=4, channels=3, seed=1)
STRIDED = NetworkSpec("strided", kernel_size=3, channels=3,
                      strides=("down3", "down2", "up2", "up3"))  # D = 6
SPECS = {"dilated": DILATED, "strided": STRIDED, **IMAGES}
net, engine_net = cache(build_network), cache(lambda family: NETWORKS[family]())


def _weights(spec) -> int:  # every kernel and bias float, a dilated head included
    n = net(spec)
    ws = [*(l.weights for l in getattr(n, "layers", ())), getattr(n, "head", None),
          *(w for b in getattr(n, "blocks", ()) for w in (b.vert, b.horiz, b.link, b.down, b.up)),
          getattr(n, "proj", None)]
    return sum(w.fused.size for w in ws if w is not None)


def _state(spec) -> int:  # what a cached state allocates, a strided one's D pending outputs too
    if spec.family == "image2d":
        s = image2d.image_incremental_init(net(spec), 1)
        return sum(rc.ring.size for rc in s.row_caches) + s.last.size + s.buf.size
    return (dilated.incremental_init(net(spec)).cached_values() if spec.family == "dilated"
            else net(spec)._program[0].size + 6)


def _naive(spec) -> int:  # what a naive state holds; for an image, the bound on its pass
    if spec.family == "image2d":
        return spec.sizes()["naive_floats"]
    if spec.family == "dilated":
        return sum(w.size for w in dilated.naive_init(net(spec)).windows)
    return strided.strided_naive_init(net(spec)).window.size


def _period(strides):  # plans are memoised: simulated afresh; an unbalanced one stays unsupported
    strided._simulate_plan.cache_clear()
    with pytest.raises(UnsupportedTopologyError):
        StridedPlan.from_spec(NetworkSpec("strided", strides=strides[:-1]))
    StridedPlan.from_spec(NetworkSpec("strided", strides=strides))


# (entry, case, () -> (size, the call[, what its refusal says[, other entries pinned]])):
# at a ceiling of `size` the call succeeds; one below (one above, for the one
# charge), it is refused.  For a memo the call fills it afresh and a third
# function gives its size: all that a fill makes at `size`, less one below.
CASES = [
    *((name, k, lambda s=s, size=size: (size(s), lambda: build_network(s)))
      for name, size, specs in (
          ("weight_floats", _weights, SPECS), ("state_floats", _state, SPECS),
          ("naive_floats", _naive, SPECS), ("schedule_steps", lambda s: net(s).period, IMAGES),
          ("scratch_floats", lambda s: s.sizes()["scratch_floats"], IMAGES))
      for k, s in specs.items()),
    ("ring_table", "dilated", lambda: (dilated._ring_rows(tuple(DILATED.dilations()[1:])).size,
                                       lambda: build_network(DILATED))),
    ("period", "plan", lambda: (6, lambda: _period(STRIDED.strides))),
    ("period", "strided", lambda: (6, lambda: build_network(STRIDED))),
    *(("batch_floats", f"{f}-{e}", lambda f=f, e=e: (3 * bench._floats(engine_net(f), e),
                                                      lambda: bench.init(engine_net(f), e, 3),
                                                      "state floats"))
      for f in NETWORKS for e in ("naive", "cached")),
    ("sequence_floats", "dilated-cached", lambda: (
        CEILINGS["sequence_floats"][0], lambda: bench.init(net(DILATED), "cached", 3),
        "state floats", {"batch_floats": 3 * bench._floats(net(DILATED), "cached")})),
    ("prime", "generate", lambda: (3, lambda: generate(net(DILATED), 1, prime=[0.5] * 3), "prime")),
    ("outputs", "generate", lambda: (12, lambda: generate(net(DILATED), 4, batch=3), "outputs")),
    ("timed_steps", "time_engine", lambda: (
        6, lambda: bench.time_engine(net(DILATED), "cached", 3, 2), "timed steps")),
    ("sweep_values", "--layers", lambda: (
        5, lambda: bench._parse_counts("--layers", "1..3,7,8"), "more than 4 values")),
    ("draw_memo", "index", lambda: (
        dilated._gather_index(*dilated._draw_layout(((5, 2, (3,), True),))).size,
        lambda: dilated.draw_uniform(np.random.default_rng(0), [(5, 2, (3,), True)]),
        lambda: sum(plan[2].size for plan in dilated._DRAWS.values()))),
    ("schedules", "widths", lambda: (
        4, lambda: [image2d._schedule(w, 2, False) for w in (1, 2, 3, 4)],
        lambda: len(image2d._SCHEDULES))),
    ("layouts", "image", lambda: (  # one layout per distinct group of one image
        len(set(image2d._schedule(6, 3, True)[0])), lambda: generate(net(CEILING_SPEC)),
        lambda: len(image2d._LAYOUTS))),
]
MEMOS = {"draw_memo": (dilated, "_DRAWS"), "schedules": (image2d, "_SCHEDULES"),
         "layouts": (image2d, "_LAYOUTS")}


@pytest.mark.parametrize("name", CEILINGS)
def test_each_ceiling_holds_exactly_at_its_size(monkeypatch, name):
    entry, cases = CEILINGS[name], [(k, make) for n, k, make in CASES if n == name]
    assert cases, f"no case for the {name!r} ceiling"
    for case, make in cases:
        monkeypatch.setitem(CEILINGS, name, entry)  # each case's size under the table's own
        size, call, *rest = make()
        for other, value in (rest[1] if len(rest) > 1 else {}).items():
            monkeypatch.setitem(CEILINGS, other, (value, CEILINGS[other][1]))
        for ceiling in (size, size + 1 if name == "sequence_floats" else size - 1):
            for module, memo in MEMOS.values():  # each filled afresh
                monkeypatch.setattr(module, memo, {})
            monkeypatch.setitem(CEILINGS, name, (ceiling, entry[1]))
            if name in MEMOS:  # all that a fill makes is kept at its size, less below it
                call()
                assert rest[0]() == size if ceiling == size else rest[0]() < size, case
            elif ceiling == size:
                call()
            else:
                with monkeypatch.context() as patch:
                    patch.setattr(np.random, "default_rng", lambda seed: pytest.fail(case))
                    peak, raised = _peak(call)
                assert isinstance(raised, InvalidParameterError), case
                assert (rest or ["too large"])[0] in str(raised), case
                assert peak < 64 * 1024 and not dilated._DRAWS, case  # refused before a draw


def test_only_the_table_defines_a_ceiling():
    # no module but tensor.py assigns a MAX_* name or a power-of-two literal at
    # module level, or gives a memo a literal size; tensor.py has one table
    def ceilings(tree):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                power = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                            for n in ast.walk(node.value or ast.Constant(0)))
                if power or any(n.startswith("MAX_") for n in names):
                    yield names
            for call in ast.walk(node):
                if isinstance(call, ast.keyword) and call.arg == "maxsize":
                    yield ["maxsize"]
    found = {p.name: list(ceilings(ast.parse(p.read_text()))) for p in sorted(SRC.glob("*.py"))}
    assert found.pop("tensor.py") == [["CEILINGS"]]
    assert not any(found.values()), found
