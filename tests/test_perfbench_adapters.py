"""The benchmark's adapters, `perfbench/adapters.py` (imported, never
changed), against the engines: what the image2d-b16 workload reports as
`state_bytes`, read through the adapter's own accessor."""

import importlib.util
import sys
from pathlib import Path

ADAPTERS = Path(__file__).resolve().parent.parent / "perfbench" / "adapters.py"


def _load_adapters():
    spec = importlib.util.spec_from_file_location("perfbench_adapters", ADAPTERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_image2d_b16_state_bytes_at_an_images_end():
    # 32x32, 3 blocks, C=8, the row pair, batch 16, where the benchmark reads
    # it: kh + 1 = 3 image rows and kh = 2 rows of blocks 1 and 2, (3 + 2 * 2
    # * 8) * 32 * 16 floats; nothing is written ahead and no pixel is queued
    image = _load_adapters().Image2d(32, 3, 8, True)
    state = image.init(16, 7)
    for _ in range(32 * 32):
        image.step(state)
    assert image.state_bytes(state) == 4 * (3 + 2 * 2 * 8) * 32 * 16 == 71680
