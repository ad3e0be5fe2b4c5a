"""Every built weight, pinned bit for bit: a digest of each network's weights
for a fixed list of specs, recorded once and compared on every run, so a
change to how weights are drawn or laid out cannot move a single bit."""

import hashlib

import pytest

from convgen import ImageSpec, NetworkSpec, build_image_network, build_network

SPECS = {
    # dilated: mixed stacks, layers per stack and channels
    "dilated-1x1-c1": NetworkSpec("dilated", 1, 1, channels=1, seed=0),
    "dilated-1x3-c2": NetworkSpec("dilated", 1, 3, channels=2, seed=5),
    "dilated-3x2-c5": NetworkSpec("dilated", 3, 2, channels=5, seed=11),
    "dilated-2x8-c8": NetworkSpec("dilated", 2, 8, channels=8, seed=1),
    "dilated-2x10-c32": NetworkSpec("dilated", 2, 10, channels=32, seed=2),
    # strided: the hourglass and the named topologies of the strided tests
    "hourglass-k2-c32": NetworkSpec(
        "strided", channels=32, strides=("down2", "down2", "up2", "up2"), seed=3),
    "hourglass-k1-c4": NetworkSpec(
        "strided", kernel_size=1, channels=4, strides=("down2", "down2", "up2", "up2"), seed=4),
    "d2u2d3u3-k1": NetworkSpec(
        "strided", kernel_size=1, channels=2, strides=("down2", "up2", "down3", "up3"), seed=4),
    "d3u3d2u2-k3": NetworkSpec(
        "strided", kernel_size=3, channels=2, strides=("down3", "up3", "down2", "up2"), seed=4),
    "d4u4d3u3-k5": NetworkSpec(
        "strided", kernel_size=5, channels=2, strides=("down4", "up4", "down3", "up3"), seed=4),
    "d2d4u4u2-k2": NetworkSpec(
        "strided", kernel_size=2, channels=3, strides=("down2", "down4", "up4", "up2"), seed=7),
    # image2d, with and without the row pair
    "image-8x8-c4": ImageSpec(8, 8, channels=4, n_layers=2, seed=3),
    "image-8x8-c4-pair": ImageSpec(8, 8, channels=4, n_layers=2, row_pair=True, seed=3),
    "image-6x7-c3-k33": ImageSpec(6, 7, channels=3, n_layers=3, kh=3, kw=3, h_kw=3, seed=9),
    "image-32x32-c8-pair": ImageSpec(32, 32, channels=8, n_layers=3, row_pair=True, seed=0),
}

# sha256 of every weight of each network, recorded when the list was made
DIGESTS = {
    "dilated-1x1-c1": "15e9114782719a04898ad388e58a9c55b3ea363faa89eb72b3e9af024e470f1e",
    "dilated-1x3-c2": "2834bbf4720822c7f695a2c6529c2020674c3a386a1c7330390b081c84976b71",
    "dilated-3x2-c5": "e629b7e383c447ce8630e2823627eec3141026fc9759e0947aceb5cdc1eaec50",
    "dilated-2x8-c8": "395bd17dd637ab7abf84d39d04797e532afa823dfb13d8e2f850d44ca4d562ef",
    "dilated-2x10-c32": "f4f1f9cb68b2fe771783ce6d2803d3ee8c9bc4460daaaa91fb100b05c95ab7d0",
    "hourglass-k2-c32": "47b67f44776160b8b61bc5a94747f4f329d084bc7f604591d1cf56f6169ed8ca",
    "hourglass-k1-c4": "3d6744775fbc2802b5d26e5225d91e7704af6c55f3d823900ae87094563ef9a3",
    "d2u2d3u3-k1": "8643532d97ef035034e5bd09e04e3f599fc9aa8bee01fe2778e2958bfcfb0211",
    "d3u3d2u2-k3": "6e5369e9ac5a4da10e8c8fc6a971617222c68bd572f23d2146768ed7e7fcd593",
    "d4u4d3u3-k5": "cd806b570ff66c2a3376ae3e0683d5c752508c3b10dee8e7b2b321c59e0978c6",
    "d2d4u4u2-k2": "cdcb4c27305fffddd1eb56e0e6e167be56bbce1a08371219caad0135793cd65b",
    "image-8x8-c4": "4e80b14dd418c2614f52c7ac6df7ee36803b931777f036b6dca27b685dc0ba03",
    "image-8x8-c4-pair": "f03a0af4ddbfa9289a3552c6967f453ade93a367295827dbba144d1461347aeb",
    "image-6x7-c3-k33": "f01f7a09e6a40704ce83761f1c449bee9058bcd1be5563f95ac6882ec01d11d0",
    "image-32x32-c8-pair": "e27e8d30873dba9703ccdb62c5f9b85079c1178ece7f35ffb41917693dfb270d",
}


def _weights(net):
    """Every `ConvWeights` of a network, in build order."""
    if hasattr(net, "blocks"):
        for block in net.blocks:
            yield from (w for w in (block.vert, block.down, block.up, block.link, block.horiz)
                        if w is not None)
        yield net.proj
        return
    for layer in net.layers:
        yield layer.weights
    if hasattr(net, "head"):
        yield net.head


def weights_digest(net) -> str:
    """sha256 over each weight's kernel shape and fused bytes, and an up
    layer's phase blocks."""
    h = hashlib.sha256()
    for w in _weights(net):
        h.update(repr(w.kernel.shape).encode())
        h.update(w.fused.tobytes())
    for layer in getattr(net, "layers", ()):
        if getattr(layer, "kind", None) == "up":
            for phase in layer.weights.phases:  # the blocks' bytes, in phase order
                h.update(phase.fused.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", SPECS)
def test_built_weights_are_pinned(name):
    spec = SPECS[name]
    build = build_image_network if isinstance(spec, ImageSpec) else build_network
    assert weights_digest(build(spec)) == DIGESTS[name]
