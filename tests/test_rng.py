from snburst.rng import SplitMix64


def test_splitmix64_reference_outputs():
    # The published splitmix64 stream for seed 0.
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
