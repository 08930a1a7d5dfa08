"""Every job of `make_golden.JOBS` still gives the digest stored in
`golden/identity.json`: layouts and metrics are bitwise what they were when
the file was written."""

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


def test_job_set_matches_file():
    assert sorted(GOLDEN["jobs"]) == sorted(make_golden.JOBS)


@pytest.mark.parametrize("key", list(make_golden.JOBS))
def test_identity_digest(key):
    running = make_golden.environment()
    assert make_golden.job_digest(key) == GOLDEN["jobs"][key], (
        f"{key} is not bitwise what it was. Stored with numpy {GOLDEN['numpy']} "
        f"and SIMD {' '.join(GOLDEN['simd'])}; running numpy {running['numpy']} "
        f"and SIMD {' '.join(running['simd'])}"
    )
