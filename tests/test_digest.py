"""tools/digest.py, the same-numbers check between two trees."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "digest", Path(__file__).parents[1] / "tools" / "digest.py")
DIGEST = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(DIGEST)


def test_digest_is_repeatable_and_tells_scans_apart():
    def run():
        return [DIGEST.digest(scan, steps=3, sample_steps=2)
                for scan in ("spiral-bidirectional", "row-major")]

    first = run()
    assert run() == first
    assert first[0] != first[1]
