"""Bit-identity gate: the ``make smoke-digest`` artifacts hash to the
digests committed in ``tests/golden/smoke_digest.txt``.

The three artifacts are regenerated in a temporary directory by the same
commands the Makefile target runs, each in a fresh interpreter (connection
and device ids are process-wide counters, so an in-process run would
depend on what ran before it).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.simnet import Simulator

GOLDEN = Path(__file__).parent / "golden" / "smoke_digest.txt"
SRC = str(Path(repro.__file__).resolve().parent.parent)


def _golden(calendar: str) -> dict:
    """``{artifact: sha256}`` for *calendar* from the golden file."""
    out = {}
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        digest, name, *keyed = line.split()
        if not keyed or keyed == [calendar]:
            out[name] = digest
    return out


def _run(tmp_path: Path, *args: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", *args], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_smoke_artifacts_match_the_committed_digests(tmp_path):
    calendar = Simulator().calendar_stats()["backend"]
    expected = _golden(calendar)
    assert sorted(expected) == ["fuzz-stdout.txt", "telemetry-smoke.jsonl", "trace-smoke.json"]
    _run(tmp_path, "repro.obs", "smoke", "--out", "telemetry-smoke.jsonl")
    _run(tmp_path, "repro.obs", "trace", "--smoke", "--out", "trace-smoke.json")
    (tmp_path / "fuzz-stdout.txt").write_bytes(
        _run(tmp_path, "repro.check", "fuzz", "--seeds", "50"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in expected}
    assert got == expected, f"calendar {calendar}"
