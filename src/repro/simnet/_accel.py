"""On-demand build and loading of the optional C kernel accelerator.

``_speedup.c`` is compiled with the system C compiler the first time a
timing-wheel :class:`~repro.simnet.kernel.Simulator` is constructed, and
cached (keyed by interpreter version and source hash) under
``~/.cache/repro-simnet`` or ``$REPRO_ACCEL_CACHE``.  There is no build
system and no install step: a plain ``cc -O2 -shared -fPIC`` either works
or it doesn't, and *any* failure — no compiler, non-CPython runtime, a
changed slot layout failing the ``configure()`` handshake — degrades
silently to the pure-Python kernel, which is semantically identical
(property-tested in tests/simnet/test_timing_wheel.py).

Set ``REPRO_KERNEL_C=0`` to force the pure-Python paths; note that
``REPRO_KERNEL=heap`` never uses the accelerator (it binds the flat-heap
methods before the accelerator is consulted).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

__all__ = ["load", "why_not"]

#: "unloaded" until the first load() call, then the module or None.
_state: object = "unloaded"


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_KERNEL_C", "").strip().lower() in (
        "0",
        "off",
        "no",
        "false",
    )


def _compile_and_import():
    import hashlib
    import importlib.util
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    src = Path(__file__).with_name("_speedup.c")
    code = src.read_bytes()
    tag = hashlib.sha256(code).hexdigest()[:16]
    ver = f"cp{sys.version_info[0]}{sys.version_info[1]}"
    cache_dir = Path(
        os.environ.get("REPRO_ACCEL_CACHE")
        or Path.home() / ".cache" / "repro-simnet"
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    so = cache_dir / f"_speedup_{ver}_{tag}.so"
    if not so.exists():
        cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
        if shutil.which(cc) is None:
            cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
            if cc is None:
                raise RuntimeError("no C compiler available")
        inc = sysconfig.get_paths()["include"]
        cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{inc}", str(src)]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so")
        os.close(fd)
        try:
            res = subprocess.run(
                cmd + ["-o", tmp], capture_output=True, timeout=120
            )
            if res.returncode != 0:
                raise RuntimeError(
                    f"accelerator compile failed: {res.stderr.decode(errors='replace')[:500]}"
                )
            os.replace(tmp, so)  # atomic: concurrent builders race benignly
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    spec = importlib.util.spec_from_file_location("repro.simnet._speedup", so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _configure(mod) -> None:
    # Runtime imports: this module must stay import-light because
    # kernel.py imports it at module load (before events/process exist).
    from ._core import CBE_POOL_MAX, TIMEOUT_POOL_MAX, CallbackEntry, _PROCESSED
    from .events import Timeout
    from .kernel import Simulator
    from .process import Process

    mod.configure(
        {
            "Simulator": Simulator,
            "Timeout": Timeout,
            "Process": Process,
            "CallbackEntry": CallbackEntry,
            "processed": _PROCESSED,
            "timeout_slow": Simulator._timeout_wheel_slow,
            "wait_on": Process._wait_on,
            "cbe_pool_max": CBE_POOL_MAX,
            "timeout_pool_max": TIMEOUT_POOL_MAX,
        }
    )


def why_not() -> str:
    """Why :func:`load` returned ``None``: ``"off"`` when the environment
    opted out, ``"unavailable"`` when the build or load failed."""
    return "off" if _disabled_by_env() else "unavailable"


def load():
    """Return the configured extension module, or ``None`` (cached)."""
    global _state
    if _state != "unloaded":
        return _state
    _state = None
    try:
        if _disabled_by_env():
            return None
        if sys.implementation.name != "cpython":
            return None  # Py_REFCNT semantics are CPython-specific
        mod = _compile_and_import()
        _configure(mod)
        _state = mod
    except Exception:
        _state = None
    return _state
