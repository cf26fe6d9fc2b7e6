"""On-demand build and loading of the C timing wheel.

``_speedup.c`` is compiled with the system C compiler the first time a
timing-wheel :class:`~repro.simnet.kernel.Simulator` is constructed, and
cached (keyed by interpreter version and source hash) under
``~/.cache/repro-simnet`` or ``$REPRO_ACCEL_CACHE``.  There is no build
system and no install step: a plain ``cc -O2 -shared -fPIC`` either works
or it doesn't.  The wheel exists only in C, so *any* failure — no
compiler, non-CPython runtime, a changed slot layout failing the
``configure()`` handshake — makes a simulator that asked for the wheel run
the flat-heap calendar, which is bit-identical in simulated results
(tests/simnet/test_timing_wheel.py) but slower.  The fallback is not
silent: the first line of the failure is kept (:func:`failure_reason`,
``calendar_stats()["accelerator_reason"]``, the ``repro.obs`` run report)
and one :class:`RuntimeWarning` per process says so.  ``REPRO_KERNEL=heap``
never consults this module.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path
from typing import Optional

__all__ = ["load", "failure_reason"]

#: "unloaded" until the first load() call, then the module or None.
_state: object = "unloaded"
#: first line of the failure that made load() return None, if one did
_reason: Optional[str] = None


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
    from . import _core
    from .events import Event, Timeout
    from .kernel import Simulator
    from .process import Process

    mod.configure(
        {
            "Simulator": Simulator,
            "Event": Event,
            "Timeout": Timeout,
            "Process": Process,
            "CallbackEntry": _core.CallbackEntry,
            "SimulationError": _core.SimulationError,
            "processed": _core._PROCESSED,
            "seq_of": _core._seq_of,
            "wait_on": Process._wait_on,
            # what the placement entry points bind odd calls with, so the
            # heap and the wheel refuse a bad delay with one set of messages
            "bind_schedule": _core.schedule,
            "bind_call_in": _core.call_in,
            "bind_timeout": _core.timeout,
            "cbe_pool_max": _core.CBE_POOL_MAX,
            "timeout_pool_max": _core.TIMEOUT_POOL_MAX,
        }
    )


def failure_reason() -> Optional[str]:
    """First line of why the accelerator is ``"unavailable"`` (``None``
    when it loaded or has not been tried yet)."""
    return _reason


def load():
    """Return the configured extension module, or ``None`` (cached)."""
    global _state, _reason
    if _state != "unloaded":
        return _state
    _state = None
    try:
        if sys.implementation.name != "cpython":
            # Py_REFCNT semantics are CPython-specific
            raise RuntimeError(f"needs CPython, not {sys.implementation.name}")
        mod = _compile_and_import()
        _configure(mod)
        _state = mod
    except Exception as exc:
        _reason = f"{type(exc).__name__}: {exc}".strip().splitlines()[0]
        warnings.warn(
            "repro.simnet: C kernel accelerator unavailable, running the "
            f"heap calendar ({_reason})",
            RuntimeWarning,
            stacklevel=2,
        )
    return _state
