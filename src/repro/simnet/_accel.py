"""On-demand build and loading of the optional C kernel accelerator.

``_speedup.c`` is compiled with the system C compiler the first time a
timing-wheel :class:`~repro.simnet.kernel.Simulator` is constructed, and
cached (keyed by interpreter version and source hash) under
``~/.cache/repro-simnet`` or ``$REPRO_ACCEL_CACHE``.  There is no build
system and no install step: a plain ``cc -O2 -shared -fPIC`` either works
or it doesn't, and *any* failure — no compiler, non-CPython runtime, a
changed slot layout failing the ``configure()`` handshake — degrades to
the pure-Python kernels, which are semantically identical (property-tested
in tests/simnet/test_timing_wheel.py) but some 20 % slower.  The degrade
is not silent: the first line of the failure is kept
(:func:`failure_reason`, ``calendar_stats()["accelerator_reason"]``, the
``repro.obs`` run report) and one :class:`RuntimeWarning` per process
says so.

Set ``REPRO_KERNEL_C=0`` to force the pure-Python paths (no warning:
that is a choice, not a failure); note that ``REPRO_KERNEL=heap`` never
uses the accelerator (it binds the flat-heap methods before the
accelerator is consulted).
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path
from typing import Optional

__all__ = ["load", "why_not", "failure_reason"]

#: "unloaded" until the first load() call, then the module or None.
_state: object = "unloaded"
#: first line of the failure that made load() return None, if one did
_reason: Optional[str] = None


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
            "restore_fifo": _core.restore_fifo,
            "seq_of": _core._seq_of,
            "wait_on": Process._wait_on,
            "cbe_pool_max": _core.CBE_POOL_MAX,
            "timeout_pool_max": _core.TIMEOUT_POOL_MAX,
            # the pure placement methods: what the C entry points call for
            # anything that must raise (non-int, bool, negative delays)
            "schedule_py": Simulator._schedule_wheel,
            "call_in_py": Simulator._call_in_wheel,
            "timeout_py": Simulator._timeout_wheel,
        }
    )


def why_not() -> str:
    """Why :func:`load` returned ``None``: ``"off"`` when the environment
    opted out, ``"unavailable"`` when the build or load failed."""
    return "off" if _disabled_by_env() else "unavailable"


def failure_reason() -> Optional[str]:
    """First line of why the accelerator is ``"unavailable"`` (``None``
    when it loaded, was switched off, or has not been tried yet)."""
    return _reason


def load():
    """Return the configured extension module, or ``None`` (cached)."""
    global _state, _reason
    if _state != "unloaded":
        return _state
    _state = None
    if _disabled_by_env():
        return None
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
            f"pure-Python kernels ({_reason})",
            RuntimeWarning,
            stacklevel=2,
        )
    return _state
