"""The C kernels: build ``march.c`` once per machine, load it with ctypes.

The first use in a process looks for the shared library in a per-user
cache directory (``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, else a
``0700`` per-uid directory under the temp dir), named by a hash of the
source and the compiler flags.  A hit costs a ``stat`` and a ``dlopen``
— no subprocess.  A miss compiles the source into a temporary file in
that directory and renames it into place atomically, so concurrent
builders never expose a half-written library.  Because whatever sits
there gets ``dlopen``-ed, a directory or file that is not owned by this
user or is group/world-writable is refused, and a library whose size
disagrees with its own ELF header (a truncated file) is rebuilt.

:func:`load` resolves once per process and returns ``(kernels,
reason)``; ``kernels`` is None when C is unavailable (no compiler, a
failed build, a refused cache, a failed ``dlopen``) and ``reason`` says
why — the NumPy kernels then run, with the same bits.  Forked pool
workers inherit the loaded library from their parent.  The bindings
check every buffer a caller hands to C (dtype, shape, contiguity, rects
inside the viewport, segments tiling the rays) in one pass per call;
the buffers they allocate themselves need only an address.  C
bounds-checks the one index it reads from a buffer.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..camera import rect_areas
from ..fragments import FRAGMENT_DTYPE
from . import BLOCK_SIZE, LaunchRays, trim_boxes

__all__ = ["FLAGS", "SOURCE", "load"]

SOURCE = Path(__file__).with_name("march.c")
#: No ``-march``, fast-math or FMA contraction (the NumPy fold has none): the
#: same build on every x86-64 host; ``-O3`` keeps IEEE rounding, marches 10–15 % faster.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_F32 = np.float32
_LOCK = threading.Lock()
_STATE: Optional[tuple] = None  # (kernels or None, reason)


def load() -> tuple[Optional[SimpleNamespace], str]:
    """``(kernels, reason)`` for this process, resolved on first use:
    ``kernels.setup`` / ``kernels.launch`` take a ``SetupPlan`` /
    ``MarchPlan``, as the NumPy kernels do."""
    global _STATE
    if _STATE is None:
        with _LOCK:
            if _STATE is None:
                _STATE = _resolve()
    return _STATE


def _source() -> bytes:
    return SOURCE.read_bytes()


def _cache_dir() -> Path:
    """The per-user cache directory, created ``0700`` when missing."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    try:
        base = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
        directory = base / "repro"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except (OSError, RuntimeError):
        directory = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
        directory.mkdir(mode=0o700, exist_ok=True)
    return directory


def _unsafe(path: Path) -> Optional[str]:
    """Why ``path`` must not be trusted (None when it may)."""
    st = path.lstat()
    if st.st_uid != os.getuid():
        return f"{path} is owned by uid {st.st_uid}"
    if st.st_mode & 0o022:
        return f"{path} is group/world-writable"
    return None


def _intact(path: Path) -> bool:
    """False for a file shorter or longer than its ELF header says (the
    section header table ends a linked shared object)."""
    with open(path, "rb") as f:
        head = f.read(64)
    if head[:5] != b"\x7fELF\x02":  # not ELF64: leave it to dlopen
        return True
    order = "<" if head[5] == 1 else ">"
    (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    return path.stat().st_size == shoff + shentsize * shnum


def _build(source: bytes, path: Path) -> Optional[str]:
    """Compile ``source`` to ``path`` atomically; an error text or None."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return "no C compiler"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".march-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            return f"build failed: {lines[0] if lines else proc.returncode}"
        os.chmod(tmp, 0o700)  # whatever the umask, never group-writable
        os.replace(tmp, path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"build failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path):
    """``(library, None)``, or ``(None, why not)``."""
    try:
        refused = _unsafe(path)
        if refused:
            return None, f"unsafe cache file: {refused}"
        if not _intact(path):
            return None, f"{path} is truncated"
        return ctypes.CDLL(str(path)), None
    except OSError as exc:
        return None, f"dlopen failed: {exc}"


def _library_path(directory: Path, source: bytes) -> Path:
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:20]
    return directory / f"march-{key}.so"


def _resolve() -> tuple[Optional[SimpleNamespace], str]:
    try:
        directory = _cache_dir()
        refused = _unsafe(directory)
    except OSError as exc:
        return None, f"no cache dir: {exc}"
    if refused:
        return None, f"unsafe cache dir: {refused}"
    source = _source()
    path = _library_path(directory, source)
    how = "cached"
    if not path.exists():
        how = "built"
        error = _build(source, path)
        if error:
            return None, error
    lib, error = _open(path)
    if lib is None and how == "cached" and not error.startswith("unsafe"):
        # A damaged file under our name (truncated, not a library):
        # build it again, once.
        how = "rebuilt"
        error = _build(source, path)
        if error:
            return None, error
        lib, error = _open(path)
    if lib is None:
        return None, error
    return _bind(lib), f"{how} {path.name}"


def _bind(lib) -> SimpleNamespace:
    ptr, i64, f32, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_float, ctypes.c_int
    lib.repro_setup.restype = i64
    lib.repro_setup.argtypes = [i64, ptr, i64, ptr, ptr, ptr, ptr, f32] + [ptr] * 8
    lib.repro_march.restype = c_int
    lib.repro_march.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr,  # segments
        ptr, c_int, ptr, ptr, ptr, ptr, ptr,  # rays and the trim
        f32, i64, c_int, f32, c_int, f32,  # march parameters
        ptr, ptr, ctypes.c_int32, c_int, f32, f32,  # transfer function
        ptr, ptr, ptr,  # accumulators
        ptr, ptr, c_int, i64, ptr,  # emit
        ptr, ptr, ptr,  # per-segment counters
    ]

    def addresses(*arrays) -> list:
        """The buffer address of each array (None stays None): for
        arrays whose dtype, shape and layout are known — allocated here
        with them, or passed by :func:`check`."""
        out = []
        for a in arrays:
            try:  # a third of a.ctypes.data's cost, for a writable non-empty buffer
                out.append(None if a is None else ctypes.addressof(ctypes.c_char.from_buffer(a)))
            except (TypeError, ValueError):
                out.append(a.__array_interface__["data"][0])
        return out

    def check(*buffers) -> list:
        """C reads and writes these buffers blind: refuse any ``(array,
        dtype, shape, what)`` whose array is not C-contiguous with that
        dtype and shape (a None array passes, as a null pointer), in one
        pass; the buffers' addresses."""
        for a, dtype, shape, what in buffers:
            if a is not None and (
                a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous
            ):
                raise ValueError(
                    f"C kernels: {what} must be C-contiguous {np.dtype(dtype)} {shape}, "
                    f"got {a.dtype} {a.shape}"
                )
        return addresses(*[a for a, _, _, _ in buffers])

    def setup(plan) -> LaunchRays:
        """``plan``'s ray set-up in C: the NumPy set-up's arrays, bitwise."""
        cam = plan.camera
        # C takes each footprint as [x0, y0, width, area].
        rects = np.array(plan.rects, dtype=np.int64).reshape(-1, 4)
        if ((rects[:, :2] < 0) | (rects[:, 2:] > (cam.width, cam.height))).any():
            raise ValueError("C kernels: a rect lies outside the viewport")
        rects[:, 3] = rect_areas(rects)
        rects[:, 2] -= rects[:, 0]
        nb = len(rects)
        ray_cuts = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(rects[:, 3], out=ray_cuts[1:])
        n_rays = int(ray_cuts[-1])
        out = LaunchRays(
            ray_cuts, np.empty(n_rays, np.int64), np.empty(n_rays, np.int32),
            np.empty((n_rays, 3), _F32), np.empty(n_rays, np.int64),
            np.empty(n_rays, np.int64), np.empty(n_rays, _F32),
            np.empty(nb + 1, np.int64), np.empty(nb, np.int64),
        )
        # C gets addresses only: every array stays referenced until it returns.
        eye = np.array(cam.eye, dtype=_F32)
        volume = np.asarray(plan.volume_shape, dtype=_F32)
        buffers = check(
            (cam._dirs32(), _F32, (cam.width * cam.height, 3), "direction grid"),
            (eye, _F32, (3,), "eye"), (plan.cores, _F32, (nb, 2, 3), "brick boxes"),
            (volume, _F32, (3,), "volume box"),
        )
        rects_at, *out_at = addresses(
            rects, out.active, out.keys, out.dirs, out.kf, out.counts, out.t0,
            out.cuts, out.owned,
        )
        n = lib.repro_setup(nb, rects_at, cam.width, *buffers, plan.dt, *out_at)
        for name in ("active", "keys", "dirs", "kf", "counts", "t0"):
            setattr(out, name, getattr(out, name)[:n])
        return out

    def launch(plan) -> tuple:
        """Trim, march and emit ``plan`` in C, bitwise as the NumPy launch."""
        segs = plan.segments
        nseg = len(segs)
        n = len(plan.counts)
        seg_ray = np.array([s.ray_lo for s in segs] + [n], dtype=np.int64)
        ray_hi = np.array([s.ray_hi for s in segs], dtype=np.int64)
        if seg_ray[0] != 0 or ((ray_hi != seg_ray[1:]) | (seg_ray[:-1] > ray_hi)).any():
            raise ValueError("C kernels: segments must tile the plan's rays in order")
        sizes = [math.prod(s.shape) for s in segs]
        boxes = trim_boxes(segs)
        tf, res = plan.tf, plan.tf.resolution
        # C gets addresses only: every array stays referenced until it returns.
        shape = np.array([s.shape for s in segs], dtype=np.int64)
        base_w = np.array([s.base_w for s in segs], dtype=_F32)
        at = check(
            *[(s.flat, _F32, (size,), "payload") for s, size in zip(segs, sizes)],
            *[(s.skip_table, np.bool_, (size,), "skip table") for s, size in zip(segs, sizes)],
            (shape, np.int64, (nseg, 3), "shapes"), (base_w, _F32, (nseg, 3), "lattice origins"),
            (boxes, _F32, (nseg, 2, 3), "occupied boxes"),
            (seg_ray, np.int64, (nseg + 1,), "segment rays"),
            (plan.counts, np.int64, (n,), "counts"), (plan.t0, _F32, (n,), "t0"),
            (plan.dirs, _F32, (n, 3), "dirs"),
            (tf.table, _F32, (res, 4), "transfer function"),
            (tf._diff, _F32, (res - 1, 4), "transfer function steps"),
            (plan.acc_rgb, _F32, (n, 3), "acc_rgb"), (plan.acc_a, _F32, (n,), "acc_a"),
            (plan.term, np.bool_, (n,), "term"), (plan.keys, np.int32, (n,), "keys"),
            (plan.active, np.int64, (n,), "footprint indices"),
        )
        flat, table = (ptr * nseg)(*at[:nseg]), (ptr * nseg)(*at[nseg : 2 * nseg])
        (shape_at, base_w_at, boxes_at, seg_ray_at, counts_at, t0_at, dirs_at,
         tf_at, steps_at, rgb_at, alpha_at, term_at, keys_at, active_at) = at[2 * nseg :]
        if boxes is not None:
            plan.lead = np.empty(n, dtype=np.int64)
            plan.trail = np.empty(n, dtype=np.int64)
        n_out = plan.n_rays if plan.emit_placeholders else n
        fragments = np.empty(n_out, dtype=FRAGMENT_DTYPE)
        counters = np.zeros((3, nseg), dtype=np.int64)  # owned, positioned, kept
        lead_at, trail_at, frag_at, count_at = addresses(
            *((None, None) if boxes is None else (plan.lead, plan.trail)), fragments, counters
        )
        status = lib.repro_march(
            nseg, flat, shape_at, table, base_w_at, boxes_at, seg_ray_at,
            any([s.need_clamp for s in segs]), counts_at, t0_at, dirs_at, lead_at, trail_at,
            plan.dt, BLOCK_SIZE, plan.use_ert, plan.ert_alpha, plan.u_thr >= 0,
            plan.u_thr, tf_at, steps_at, res, tf.vmin == 0.0 and tf.vmax == 1.0,
            tf.vmin, 1.0 / (tf.vmax - tf.vmin), rgb_at, alpha_at, term_at, keys_at, active_at,
            plan.emit_placeholders, n_out, frag_at,
            count_at, count_at + 8 * nseg, count_at + 16 * nseg,
        )
        if status == -1:
            raise MemoryError("C kernels: scratch allocation failed")
        if status != 0:
            raise ValueError("C kernels: a footprint index lies outside the launch")
        owned, positioned, kept = counters
        if not plan.emit_placeholders:
            fragments = fragments[: sum(kept.tolist())]
        return fragments, owned, positioned, kept

    return SimpleNamespace(setup=setup, launch=launch, lib=lib)
