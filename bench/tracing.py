"""Span and count recorders patched over the library for a traced run.

A span wraps one library callable.  Its self time is its duration minus the
time of the spans it calls, so the self times of all spans recorded inside
an op sum to at most the op's wall time.  Nothing here is imported by the
library and nothing is installed unless a Tracer is created: an untraced
run executes the library exactly as shipped.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from insdelcode.errors import DecodeFailure


def _on_match(tracer, args, kwargs, result):
    p, received = args[0], args[1]
    nonzeros = int(np.count_nonzero(np.asarray(received)))
    tracer.counts["linear_insdel.match_dp.cells"] += len(p) * nonzeros
    tracer.counts["linear_insdel.unmatched"] += nonzeros - len(result.matches)
    tracer.counts["linear_insdel.match_cost"] += result.cost


def _on_rs_decode(tracer, args, kwargs, result):
    erasures = kwargs.get("erasures", args[2] if len(args) > 2 else None)
    tracer.counts["hamming_ecc.decode.erasures"] += len(erasures or ())


def _on_parse(tracer, args, kwargs, result):
    code = args[0]
    tracer.counts["affine_insdel.blocks_malformed"] += sum(
        len(c) != code.content_len for c in result)


def _on_local_check(tracer, args, kwargs, result):
    tracer.counts["separator.local_check.rejects"] += int(not result.passed)


# (span name, module, attribute path, hook run on the returned value)
SPANS = (
    ("linear_insdel.match_dp", "linear_insdel", "match_dp", _on_match),
    ("linear_insdel.encode", "linear_insdel", "InsdelCode.encode", None),
    ("linear_insdel.fill_template", "linear_insdel", "InsdelCode.fill_template",
     None),
    ("editops.insdel_channel", "editops", "insdel_channel", None),
    ("editops.lcs", "editops", "lcs", None),
    ("hamming_ecc.decode", "hamming_ecc", "LinearCode.decode", _on_rs_decode),
    ("hamming_ecc.encode", "hamming_ecc", "LinearCode.encode", None),
    ("linalg.nullspace_vector", "linalg", "nullspace_vector", None),
    ("linalg.matvec", "linalg", "matvec", None),
    ("affine_insdel.encode", "affine_insdel", "AffineCode.encode", None),
    ("affine_insdel.parse_blocks", "affine_insdel", "AffineCode.parse_blocks",
     _on_parse),
    ("affine_insdel.decode", "affine_insdel", "AffineCode.decode", None),
    ("sync_string.index_recovery", "sync_string", "index_recovery", None),
    ("sync_string.verify_eta", "sync_string", "verify_eta", None),
    ("separator.local_check", "separator", "local_check", _on_local_check),
    ("separator.max_undesired", "separator", "max_undesired", None),
    ("prg.prg_generate", "prg", "prg_generate", None),
)


class Tracer:
    """Installs span wrappers on creation; uninstall() restores everything.

    Use as a context manager.  A patch target missing from the library (a
    later change may delete a function) is listed in `absent` and its
    metrics read zero instead of failing the run.
    """

    def __init__(self, fields=()):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list = []
        for name, module, path, hook in SPANS:
            self._patch_span(name, module, path, hook)
        for field in fields:
            self._count_field_mul(field)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, name, fn, hook):
        tracer = self

        def span(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DecodeFailure:
                tracer.counts[f"{name}.failures"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                tracer.self_s[name] += dt - tracer._stack.pop()
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1] += dt
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return span

    def _patch_span(self, name, module_name, path, hook):
        module = sys.modules.get(f"insdelcode.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(getattr(owner, attr, None)):
            self.absent.append(name)
            return
        if owner_name:
            # a method: patch the class, restore what its __dict__ held
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                return
            setattr(owner, attr, self._wrap(name, original, hook))
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        # a function: rebind every library module that imported it by name
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "insdelcode":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        lambda mod=mod, key=key: setattr(mod, key, original))

    def _count_field_mul(self, field) -> None:
        original = field.mul
        tracer = self

        def mul(a, b):
            tracer.counts["gf.mul.calls"] += 1
            return original(a, b)

        try:
            field.mul = mul
        except AttributeError:  # a field type without instance attributes
            self.absent.append("gf.mul")
            return
        self._undo.append(lambda: vars(field).pop("mul", None))
