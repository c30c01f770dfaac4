"""Timers and observers installed on the program from outside.

The benchmark replaces module attributes of tricontact (the names the
program looks up at call time) with thin wrappers and puts the originals
back afterwards.  A name that no longer exists is skipped and its layer
reported as absent, so a refactor that removes a function does not crash
the benchmark.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        setattr(owner, attr, make_wrapper(orig))
        self._saved.append((owner, attr, orig))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


@dataclass
class Layer:
    calls: int = 0
    time: float = 0.0        # inclusive wall time
    self_time: float = 0.0   # minus the traced calls made inside
    amount: int = 0          # work units: pairs, points, contacts, nodes


def step_targets(tc):
    """(owner, attribute, layer, work counter) for the stepping layers."""
    st, kn = tc.stepping, tc.kernels
    return [
        (st, "step", "stepping.step", None),
        (st, "broad_phase_pairs", "stepping.broad_phase", lambda args, out: len(out)),
        (st, "multiscale_contacts", "stepping.detect", None),
        (st, "single_level_contacts", "stepping.detect", None),
        (st, "hybrid_batch", "kernels.hybrid", lambda args, out: len(args[0])),
        (kn, "iterative_batch", "kernels.iterative", lambda args, out: len(args[0])),
        (kn, "comparison_batch", "kernels.comparison", lambda args, out: len(args[0])),
        (st, "merge_contacts", "contact.merge", lambda args, out: len(args[0])),
        (st, "contact_force", "contact.force", None),
        (st, "accumulate", "contact.force", None),
        (tc.geometry.RigidMotion, "apply_points", "geometry.transform",
         lambda args, out: np.size(args[1]) // 3),
    ]


def setup_targets(tc):
    """(owner, attribute, layer, work counter) for scene and tree building."""
    return [
        (tc.scenes, "build_scene", "scenes.build", None),
        (tc.stepping, "build_surrogate_tree", "surrogate.build",
         lambda args, out: sum(1 for _ in out.nodes())),
    ]


class Tracer:
    """Per-layer call counts, inclusive and self wall time, and work units.

    Spans nest through a stack: a wrapped call made inside another wrapped
    call counts toward the outer call's child time, so ``self_time`` is the
    time not covered by any traced call inside it.
    """

    def __init__(self, targets):
        self.targets = targets
        self.layers: dict[str, Layer] = {}
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches = Patches()

    def _wrapper(self, layer: Layer, count):
        stack = self._stack

        def make(orig):
            @functools.wraps(orig)
            def timed(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    layer.calls += 1
                    layer.time += dur
                    layer.self_time += dur - frame[0]
                if count is not None:
                    layer.amount += count(args, out)
                return out
            return timed
        return make

    def __enter__(self):
        present = set()
        for owner, attr, name, count in self.targets:
            layer = self.layers.setdefault(name, Layer())
            if self._patches.replace(owner, attr, self._wrapper(layer, count)):
                present.add(name)
        self.absent = {name for _, _, name, _ in self.targets} - present
        for name in self.absent:
            self.layers.pop(name, None)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


class ContactObserver:
    """Records the merged contacts and the pose of each force assembly.

    Every stepping mode hands the contacts of a detection sweep, together
    with the poses that sweep detected at, to ``stepping._rates``; after a
    step, the last record is the step's final detection.
    """

    def __init__(self, stepping):
        self._stepping = stepping
        self._patches = Patches()
        self.contacts = None
        self.motions = None

    def __enter__(self):
        def make(orig):
            @functools.wraps(orig)
            def observed(system, cfg, contacts, motions, *rest, **kwargs):
                self.contacts = list(contacts)
                self.motions = list(motions)
                return orig(system, cfg, contacts, motions, *rest, **kwargs)
            return observed

        if not self._patches.replace(self._stepping, "_rates", make):
            raise RuntimeError("tricontact.stepping._rates is gone: the output checks "
                               "cannot observe contacts; update perfbench/trace.py")
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def mesh_contacts(self) -> list:
        """(i, j, tri_i, tri_j) of the recorded contacts between mesh triangles."""
        return [(int(c.pair[0]), int(c.pair[1]), int(c.source[0]), int(c.source[1]))
                for c in self.contacts if max(c.level) == 0]
