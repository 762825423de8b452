"""Reference copy of SceneModel.refresh_billboards as it was while it wrote
every re-aimed yaw through write_property: the checked public write, with
its lookups, its yaw check, its no-op test, its change log and its
PropertyWrite. test_writable_reference.py re-aims the same scenes through
both and compares the writes, the yaws, the change logs and a second call.
"""

from __future__ import annotations

import math

from adaptkit.scene import HORIZONTAL_EPS, PropertyWrite, SceneModel
from adaptkit.values import TAU, Vec3


class ReferenceScene(SceneModel):
    def refresh_billboards(self, user_pos: Vec3) -> list[PropertyWrite]:
        """Re-aim every billboard element at the user; skips singular cases.

        Called again with the very ``user_pos`` object of the last complete
        re-aim, it returns [] at once, unless a yaw or billboard property
        was written since (by anyone but that re-aim) or an element added:
        the re-aim would write nothing. Positions are compared by identity,
        which is cheaper than ``==`` and tells -0.0 from 0.0; the store
        keeps a position's object until a write changes it.

        The billboards are kept as a list in id order, made again after an
        add_element or an applied write to a billboard property; like every
        other attribute, a ``billboard`` assigned directly on a SceneElement
        is not seen. Each yaw is face_user_yaw's, computed inline.
        """
        elements = self.elements()
        if user_pos is self._aimed_at:
            return []
        billboards = self._billboards
        if billboards is None:
            billboards = self._billboards = [el for el in elements if el.billboard]
        writes = []
        write_property = self.write_property
        ux, uz = user_pos.x, user_pos.z
        sqrt, atan2 = math.sqrt, math.atan2
        for el in billboards:
            pos = el.position
            dx = ux - pos.x
            dz = uz - pos.z
            if sqrt(dx * dx + dz * dz) < HORIZONTAL_EPS:
                continue
            yaw = atan2(dx, dz) % TAU  # normalize_yaw; % never returns -0.0
            if yaw >= TAU:
                yaw = 0.0
            w = write_property(el.id, "yaw", yaw, "billboard")
            if w is not None:
                writes.append(w)
        self._aimed_at = user_pos
        return writes
