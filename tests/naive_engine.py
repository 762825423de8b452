"""Reference oracle: the engine loop that evaluates every condition and
checks every rule in every cycle.

``Engine`` evaluates only the conditions whose inputs changed and checks
only the rules of conditions that flipped; the differential tests compare
the two on whole traces. Everything but the loop is inherited.
"""

from __future__ import annotations

from adaptkit.engine import (
    KIND_EVENT,
    KIND_NONQUIESCENT,
    KIND_QUIESCENT,
    USER_POSITION,
    CycleReport,
    Engine,
)
from adaptkit.errors import NonQuiescent
from adaptkit.values import Vec3, render_value


class NaiveEngine(Engine):
    def _process_event(self, sets) -> CycleReport:
        e = self._next_event
        self._next_event += 1
        self._event = e
        self._begin_cycle(0)
        for feature, value in sets:
            self.store.set_feature(feature, value)
            self._emit(KIND_EVENT, f"EVENT set {feature} = {render_value(value)}")
        self.store.drain_dirty()  # event writes are inputs, not cycle activity

        for k in range(1, self.max_cascade_depth + 1):
            self._begin_cycle(k)
            activity = False

            cond_values: dict[str, bool] = {}
            for cond in self.rules.conditions:
                value, changed = self.evaluate_condition(cond.id)
                cond_values[cond.id] = value
                activity = activity or changed

            deactivate = []
            activate = []
            for rule in self.rules.rules:
                state = self._rule_states[rule.id]
                all_true = all(cond_values[c] for c in rule.conditions)
                if state.active and not all_true:
                    deactivate.append(rule)
                elif not state.active and all_true:
                    activate.append(rule)
            order = lambda r: (r.priority, self._rule_index[r.id])
            for rule in sorted(deactivate, key=order, reverse=True):
                self.unexecute_rule(rule.id)
                activity = True
            for rule in sorted(activate, key=order):
                self.execute_rule(rule.id)
                activity = True

            if any(el.billboard for el in self.scene.elements()) and self.store.has_feature(
                USER_POSITION
            ):
                user_pos = self.store.get_feature(USER_POSITION)
                if isinstance(user_pos, Vec3):
                    for write in self.scene.refresh_billboards(user_pos):
                        self._emit_prop(write)
                        activity = True

            if self.workflow is not None:
                activity = self._workflow_phase(cond_values) or activity

            if self.store.drain_dirty():
                activity = True

            if not activity:
                self._emit(KIND_QUIESCENT, f"QUIESCENT cycles={k}")
                return CycleReport(cycles=k)

        self._emit(KIND_NONQUIESCENT, f"NONQUIESCENT depth={self.max_cascade_depth}")
        raise NonQuiescent(self.max_cascade_depth, trace=self.trace)
