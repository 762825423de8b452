"""Reference copy of ContextStore.set_feature as it was before it named
each value's type once: check_value, then a type_name on each side of the
type test, then values_equal, each naming the types again.
test_context.py writes the same values through both and compares the
results, the errors, the stored objects and the dirty sets.
"""

from __future__ import annotations

from adaptkit.context import ChangeFlag, ContextStore, FeatureId
from adaptkit.errors import TypeMismatch
from adaptkit.values import Value, check_value, type_name, values_equal


class ReferenceStore(ContextStore):
    def set_feature(self, feature: FeatureId, value: Value) -> ChangeFlag:
        """Write a feature; the value type is fixed at the first write.

        Returns CHANGED iff the value differs from the prior one (bitwise
        for floats); only changed writes mark the feature dirty.
        """
        check_value(value)
        if feature in self._values:
            prior = self._values[feature]
            if type_name(prior) != type_name(value):
                raise TypeMismatch(
                    f"{feature} holds {type_name(prior)}, cannot set {type_name(value)}"
                )
            if values_equal(prior, value):
                return ChangeFlag.UNCHANGED
        self._values[feature] = value
        self._dirty.add(feature)
        return ChangeFlag.CHANGED
