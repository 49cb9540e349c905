"""The named failure of a certified property.

Every layer that certifies a bound checks it exactly and, when the check
fails, raises ``PropertyViolation`` with the property's name: the
rearrangement chain and its prefix bounds (``rearrange``), the
Caratheodory anchor, row balancing, the colorful prefix bound and the
single-sum selection (``colorful``), the Hadamard check of
``linalg.lcm_abs_dets``, the decomposition and reduction pipeline
(``blockip``) and the verify suites, their bad draws included.  Unlike
``assert`` it is not removed under ``python -O``.  It subclasses
AssertionError, so the CLI reports it with exit code 1 and a verify suite
as a FAIL line naming the property.
"""


class PropertyViolation(AssertionError):
    """A certified property failed; carries the property name."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"property {name} violated" + (f": {detail}" if detail else ""))
