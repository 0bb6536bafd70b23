"""Thin system presets over :mod:`repro.coherence.strategy`.

The paper's evaluated designs used to be four parallel implementations;
they are now one-line presets that bind a single
:class:`~repro.coherence.strategy.CoherenceStrategy` for every
invocation.  The policy system (:mod:`repro.systems.policy`) uses the
same machinery with a per-invocation selector instead of a fixed key —
the golden grids pin that this indirection is bit-identical to the
legacy implementations.
"""

from ..coherence.strategy import bind_context, make_strategy
from .base import BaseSystem


class StrategyPresetSystem(BaseSystem):
    """A system that runs every invocation under one fixed strategy."""

    #: Strategy key bound at construction (see ``make_strategy``).
    strategy_key = None

    def _build(self):
        self._strategy = make_strategy(self.strategy_key)
        self._bound = self._strategy.bind(bind_context(self))
        self._mirror(self._bound)

    def _mirror(self, bound):
        """Expose the bound machinery under the legacy attribute names
        (subclasses and tests reach for them)."""

    def _run_invocation(self, index, trace, now):
        return self._bound.run(self._strategy, index, trace, now,
                               axc=self._axc_of(trace),
                               mlp=self._mlp(trace))
