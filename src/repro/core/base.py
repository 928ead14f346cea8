"""The dominance-criterion interface and registry.

The paper evaluates five *decision criteria* for the hypersphere
dominance predicate ``Dom(Sa, Sb, Sq)`` (Definition 1).  Each criterion
is a callable object with two advertised properties borrowed from
Emrich et al. (Section 1 of the paper):

- *correct* — a ``True`` answer implies genuine dominance (no false
  positives);
- *sound* — a ``False`` answer implies genuine non-dominance (no false
  negatives).

A criterion that is both (and runs in O(d)) is *optimal*; only the
paper's Hyperbola achieves all three.

Criteria register themselves under a short name so experiments and the
CLI can select them by string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterator

from repro.exceptions import CriterionError, DimensionalityMismatchError
from repro.geometry.hypersphere import Hypersphere

__all__ = [
    "DominanceCriterion",
    "register_criterion",
    "get_criterion",
    "available_criteria",
    "is_registered",
]


class DominanceCriterion(ABC):
    """A decision procedure for ``Dom(Sa, Sb, Sq)``.

    Subclasses set the class attributes:

    - ``name`` — registry key (e.g. ``"hyperbola"``);
    - ``is_correct`` / ``is_sound`` — the theoretical guarantees from
      Table 1 of the paper, verified empirically by the test suite.
    """

    name: str = ""
    is_correct: bool = False
    is_sound: bool = False

    def dominates(self, sa: Hypersphere, sb: Hypersphere, sq: Hypersphere) -> bool:
        """Decide whether *sa* dominates *sb* with respect to *sq*.

        This is the single entry point of every criterion: it validates
        that the three hyperspheres share one dimensionality (raising
        :class:`~repro.exceptions.DimensionalityMismatchError` otherwise)
        and then delegates to the subclass's :meth:`_decide`.  Before
        this template existed each subclass had to remember to validate,
        so a forgotten check could let a 2-D/3-D mix reach the kernel.
        """
        dimension = sa.dimension
        if sb.dimension != dimension:
            raise DimensionalityMismatchError(dimension, sb.dimension)
        if sq.dimension != dimension:
            raise DimensionalityMismatchError(dimension, sq.dimension)
        return self._decide(sa, sb, sq)

    @abstractmethod
    def _decide(self, sa: Hypersphere, sb: Hypersphere, sq: Hypersphere) -> bool:
        """The criterion's decision body (inputs already validated)."""

    def __call__(self, sa: Hypersphere, sb: Hypersphere, sq: Hypersphere) -> bool:
        return self.dominates(sa, sb, sq)

    @staticmethod
    def check_dimensions(sa: Hypersphere, sb: Hypersphere, sq: Hypersphere) -> None:
        """Raise when the three hyperspheres live in different spaces.

        Retained for callers outside the class hierarchy; subclasses no
        longer need it because :meth:`dominates` validates up front.
        """
        sa.require_same_dimension(sb)
        sa.require_same_dimension(sq)

    def __repr__(self) -> str:
        flags = []
        if self.is_correct:
            flags.append("correct")
        if self.is_sound:
            flags.append("sound")
        return f"<{type(self).__name__} {self.name!r} ({', '.join(flags) or 'heuristic'})>"


_REGISTRY: dict[str, Callable[[], DominanceCriterion]] = {}


def register_criterion(
    factory: Callable[[], DominanceCriterion],
) -> Callable[[], DominanceCriterion]:
    """Register a criterion factory under its instance's ``name``.

    Usable as a plain call or as a class decorator (classes are their own
    zero-argument factories).
    """
    instance = factory()
    if not instance.name:
        raise CriterionError(f"{factory!r} produced a criterion without a name")
    if instance.name in _REGISTRY:
        raise CriterionError(f"criterion {instance.name!r} registered twice")
    _REGISTRY[instance.name] = factory
    return factory


def get_criterion(name: str) -> DominanceCriterion:
    """Instantiate the registered criterion called *name*.

    >>> get_criterion("minmax").name
    'minmax'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise CriterionError(f"unknown criterion {name!r}; known: {known}") from None
    return factory()


def is_registered(criterion: DominanceCriterion) -> bool:
    """Whether *criterion* is exactly the class registered under its name.

    A subclass inherits its parent's ``name`` but may change the
    decision, so only the registered class itself counts.

    >>> is_registered(get_criterion("hyperbola"))
    True
    """
    return _REGISTRY.get(criterion.name) is type(criterion)


def available_criteria() -> Iterator[str]:
    """The registered criterion names, sorted."""
    return iter(sorted(_REGISTRY))
