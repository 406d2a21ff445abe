"""Macro cells."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.geometry import Point, Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netlist.pin import Pin


class Edge(enum.Enum):
    """A side of a cell on which a pin sits."""

    TOP = "top"
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"

    @property
    def is_horizontal(self) -> bool:
        """True for TOP/BOTTOM (the pin moves along x)."""
        return self in (Edge.TOP, Edge.BOTTOM)


def _require_int(value: object, what: str) -> None:
    """Reject non-integer geometry: tracks sit on integer coordinates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass
class Cell:
    """A rectangular macro cell.

    ``origin`` (lower-left corner) is ``None`` until the placer runs;
    geometric queries raise until then, which keeps "forgot to place"
    failures loud.
    """

    name: str
    width: int
    height: int
    origin: Point | None = None
    pins: list["Pin"] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        _require_int(self.width, f"cell {self.name} width")
        _require_int(self.height, f"cell {self.name} height")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"cell {self.name}: non-positive dimensions")

    # ------------------------------------------------------------------
    @property
    def is_placed(self) -> bool:
        return self.origin is not None

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def bounds(self) -> Rect:
        """Placed bounding rectangle."""
        if self.origin is None:
            raise RuntimeError(f"cell {self.name} is not placed")
        return Rect(
            self.origin.x,
            self.origin.y,
            self.origin.x + self.width,
            self.origin.y + self.height,
        )

    def place(self, x: int, y: int) -> None:
        """Set the lower-left corner."""
        self.origin = Point(x, y)

    def add_pin(self, pin: "Pin") -> None:
        """Attach ``pin`` (validates the offset fits the edge)."""
        _require_int(pin.offset, f"pin {pin.name} offset on cell {self.name}")
        limit = self.width if pin.edge.is_horizontal else self.height
        if not 0 <= pin.offset <= limit:
            raise ValueError(
                f"pin {pin.name} offset {pin.offset} outside cell "
                f"{self.name} edge length {limit}"
            )
        self.pins.append(pin)

    def pin_position(self, pin: "Pin") -> Point:
        """Absolute position of ``pin`` on the placed cell boundary."""
        box = self.bounds
        if pin.edge is Edge.BOTTOM:
            return Point(box.x1 + pin.offset, box.y1)
        if pin.edge is Edge.TOP:
            return Point(box.x1 + pin.offset, box.y2)
        if pin.edge is Edge.LEFT:
            return Point(box.x1, box.y1 + pin.offset)
        return Point(box.x2, box.y1 + pin.offset)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell({self.name} {self.width}x{self.height})"
