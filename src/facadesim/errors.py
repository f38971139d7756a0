"""Exception types shared across the simulator."""

from __future__ import annotations


class InvalidScenario(ValueError):
    """A scene, plan, or config value violates its contract."""


class MissionAborted(RuntimeError):
    """Watchdog abort: a waypoint was not reached within the time limit."""

    def __init__(self, message: str, *, time: float, phase: str, waypoint_index: int,
                 position: tuple[float, float, float]):
        super().__init__(message)
        self.time = time
        self.phase = phase
        self.waypoint_index = waypoint_index
        self.position = position
