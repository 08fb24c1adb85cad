"""Deterministic simulation kernel: clock and named random streams."""

from repro.sim.clock import SimClock
from repro.sim.rng import RngFactory, mix64, stable_hash64

__all__ = ["SimClock", "RngFactory", "mix64", "stable_hash64"]
