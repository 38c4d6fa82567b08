"""Helpers shared by the test modules."""

from dataclasses import asdict, replace

from reachsafe.config import DynamicsSection


def dynamics(**fields) -> dict:
    """``train_ensemble`` keywords: the default dynamics section, ``fields`` changed."""
    return asdict(replace(DynamicsSection(), **fields))
