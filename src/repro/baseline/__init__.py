"""Baselines: the simulated commercial navigational engine (X-Hive
stand-in).  The naive oracle is
:class:`~repro.engine.construct.DirectEvaluator` (``strategy="naive"``)."""

from repro.baseline.xhive import XHiveSimulator

__all__ = ["XHiveSimulator"]
