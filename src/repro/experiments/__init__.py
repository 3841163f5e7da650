"""The experiment harness: one module per table/figure of the paper.

Each ``figN_*`` / ``tableN_*`` module exposes a ``run()`` function that
executes the experiment at reproduction scale and returns an
:class:`~repro.experiments.runner.Experiment` whose ``rows`` mirror the
series the paper reports, plus a ``check()`` on the qualitative shape
(who wins, roughly by how much, where the knees fall).

``python -m repro.experiments <name>`` (or the ``leviathan-repro``
entry point) runs them from the command line; its experiment table,
``repro.experiments.cli._EXPERIMENTS``, names every one.
"""

from repro.experiments.runner import Experiment

__all__ = ["Experiment"]
