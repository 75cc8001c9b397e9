"""``python -m lqlang``: the ``lq`` command."""

from .cli import entry

entry()
