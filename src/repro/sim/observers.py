"""Machine observers: the one hook every new :class:`Machine` passes through.

``Machine.__init__`` ends by handing the fully-built machine to every
callable in :data:`machine_observers`, in registration order. The list
is empty by default, so an unobserved build pays one empty loop.

:class:`MachineSession` is the process-wide installer built on that
list: while installed, it attaches one per-machine object (telemetry,
a fault controller, a flight recorder) to every machine constructed
anywhere in the process -- which is how the experiment runner's
``--telemetry-out``, ``--faults`` and ``--flight-recorder`` reach
machines that workloads build internally.

This module imports nothing from ``repro``: the session classes live in
modules the simulator core itself imports, so the base they share must
sit below all of them.
"""

#: The registered observers, in registration order.
machine_observers = []


def add_machine_observer(fn):
    """Call ``fn(machine)`` for every machine built from now on."""
    machine_observers.append(fn)
    return fn


def remove_machine_observer(fn):
    """Stop observing (no-op if ``fn`` was never registered)."""
    try:
        machine_observers.remove(fn)
    except ValueError:
        pass


class MachineSession:
    """Attach one object to every machine built while installed.

    Subclasses implement :meth:`attach`, which builds the per-machine
    object (it must have a ``detach()``); the session collects them in
    :attr:`attached`, in build order. At most one instance of each
    session class is installed at a time.
    """

    #: session class -> its installed instance.
    _installed = {}

    def __init__(self):
        self.attached = []

    @classmethod
    def active(cls):
        """The installed instance of this class, or None."""
        return MachineSession._installed.get(cls)

    def attach(self, machine):
        """Build and return this session's object for ``machine``."""
        raise NotImplementedError

    # -- hook management ------------------------------------------------
    def install(self):
        cls = type(self)
        current = self._installed.get(cls)
        if current is not None and current is not self:
            raise RuntimeError(f"another {cls.__name__} is already installed")
        if current is None:
            self._installed[cls] = self
            add_machine_observer(self._observe)
        return self

    def uninstall(self):
        cls = type(self)
        if self._installed.get(cls) is self:
            del self._installed[cls]
            remove_machine_observer(self._observe)
        return self

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- collection -----------------------------------------------------
    def _observe(self, machine):
        self.attached.append(self.attach(machine))

    def detach(self):
        for observer in self.attached:
            observer.detach()
        return self

    def reset(self):
        """Detach and forget every collected machine."""
        self.detach()
        self.attached = []
        return self
