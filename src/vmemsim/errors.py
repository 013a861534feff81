"""Exception taxonomy shared across the simulator.

Faults that a real machine would deliver to software (isolation faults,
DMA faults, memory-full signals) are *recorded outcomes*, not exceptions;
the classes below cover misuse of the model itself.
"""


class SimError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(SimError):
    """Invalid memory geometry or out-of-range address component."""


class LifecycleError(SimError):
    """Operation on a VM id that is not in the required lifecycle state."""


class CapacityError(SimError):
    """Owner count would exceed what the segment pool can support."""


class ProtocolError(SimError):
    """VM entry/exit or save-slot protocol violated."""


class DoubleFreeError(SimError):
    """Page freed while already free."""


class OutOfRangeError(SimError):
    """Field value outside its architectural range (bus/device/function...)."""


class ModeError(SimError):
    """Event cannot be interpreted under the selected simulation mode."""


class WorkloadError(SimError):
    """Workload parameters are inconsistent or exceed the geometry."""


class TraceFormatError(SimError):
    """Trace text could not be parsed; message names the offending line."""


class ConfigError(SimError):
    """Config file rejected: unknown key, bad value, or missing file."""


class DuplicateRunError(SimError):
    """A comparison would replay the same (trace name, mode) pair twice."""


class SimulationError(SimError):
    """Trace replay failed; message names the offending event seq."""
