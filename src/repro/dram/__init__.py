"""Event-driven DRAM timing substrate (the Ramulator replacement).

Public surface:

* :class:`DramTiming` and the Table 2 presets,
* :class:`AddressMapper` / :class:`DecodedAddress`,
* :class:`Bank` with row-buffer outcomes,
* :class:`ChannelController` (bounded FR-FCFS),
* :class:`MemoryDevice` plus the ``hbm_device`` / ``ddr4_device``
  Table 2 factory functions,
* the transaction-kind constants (``DEMAND``, ``MIGRATION``,
  ``BOOKKEEPING``).
"""

from .address import AddressMapper, DecodedAddress
from .bank import Bank, OUTCOME_NAMES, ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from .controller import REQUEST_BYTES, ChannelController, ControllerStats
from .devices import (
    DDR4_1600_TIMING,
    DDR4_2400_TIMING,
    HBM_OVERCLOCKED_TIMING,
    HBM_TIMING,
    ROW_BYTES,
    MemoryDevice,
    ddr4_device,
    hbm_device,
)
from .request import BOOKKEEPING, DEMAND, KIND_NAMES, MIGRATION
from .timing import DramTiming

__all__ = [
    "AddressMapper",
    "BOOKKEEPING",
    "Bank",
    "ChannelController",
    "ControllerStats",
    "DDR4_1600_TIMING",
    "DDR4_2400_TIMING",
    "DEMAND",
    "DecodedAddress",
    "DramTiming",
    "HBM_OVERCLOCKED_TIMING",
    "HBM_TIMING",
    "KIND_NAMES",
    "MIGRATION",
    "MemoryDevice",
    "OUTCOME_NAMES",
    "REQUEST_BYTES",
    "ROW_BYTES",
    "ROW_CLOSED",
    "ROW_CONFLICT",
    "ROW_HIT",
    "ddr4_device",
    "hbm_device",
]
