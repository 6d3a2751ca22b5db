"""Software-implemented fault injection (SWIFI) framework.

The paper's methodology end to end: fault specifications over the
(bit, process, time) space, the symbol-filtered fault dictionary, the
ptrace-analogue register/memory injector, the Channel-level message
injector, outcome classification into the six manifestation classes, and
the campaign driver that regenerates Tables 2-4.
"""

from repro.injection.faults import (
    FP_DATA_BITS,
    FP_SPECIAL_BITS,
    FP_SPECIAL_WIDTHS,
    FP_TOTAL_BITS,
    FaultSpec,
    InjectionRecord,
    MEMORY_REGIONS,
    PROCESS_REGIONS,
    Persistence,
    Region,
    fp_target_from_bitindex,
)
from repro.injection.dictionary import DictionaryEntry, FaultDictionary
from repro.injection.injector import MemoryFaultInjector
from repro.injection.message_injector import MessageFaultInjector
from repro.injection.outcomes import (
    ERROR_CLASSES,
    Manifestation,
    OutcomeTally,
    classify,
)
from repro.injection.config import ConfigError, InjectionConfig, format_config, parse_config
from repro.injection.wrappers import install, install_from_config_text
from repro.injection.campaign import (
    Campaign,
    CampaignResult,
    ReferenceProfile,
    RegionResult,
)

__all__ = [
    "FP_DATA_BITS",
    "FP_SPECIAL_BITS",
    "FP_SPECIAL_WIDTHS",
    "FP_TOTAL_BITS",
    "FaultSpec",
    "InjectionRecord",
    "MEMORY_REGIONS",
    "PROCESS_REGIONS",
    "Persistence",
    "Region",
    "fp_target_from_bitindex",
    "DictionaryEntry",
    "FaultDictionary",
    "MemoryFaultInjector",
    "MessageFaultInjector",
    "ERROR_CLASSES",
    "Manifestation",
    "OutcomeTally",
    "classify",
    "ConfigError",
    "InjectionConfig",
    "format_config",
    "parse_config",
    "install",
    "install_from_config_text",
    "Campaign",
    "CampaignResult",
    "ReferenceProfile",
    "RegionResult",
]
