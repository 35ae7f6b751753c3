"""memlogic: behavioral simulation of non-stateful in-memory logic on 1T1R
RRAM arrays -- a stochastic device model, array wiring, a complete Boolean
logic family on single cells, scouting logic with reference currents, and a
Monte Carlo experiment harness.
"""

from .analysis import (
    DistributionSummary,
    ExperimentConfig,
    FailureReport,
    find_overlap_sigma,
    non_switching_report,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sweep_parameter,
)
from .array import (
    ArrayTopology,
    CellAddress,
    CellArray,
    TopologyKind,
    check_parallel,
)
from .device import (
    MemristorCell,
    Pulse,
    SwitchEvent,
    VariabilityParams,
    apply_pulse,
    binarize,
    default_boundary,
    form_by_ramp,
    read_resistance,
    sample_fresh_cell,
)
from .logic1t1r import (
    CASE_TABLE,
    ParamMapping,
    Term,
    TraceRow,
    builtin_mapping,
    classify_case,
    default_gate_library,
    evaluate_mapping,
    execute_gate_bucket,
    synthesize_mapping,
)
from .scouting import (
    PAPER_REFS,
    OverlapError,
    ReferenceLevels,
    classify_bucket,
    scout_class,
)

__version__ = "0.1.0"
