"""Job-shop scheduling with AGV transport.

A deterministic construction environment for the transport-extended job shop,
the classic dispatching-rule solvers, a line protocol for evaluating external
agents (`jsspt.features` is the reference its encoders are tested against),
and the experiment harness (benchmarks, duration grid, sensitivity regression).
"""

from .engine import (
    JointAction,
    OpRow,
    OpSchedule,
    ScheduleResult,
    ScheduleState,
    build_result,
    lower_bound,
    terminal_reward,
    validate_schedule,
)
from .errors import (
    ActionError,
    ConfigurationError,
    DocumentError,
    JssptError,
    MetricError,
    OracleLimitError,
    ProtocolError,
    StateError,
    TransportError,
)
from .instances import (
    GRID_BINS,
    LOAD,
    UNLOAD,
    GenerationConfig,
    Instance,
    generate_instance,
    instance_from_document,
    instance_to_document,
    load_instance,
    machine_index,
    save_instance,
)
from .metrics import (
    BottleneckFeatures,
    Regime,
    ResultRecord,
    bottleneck_features,
    classify_regime,
    make_record,
    rho,
    rpi,
    temporal_dominance,
    win,
)
from .oracle import OracleResult, brute_force_oracle
from .regression import RegressionReport, aggregate_ci, ols_fit, vif, z_normalize
from .rules import (
    ALL_COMBOS,
    AgvRule,
    OperationRule,
    combo_id,
    parse_combo,
    play,
    select_agv,
    select_operation,
    solve,
    sweep,
)

__version__ = "0.1.0"
