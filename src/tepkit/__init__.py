"""Transmission expansion planning under temperature-driven derating.

The pipeline: ingest or synthesize a power network (``network``,
``instance``), turn projected regional temperature increases into capacity
and demand multipliers (``thermal``, ``scenario``), formulate the expansion
problem as a mixed-integer linear program (``milp``, ``model``), solve it
with the bundled simplex/branch-and-bound engine (``solver``), and drive it
all from the command line (``cli``).
"""

from .network import (
    Bus,
    ConductorParams,
    DRAKE_ACSR,
    DocumentError,
    Generator,
    Line,
    Network,
    NetworkError,
    Region,
    ValidationError,
    load_network,
    parse_document,
    serialize,
    to_document,
    validate,
)
from .thermal import (
    AnnualSeries,
    ThermalDomainError,
    TrendFit,
    ampacity,
    derating_factor,
    exceedance_trend,
    fit_trend,
    project_temperature,
    read_daily_csv,
    top_k_mean_series,
)
from .scenario import (
    DemandElasticityConfig,
    RegionParams,
    ScenarioCode,
    ScenarioConfig,
    ScenarioParams,
    enumerate_scenarios,
    load_scenario_config,
    realize_scenario,
)
from .model import (
    BINARY,
    CONTINUOUS,
    Constraint,
    Model,
    ModelError,
    Variable,
    check_model,
    model_stats,
    models_equivalent,
)
from .milp import (
    VariableMap,
    big_m,
    build_tep_model,
)
from .mps import MpsFormatError, export_lp, export_mps, import_mps
from .solver import (
    CheckReport,
    Solution,
    SolveOptions,
    SolverError,
    brute_force_solve,
    check_solution,
    format_solution,
    parse_solution,
    solve_lp,
    solve_milp,
)
from .instance import (
    CandidateRules,
    CostRate,
    CostTable,
    DEFAULT_COST_TABLE,
    SynthesisConfig,
    builtin_garver,
    csv_to_document,
    disaggregate_load,
    estimate_line_cost,
    synthesize_grid,
)

__version__ = "0.1.0"
