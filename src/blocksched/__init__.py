"""Block-scheduling appointment templates for two-stage outpatient clinics."""

from .instance import (BalanceResult, ClinicInstance, CostWeights,
                       InstanceFormatError, InvalidInstanceError, Patient,
                       PatientType, ValidationReport, balance_workload,
                       balanced_blocks, expand_block, expand_horizon,
                       instance_from_dict, instance_to_dict, load_instance,
                       validate_instance, workloads)
from .timeline import (AppointmentTemplate, ScheduleEvaluation, concatenate,
                       evaluate, pa_prefix_taus, sections,
                       single_block_template, total_cost)
from .heuristics import (BoundReport, algorithm1, algorithm2, algorithm3,
                         algorithm4, bound_report, closed_form_wait, fcfa,
                         junction_theta, robust_template, w_threshold,
                         wait_bound_block, wait_bound_horizon)
from .exact import (SearchConfig, Solution, solve_block_exact,
                    solve_horizon_exact, solve_saa_replication)
from .stochastic import (DistributionSpec, SAAConfig, SAAResult, ScenarioSet,
                         draw_scenarios, evaluate_template_mc,
                         incumbent_selection, saa_procedure)
from .noshow import (ExpectedMetrics, NoShowProbs, OverbookPlan,
                     build_overbook_plan, enumerate_expected_metrics,
                     expected_cost_per_patient)

__all__ = [name for name in dir() if not name.startswith("_")]
