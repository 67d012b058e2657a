"""Reporting: text tables, printable figure series, and the experiment
registry that maps every paper table/figure to a runnable generator."""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "format_explanations": "repro.reporting.tables",
    "format_findings": "repro.reporting.tables",
    "format_fleet_breakdown": "repro.reporting.tables",
    "format_live_summary": "repro.reporting.tables",
    "format_scaling_timeline": "repro.reporting.tables",
    "format_serving_report": "repro.reporting.tables",
    "format_table": "repro.reporting.tables",
    "format_whatif_table": "repro.reporting.tables",
    "format_worker_utilization": "repro.reporting.tables",
    "format_heatmap": "repro.reporting.figures",
    "format_series": "repro.reporting.figures",
    "ascii_scatter": "repro.reporting.ascii_plot",
    "EXPERIMENTS": "repro.reporting.experiments",
    "Experiment": "repro.reporting.experiments",
    "get_experiment": "repro.reporting.experiments",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
