"""Analysis layer: mechanical generation of the reproduction record."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ascii_plots": ["ascii_line_chart", "render_ensemble"],
        "report": ["PAPER_CLAIMS", "generate_report", "render_experiment_section"],
    },
)
