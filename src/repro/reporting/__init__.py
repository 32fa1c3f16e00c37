"""Output rendering: ASCII tables and the dashboard's terminal plot
primitives."""

from .tables import render_markdown, render_table

__all__ = [
    "render_markdown",
    "render_table",
]
