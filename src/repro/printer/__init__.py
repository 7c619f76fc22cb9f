"""Printer/copier domain (the Octopus project of Sect. 5)."""

from .engine import Feeder, Finisher, PrintEngine, PrintedPage, Printer, PrintJob
from .model import (
    build_printer_model,
    expected_page_rate,
    expected_progressing,
    expected_queue_depth,
    expected_status,
)

__all__ = [
    "Feeder",
    "Finisher",
    "PrintEngine",
    "PrintJob",
    "PrintedPage",
    "Printer",
    "build_printer_model",
    "expected_page_rate",
    "expected_progressing",
    "expected_queue_depth",
    "expected_status",
]
