"""Cycle-level simulator and scheduling framework for systolic-vector
accelerators serving multi-tenant DNN inference."""

__version__ = "0.1.0"
