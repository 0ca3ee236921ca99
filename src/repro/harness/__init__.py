"""Experiment harness: one module per paper figure/table."""
