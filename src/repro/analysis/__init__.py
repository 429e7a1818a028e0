"""Metrics, analytic models and report rendering."""
