"""Verbs tests.  A package, as is tests/exs: each has a test_call_budget.py."""
