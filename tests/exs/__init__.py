"""EXS tests.  A package, as is tests/verbs: each has a test_call_budget.py."""
