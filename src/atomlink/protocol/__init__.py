"""Scenarios, rate budget, event sequence and fidelity model of the link.

Import names from the submodules.  The package re-exports nothing, so that
loading one submodule (the preset table, say) loads none of the others.
"""
