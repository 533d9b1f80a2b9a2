"""Trapped-atom memory.  The package re-exports nothing: import from the submodules."""
