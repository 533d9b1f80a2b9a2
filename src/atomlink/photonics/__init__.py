"""Photonic link.  The package re-exports nothing: import from the submodules."""
