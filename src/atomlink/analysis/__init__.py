"""Run tables and estimators.  The package re-exports nothing: import from the submodules."""
