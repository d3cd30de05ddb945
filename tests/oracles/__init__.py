"""Reference implementations the optimised proxy paths are tested against.

Each module holds the simple algorithm one ``src/`` optimisation
replaced.  None of them runs in the proxy; the differential tests run
both and assert identical observables.
"""
