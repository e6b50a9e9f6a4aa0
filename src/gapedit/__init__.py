"""Non-adaptive sublinear-query testers for the gap edit distance problem.

Layers: exact string oracles (`strings`), metered access and seeded
randomness (`metering`), block reductions (`reductions`), recursive and
batched testers (`testers`), and an experiment harness with a CLI
(`harness`, `cli`). Each name lives in one module; the package root
re-exports nothing.
"""
