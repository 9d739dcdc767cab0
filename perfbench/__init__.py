"""Layered end-to-end benchmark of the ReASSIgN reproduction.

``python3 perfbench/run.py --workload <learn|pipeline|sweep|serve>
--seed <n> --seconds <s> --trace <0|1>`` runs one closed-loop workload
against the library's public entry points and prints one JSON result
line.  See ``perfbench/README.md`` for the workloads, the metrics and
the layer map.
"""
