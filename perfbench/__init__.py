"""End-to-end benchmark of the sequential-ATPG reproduction.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/LAYERS.md`` for the workloads and what each metric means.
"""
