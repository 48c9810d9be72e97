"""End-to-end benchmark over the paper tables and the buffer service.

See README.md in this directory for the workloads, the metrics and how to
run them.
"""
