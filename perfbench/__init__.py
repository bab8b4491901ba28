"""End-to-end SRAM yield benchmark (see ``perfbench/run.py``)."""
