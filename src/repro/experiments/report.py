"""One-shot reproduction report.

``python -m repro report`` regenerates every paper artifact this library
reproduces — Tables 4.1/4.2/4.3 with the published values side by side,
the Section 4.3 trace characterization, and (optionally) the A1-A12
ablations — and renders a single Markdown document. EXPERIMENTS.md in
this repository is the curated long-form version; this module produces
the mechanical equivalent for any parameter setting, so downstream users
can re-verify the reproduction on their own machines with one command.
Progress — each section, and each table's cell and B(1)/B(2) lines — is
narrated through :func:`repro.obs.runtime.narrate` on the ambient
dispatcher.
"""

from __future__ import annotations

import io
import time

from ..analysis import profile_trace
from ..obs.runtime import narrate
from ..sim import run_experiment
from ..workloads import BankOLTPWorkload
from ..workloads.oltp import (
    FIVE_MINUTE_WINDOW_REFERENCES,
    PAPER_TRACE_LENGTH,
)
from .ablations import ABLATIONS
from .compare import comparison_table
from .paper_data import PAPER_TABLE_4_1, PAPER_TABLE_4_2, PAPER_TABLE_4_3
from .table41 import table_4_1_spec
from .table42 import table_4_2_spec
from .table43 import table_4_3_spec

def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def generate_report(table_scale: float = 1.0,
                    oltp_scale: float = 0.25,
                    repetitions: int = 2,
                    include_ablations: bool = False,
                    seed: int = 0) -> str:
    """Run the reproduction and return the Markdown report."""
    out = io.StringIO()
    started = time.perf_counter()
    out.write("# Reproduction report — LRU-K (O'Neil, O'Neil & Weikum, "
              "SIGMOD 1993)\n\n")
    out.write(f"Parameters: table scale {table_scale:g}, OLTP trace scale "
              f"{oltp_scale:g}, {repetitions} repetition(s), seed {seed}."
              "\n\n")

    narrate("Table 4.1 (two-pool experiment) ...")
    result = run_experiment(table_4_1_spec(
        scale=table_scale, repetitions=repetitions, seed=seed))
    out.write("## Table 4.1 — two-pool experiment\n\n")
    out.write(_code_block(comparison_table(result,
                                           PAPER_TABLE_4_1).render()))
    out.write("\n\n")

    narrate("Table 4.2 (Zipfian experiment) ...")
    result = run_experiment(table_4_2_spec(
        scale=table_scale, repetitions=repetitions, seed=seed))
    out.write("## Table 4.2 — Zipfian random access\n\n")
    out.write(_code_block(comparison_table(result,
                                           PAPER_TABLE_4_2).render()))
    out.write("\n\n")

    narrate("Table 4.3 (OLTP trace experiment) ...")
    result = run_experiment(table_4_3_spec(scale=oltp_scale, seed=seed))
    out.write("## Table 4.3 — OLTP trace experiment "
              "(synthetic trace, see DESIGN.md §3)\n\n")
    out.write(_code_block(comparison_table(result,
                                           PAPER_TABLE_4_3).render()))
    out.write("\n\n")

    narrate("Trace characterization ...")
    count = int(PAPER_TRACE_LENGTH * oltp_scale)
    window = max(1, int(FIVE_MINUTE_WINDOW_REFERENCES * oltp_scale))
    references = list(BankOLTPWorkload().references(count, seed=seed))
    profile = profile_trace(references, window)
    out.write("## Section 4.3 trace characterization\n\n")
    out.write("Paper: 40% of references on 3% of pages; 90% on 65%; "
              "~1400 Five-Minute-Rule pages.\n\n")
    out.write(_code_block("\n".join(profile.summary_lines())))
    out.write("\n\n")

    if include_ablations:
        out.write("## Ablations (DESIGN.md A1-A10)\n\n")
        for name in sorted(ABLATIONS):
            narrate(f"ablation {name} ...")
            table = ABLATIONS[name]()
            out.write(f"### {name}\n\n")
            out.write(_code_block(table.render()))
            out.write("\n\n")

    elapsed = time.perf_counter() - started
    out.write(f"---\nGenerated in {elapsed:.1f} s by `python -m repro "
              f"report`.\n")
    return out.getvalue()
