"""Benchmark: regenerate the Section III-B area-proxy validation.

1000 random weighted-sum circuits, Pearson correlation between the
multiplier-area-sum proxy and the synthesized circuit area.  The paper
reports r = 0.91.
"""

from conftest import run_once

from repro.experiments import proxy_correlation
from repro.experiments.paper_data import PAPER_PROXY_PEARSON


def test_proxy_pearson_correlation(save_report):
    study = run_once(lambda: proxy_correlation.run(n_circuits=1000))
    assert study.n_circuits == 1000
    # The proxy must capture the area trend as strongly as in the paper.
    assert study.pearson_r > 0.85
    assert study.p_value < 1e-12
    assert abs(study.pearson_r - PAPER_PROXY_PEARSON) < 0.12
    save_report("proxy", proxy_correlation.format_table(study))
