"""Benchmark: regenerate each paper table and check its paper shape."""
import pytest

from repro.harness import tables


def _avg(df):
    return df[df.source == "Average"].iloc[0]


def check_table1(df):
    avg = _avg(df)
    # paper shape: ClosedIE well above OpenIE, both substantial
    assert avg.closed_f1 > avg.open_f1 > 40


def check_table2(df):
    movie = df[df.benchmark == "swde_movie"].set_index("system")
    # paper shape: Code+ beats Code on OpenIE; Direct leads ClosedIE
    assert movie.loc["EVAPORATE-CODE+", "open"] > movie.loc["EVAPORATE-CODE", "open"]


def check_table3(df):
    avg = _avg(df)
    # the paper's headline claims: Code+ wins on quality AND pays
    # orders of magnitude fewer tokens
    assert avg.code_f1 > avg.direct_f1
    assert avg.reduction > 25


def check_table4(df):
    avg = _avg(df)
    # paper ordering: Algorithm 1's filtering+abstention beat raw MV/WS
    assert avg.ws_abstain_filter >= avg.ws_filter - 1
    assert avg.ws_filter > avg.mv


def check_table5(df):
    by_model = df.set_index("model")
    # paper shape: jumbo collapses on FDA Code+ while enron survives;
    # gpt4 stays competitive
    assert by_model.loc["jumbo", "code_fda"] < 15
    assert by_model.loc["jumbo", "code_enron"] > 60
    assert by_model.loc["gpt4", "code_fda"] > 40


def check_table6(df):
    # paper: span extractors land mid-range, well below Evaporate ClosedIE
    assert df.closed_f1.between(20, 80).all()


def check_table7(df):
    # paper: the LLM F is a strong closed extractor (avg 79.9 F1)
    avg = _avg(df)
    assert avg.f1 > 60


CHECKS = {
    "table1": check_table1, "table2": check_table2, "table3": check_table3,
    "table4": check_table4, "table5": check_table5, "table6": check_table6,
    "table7": check_table7,
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.benchmark(group=name)) for name in CHECKS
])
def test_bench_table(benchmark, spark, bench_cfg, name):
    df = benchmark.pedantic(getattr(tables, name), args=(spark, bench_cfg),
                            rounds=1, iterations=1)
    CHECKS[name](df)
    print("\n" + tables.to_markdown(df))
