"""Paper Table 3: the dataset catalog (synthetic stand-ins)."""

from repro.harness import run_table3_datasets, save_result


def test_table3_datasets(benchmark):
    result = benchmark.pedantic(run_table3_datasets, rounds=1, iterations=1)
    save_result(result)
    print("\n" + result.render())

    rows = {row[0]: row for row in result.rows}
    assert set(rows) == {"Reddit", "Yelp", "ogbn-products", "AmazonProducts"}
    # Density ordering preserved from the paper: Reddit >> Amazon >
    # products > Yelp (average degree = 2E/N).
    density = {name: 2 * row[2] / row[1] for name, row in rows.items()}
    assert density["Reddit"] > density["AmazonProducts"]
    assert density["AmazonProducts"] > density["ogbn-products"]
    assert density["ogbn-products"] > density["Yelp"]
    # Task types.
    assert rows["Reddit"][5] == "single-label"
    assert rows["Yelp"][5] == "multi-label"
