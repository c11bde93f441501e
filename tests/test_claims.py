"""Claims about how the method behaves on data it has not seen, each checked
against a band stated before the runs it checks."""

import numpy as np

from eegstrata import PipelineConfig, run_pipeline

NULL_SEEDS = range(6)


def _null_corpus(root, seed):
    """A Bonn-layout corpus whose sets are drawn alike: 10, 10 and 20 files
    in Z, O and S (sets A, B and E), each 4097 integers rint(50 * N(0, 1))
    from one generator, in Z, O, S order."""
    rng = np.random.default_rng(seed)
    for prefix, n_files in (("Z", 10), ("O", 10), ("S", 20)):
        (root / prefix).mkdir(parents=True)
        for i in range(n_files):
            x = np.rint(50.0 * rng.standard_normal(4097)).astype(np.int64)
            (root / prefix / f"{prefix}{i:03d}.txt").write_text("".join(f"{v}\n" for v in x))


def test_allocation_leaks_no_label(tmp_path):
    """Each class is reduced under its own optimum allocation, so the counts
    kept per stratum depend on the class. On classes drawn from one
    distribution, the only difference a classifier could find between them
    is one that allocation put there: nb must score chance. Band, stated
    before the runs: each seed's mean accuracy in [30, 70] % and the mean
    over seeds in [40, 60] %."""
    accuracies, allocations_differ = [], []
    for seed in NULL_SEEDS:
        _null_corpus(tmp_path / f"corpus{seed}", seed)
        cfg = PipelineConfig(data_dir=str(tmp_path / f"corpus{seed}"), classifier="nb",
                             cv_folds=5, cv_repeats=2, seed=seed,
                             out_dir=str(tmp_path / f"out{seed}"))
        case = run_pipeline(cfg)["levels"][0]["cases"]["Case1"]
        accuracies.append(case["accuracy_mean"])
        allocations_differ.append(
            case["allocation"]["0"]["per_stratum"] != case["allocation"]["1"]["per_stratum"])
    assert any(allocations_differ), "no seed exercised distinct per-class allocations"
    assert all(30.0 <= a <= 70.0 for a in accuracies), accuracies
    assert 40.0 <= np.mean(accuracies) <= 60.0, accuracies
