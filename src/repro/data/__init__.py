"""Vector data substrate: metrics, synthetic corpora, ground truth, IO."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".datasets": (
        "DATASETS",
        "Dataset",
        "DatasetSpec",
        "dataset_names",
        "load_big_dataset",
        "load_dataset",
        "load_real_dataset",
    ),
    ".groundtruth": ("exact_knn", "recall", "recall_per_query"),
    ".io": ("read_bvecs", "read_fvecs", "read_ivecs", "write_fvecs", "write_ivecs"),
    ".metrics": ("METRICS", "distance_one", "normalize", "pairwise_distances", "query_distances"),
    ".storage": (
        "LatentMixtureModel",
        "exact_knn_big",
        "generate_memmap",
        "open_bvecs_mmap",
        "open_fvecs_mmap",
    ),
    ".synthetic": (
        "gaussian_mixture",
        "hypersphere_mixture",
        "latent_mixture",
        "uniform_cube",
    ),
    ".workload": (
        "ArrivalProcess",
        "Bursty",
        "ClosedLoop",
        "Diurnal",
        "Poisson",
        "QueryEvent",
        "TraceReplay",
        "TrafficSpec",
        "Uniform",
        "closed_loop",
        "poisson_arrivals",
        "resolve_workload",
        "uniform_arrivals",
    ),
})
