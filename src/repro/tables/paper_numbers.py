"""The paper's reported numbers (Tables 1–4), for side-by-side diffing in
EXPERIMENTS.md. Values are transcribed from the EDBT 2025 paper text; Table
3/4 entries are (precision, recall, f1) percentages (means; stds omitted).

The harness also runs from them: each dataset's (γ, μ) and blockings label
come from ``TABLE2``, and the models it runs per dataset are the keys of
``TABLE3`` (the same rows as Table 4's, before its sensitivity variants)."""

TABLE1 = {
    # dataset: {stat: value}
    "real_companies": {"n_sources": 10, "n_entities": 200_000,
                       "n_records": 600_000, "n_matches": 1_000_000,
                       "avg_matches_per_entity": 7.0,
                       "pct_with_description": 25.0},
    "synthetic_companies": {"n_sources": 5, "n_entities": 200_000,
                            "n_records": 868_000, "n_matches": 1_500_000,
                            "avg_matches_per_entity": 7.5,
                            "pct_with_description": 32.0},
    "real_securities": {"n_sources": 10, "n_entities": 250_000,
                        "n_records": 1_000_000, "n_matches": 1_500_000,
                        "avg_matches_per_entity": 10.0},
    "synthetic_securities": {"n_sources": 5, "n_entities": 275_000,
                             "n_records": 984_000, "n_matches": 1_500_000,
                             "avg_matches_per_entity": 5.4},
}

TABLE2 = {
    # dataset: (blockings, n_records, n_candidate_pairs, gamma, mu)
    "real_companies": (("ID Overlap", "Token Overlap"), 6_300, 51_000, 40, 8),
    "synthetic_companies": (("ID Overlap", "Token Overlap"), 174_000, 1_140_000, 25, 5),
    "real_securities": (("ID Overlap", "Issuer Match"), 12_800, 41_000, 40, 8),
    "synthetic_securities": (("ID Overlap", "Issuer Match"), 197_000, 826_000, 25, 5),
    "wdc_products": (("Token Overlap",), 1_000, 9_100, 25, 5),
}

# Table 3: fine-tuning scores on test pairs, (P, R, F1) in percent.
TABLE3 = {
    "real_companies": {
        "ditto128": (68.82, 83.49, 75.11),
        "ditto256": (99.90, 99.67, 99.78),
        "distilbert128_all": (99.93, 99.56, 99.73),
    },
    "synthetic_companies": {
        "ditto128": (99.45, 96.70, 98.15),
        "ditto256": (99.55, 96.88, 98.20),
        "distilbert128_15k": (99.35, 94.77, 96.99),
        "distilbert128_all": (99.28, 96.09, 97.66),
    },
    "real_securities": {
        "ditto128": (25.55, 69.00, 33.89),
        "ditto256": (99.94, 99.13, 99.53),
        "distilbert128_all": (99.48, 99.48, 99.47),
    },
    "synthetic_securities": {
        "ditto128": (57.82, 56.00, 56.47),
        "ditto256": (85.51, 91.35, 88.33),
        "distilbert128_15k": (94.03, 61.11, 73.26),
        "distilbert128_all": (90.96, 70.55, 79.46),
    },
    "wdc_products": {
        "ditto128": (35.92, 63.20, 45.81),
        "ditto256": (48.45, 72.30, 57.71),
        "distilbert128_all": (46.24, 76.33, 57.58),
    },
}

# Table 4: (pairwise P/R/F1), (pre P/R/F1, purity), (post P/R/F1, purity).
TABLE4 = {
    "real_companies": {
        "ditto128": ((23.66, 99.64, 38.24), (0.05, 99.66, 0.10, 0.00), (99.86, 98.23, 99.06, 1.00)),
        "ditto256": ((23.66, 99.64, 38.24), (23.52, 99.68, 38.06, 0.00), (98.42, 99.70, 99.05, 0.99)),
        "distilbert128_all": ((94.06, 99.27, 96.53), (49.07, 99.73, 56.92, 0.80), (86.90, 96.98, 91.64, 0.93)),
    },
    "synthetic_companies": {
        "ditto128": ((33.16, 81.73, 47.18), (0.00, 83.06, 0.00, 0.00), (99.09, 36.94, 53.78, 0.99)),
        "ditto256": ((33.16, 81.73, 47.18), (0.00, 83.66, 0.00, 0.00), (99.07, 38.06, 54.93, 0.99)),
        "distilbert128_15k": ((83.08, 77.48, 80.11), (0.01, 82.31, 0.02, 0.42), (98.06, 57.90, 72.34, 0.98)),
        "distilbert128_all": ((77.03, 79.46, 78.18), (0.00, 82.26, 0.00, 0.23), (98.76, 43.31, 60.03, 0.99)),
        "distilbert128_all_mec": ((77.03, 79.46, 78.18), (0.00, 82.26, 0.00, 0.23), (98.57, 42.79, 59.50, 0.99)),
        "distilbert128_all_halfgamma": ((77.03, 79.46, 78.18), (0.00, 82.26, 0.00, 0.23), (98.79, 43.23, 59.96, 0.99)),
        "distilbert128_all_bc": ((77.03, 79.46, 78.18), (0.00, 82.26, 0.00, 0.23), (98.76, 43.31, 60.03, 0.99)),
    },
    "real_securities": {
        "ditto128": ((19.96, 91.99, 32.80), (19.95, 92.10, 32.80, 0.20), (19.35, 17.59, 18.28, 0.19)),
        "ditto256": ((19.96, 91.99, 32.80), (19.94, 92.11, 32.78, 0.20), (19.70, 20.93, 20.30, 0.19)),
        "distilbert128_all": ((99.76, 97.77, 98.76), (99.73, 98.08, 98.90, 1.00), (99.73, 98.00, 98.86, 1.00)),
    },
    "synthetic_securities": {
        "ditto128": ((97.26, 52.51, 68.20), (96.39, 54.58, 69.69, 0.98), (98.22, 44.88, 61.54, 0.99)),
        "ditto256": ((97.26, 52.51, 68.20), (96.23, 57.08, 71.66, 0.98), (98.31, 56.68, 71.90, 0.99)),
        "distilbert128_15k": ((97.26, 57.06, 71.59), (96.05, 57.06, 71.59, 0.98), (98.08, 56.56, 71.71, 0.98)),
        "distilbert128_all": ((95.58, 53.28, 68.40), (87.81, 58.40, 69.82, 0.94), (96.70, 57.52, 72.11, 0.97)),
    },
    "wdc_products": {
        "ditto128": ((19.71, 36.96, 25.71), (1.19, 50.38, 2.33, 0.01), (72.59, 9.02, 16.03, 0.84)),
        "ditto256": ((19.71, 36.96, 25.71), (20.34, 39.97, 26.96, 0.01), (74.14, 18.06, 28.96, 0.85)),
        "distilbert128_all": ((39.64, 65.27, 49.32), (7.47, 71.40, 13.03, 0.43), (35.54, 57.93, 44.04, 0.53)),
    },
}
